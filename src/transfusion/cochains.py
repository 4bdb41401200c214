"""Circle-valued cochains on finite groupoids, written additively in Q/Z.

A degree-k cochain assigns a rational-mod-1 value to every composable
k-tuple of arrows (degree 0: to every object). Everything is exact: a
cochain stores one modulus N and a dense list of integers in 0..N-1, one
per tuple in nerve order, each standing for itself over N mod 1, and all
identities are tested with literal equality. Fractions appear only at the boundaries:
the public constructor, value(), the cochain file format and the right-hand
side of a coboundary solve.

This module carries the transgression machinery (loop-groupoid transgression
of a cochain, the product homotopy correcting its multiplicativity, the
shuffle form on group centralizers), exact coboundary solving, and the mod-2
polynomial toolkit used to build explicit cocycles on elementary abelian
2-groups.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from operator import add, itemgetter, sub
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .groups import FiniteGroup, centralizer, subgroup_as_group
from .groupoids import (
    ActionCompose,
    FiniteGroupoid,
    GroupoidHom,
    SectorGroupoid,
    evaluation_hom,
    nerve,
    nerve_index,
    nerve_size,
    point_groupoid,
)
from .smith import solve_mod1

ZERO = Fraction(0)
HALF = Fraction(1, 2)

# guard for coboundary solves: rows * unknowns of the linear system
SOLVE_ENTRY_CAP = 10**6


@functools.lru_cache(maxsize=4096)
def _angle(v: int, modulus: int) -> Fraction:
    # value() is read in hot loops over few distinct angles; Fractions are
    # immutable
    return Fraction(v, modulus)


class CocycleError(ValueError):
    """A cochain failed the cocycle identity; witness is the first failing
    key of its coboundary."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class InconsistencyError(RuntimeError):
    """Cochains that cannot meet: a sum of cochains on different groupoids
    or degrees, or a coboundary solve of a non-cocycle. No input the
    command line accepts leads to either, so it is not a ValueError: the
    command line reports it as an internal fault, not as bad input."""


class Cochain:
    """Dense list of Q/Z values, one per composable k-tuple, in nerve order.

    values[p] is an integer v in 0..modulus-1 standing for v/modulus mod 1,
    at the key in position p of nerve_index(groupoid, degree). Keys are
    tuples of arrow indices; degree-0 keys are 1-tuples holding an object
    index instead, and object x sits at position x. The constructor takes
    a sparse table of rational values, refuses any key that is not a
    composable tuple of the groupoid, and picks the lcm of the reduced
    denominators as the modulus.
    """

    __slots__ = ("groupoid", "degree", "modulus", "values")

    def __init__(self, groupoid: FiniteGroupoid, degree: int, table=None):
        if degree < 0:
            raise ValueError("cochain degree must be nonnegative")
        index = nerve_index(groupoid, degree)
        self.groupoid = groupoid
        self.degree = degree
        self.modulus, self.values = _integers(
            index.size,
            [(index.position(key), raw) for key, raw in (table or {}).items()],
        )

    def value(self, key: Sequence[int]) -> Fraction:
        return self.value_at(nerve_index(self.groupoid, self.degree).position(key))

    def value_at(self, p: int) -> Fraction:
        """The value at position p; in degree 1 that is the value at arrow p."""
        v = self.values[p]
        return _angle(v, self.modulus) if v else ZERO

    def is_zero(self) -> bool:
        return not any(self.values)

    def support_size(self) -> int:
        return len(self.values) - self.values.count(0)

    def first_key(self) -> Optional[Tuple[int, ...]]:
        """The key of the first nonzero value in nerve order (the least key);
        None for the zero cochain."""
        if not any(self.values):
            return None
        p = next(p for p, v in enumerate(self.values) if v)
        return nerve_index(self.groupoid, self.degree).key(p)

    @property
    def table(self) -> Dict[Tuple[int, ...], int]:
        """The nonzero values as a {key: integer} dict in nerve order, built
        on each read for cold readers; sweeps read values."""
        if self.degree == 0:
            keys = [(x,) for x in range(self.groupoid.n_objects)]
        else:
            keys = nerve(self.groupoid, self.degree)
        return {key: v for key, v in zip(keys, self.values) if v}

    def _at(self, modulus: int) -> List[int]:
        """The integer values over a multiple of the modulus."""
        if modulus == self.modulus:
            return self.values
        f = modulus // self.modulus
        return [v * f for v in self.values]

    def _binop(self, other: "Cochain", flip: bool) -> "Cochain":
        if not isinstance(other, Cochain):
            return NotImplemented
        if other.groupoid is not self.groupoid or other.degree != self.degree:
            raise InconsistencyError("cochain mismatch: different groupoid or degree")
        n = math.lcm(self.modulus, other.modulus)
        a, b = self._at(n), other._at(n)
        if flip:
            out = [(x - y) % n for x, y in zip(a, b)]
        else:
            out = [(x + y) % n for x, y in zip(a, b)]
        return _cochain(self.groupoid, self.degree, n, out)

    def __add__(self, other):
        return self._binop(other, flip=False)

    def __sub__(self, other):
        return self._binop(other, flip=True)

    def __neg__(self):
        n = self.modulus
        return _cochain(self.groupoid, self.degree, n, [-v % n for v in self.values])

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        if other.groupoid is not self.groupoid or other.degree != self.degree:
            return False
        n = math.lcm(self.modulus, other.modulus)
        return self._at(n) == other._at(n)

    __hash__ = None

    def __repr__(self):
        return f"{type(self).__name__}(degree={self.degree}, support={self.support_size()})"


class Cocycle(Cochain):
    """A cochain whose coboundary one delta sweep found to vanish.

    Only cocycle() makes one; functions that need a closed input skip their
    own sweep when handed one. Arithmetic on cocycles returns plain cochains.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        raise TypeError("a Cocycle comes from cochains.cocycle(c)")


def _cochain(
    groupoid: FiniteGroupoid, degree: int, modulus: int, values: List[int], cls=Cochain
) -> Cochain:
    """Wrap a dense value list whose entries already lie in 0..modulus-1."""
    c = object.__new__(cls)
    c.groupoid = groupoid
    c.degree = degree
    c.modulus = modulus
    c.values = values
    return c


def _integers(size: int, entries) -> Tuple[int, List[int]]:
    """(modulus, values) of a dense list holding rational values at the
    given (position, value) entries and 0 elsewhere; the modulus is the lcm
    of the reduced denominators."""
    fracs = []
    modulus = 1
    for p, raw in entries:
        v = Fraction(raw) % 1
        if v:
            fracs.append((p, v))
            modulus = math.lcm(modulus, v.denominator)
    values = [0] * size
    for p, v in fracs:
        values[p] = v.numerator * (modulus // v.denominator)
    return modulus, values


def zero_cochain(gpd: FiniteGroupoid, degree: int) -> Cochain:
    return _cochain(gpd, degree, 1, [0] * nerve_index(gpd, degree).size)


def group_cochain(group: FiniteGroup, degree: int, table) -> Cochain:
    """Cochain on the one-object groupoid of a group; keys are element
    tuples, which coincide with the groupoid's arrow indices."""
    return Cochain(point_groupoid(group), degree, table)


def random_cochain(gpd: FiniteGroupoid, degree: int, rng, denominator: int = 12) -> Cochain:
    """Seeded dense cochain; one draw per key in nerve order makes the result
    a pure function of the rng state."""
    size = nerve_index(gpd, degree).size
    return _cochain(gpd, degree, denominator, [rng.randrange(denominator) for _ in range(size)])


def delta(c: Cochain) -> Cochain:
    """Coboundary: alternating sum over the faces of each (k+1)-tuple,

        δc(t0..tk) = c(t1..tk) + Σ_{i=1..k} (-1)^i c(.., t_{i-1}t_i, ..)
                     + (-1)^(k+1) c(t0..t_{k-1}),

    and δc(a) = c(target a) - c(source a) in degree 0. On an action
    groupoid every degree is one sweep, a point at a time; other groupoids
    run the face loop over ``nerve``. Both write the tuples in ``nerve``
    order."""
    g = c.groupoid
    k = c.degree
    n = c.modulus
    v = c.values
    if k == 0:
        return _cochain(g, 1, n, [(v[y] - v[x]) % n for x, y in zip(g.source, g.target)])
    compose = g.compose
    out: List[int] = []
    if isinstance(compose, ActionCompose):
        # block x holds the tuples out of point x, |G| arrow blocks; face 0
        # reads the targets' blocks, face 1 the point's arrow blocks in the
        # order of the products, and the last face repeats each value |G| times
        m, act = compose.order, compose.act
        size = m**k
        first, later = _delta_faces(g, k)
        blocks = [v[i : i + size] for i in range(0, len(v), size)]
        arrows = [slice(i, i + size // m) for i in range(0, size, size // m)]
        chained = chain.from_iterable
        for block, row in zip(blocks, act):
            arrow_blocks = list(map(block.__getitem__, arrows))
            # faces 2 to k+1 with signs + - + ..., folded from the last
            rest = chained(map(repeat, block, repeat(m)))
            for get in reversed(later):
                rest = map(sub, chained(map(get, arrow_blocks)), rest)
            faces = zip(chained(map(blocks.__getitem__, row)), chained(first(arrow_blocks)), rest)
            part = [(a - b + r) % n for a, b, r in faces]
            # a one-point groupoid's part is the whole output: keep, not copy
            if out:
                out += part
            else:
                out = part
        return _cochain(g, k + 1, n, out)
    at = nerve_index(g, k).at
    for tup in nerve(g, k + 1):
        s = v[at(tup[1:])]
        sign = -1
        for i in range(k):
            s += sign * v[at(tup[:i] + (compose[tup[i], tup[i + 1]],) + tup[i + 2 :])]
            sign = -sign
        out.append((s + sign * v[at(tup[:-1])]) % n)
    return _cochain(g, k + 1, n, out)


def _delta_faces(gpd: FiniteGroupoid, k: int):
    """(first, later) for delta in degree k, cached per groupoid: face i
    merges digits i-1 and i of a tuple by their product. first picks face
    1's arrow blocks, later reads faces 2..k of one arrow's block."""
    key = ("delta faces", k)
    if key not in gpd.cache:
        m, mult = gpd.compose.order, gpd.compose.mult
        ints = list(range(m**k))
        products = [g for row in mult for g in row]

        def merged(digits: int, i: int):
            # a run of the digits after i per digits t before i-1 and product g
            low = m ** (digits - 1 - i)
            positions = tuple(chain.from_iterable(
                ints[(t * m + g) * low : (t * m + g + 1) * low]
                for t in range(m ** (i - 1))
                for g in products
            ))
            # one position (the trivial group): itemgetter returns it bare
            return itemgetter(*positions) if len(positions) > 1 else itemgetter(slice(0, 1))

        gpd.cache[key] = (merged(2, 1), [merged(k, i) for i in range(1, k)])
    return gpd.cache[key]


def cocycle(c: Cochain) -> Cocycle:
    """c as a Cocycle after one delta sweep; CocycleError names the first
    key, in nerve order, where the coboundary does not vanish."""
    if isinstance(c, Cocycle):
        return c
    key = delta(c).first_key()
    if key is not None:
        raise CocycleError(
            f"cocycle identity fails at ({','.join(map(str, key))})", key
        )
    return _cochain(c.groupoid, c.degree, c.modulus, c.values, cls=Cocycle)


def is_cocycle(c: Cochain) -> bool:
    """True for a Cocycle without a sweep; otherwise one delta sweep."""
    return isinstance(c, Cocycle) or delta(c).is_zero()


def pullback(h: GroupoidHom, c: Cochain) -> Cochain:
    """(h*c)(tuple) = c(image tuple). Degrees 0 to 2 read the images'
    positions from the hom's maps, for any source groupoid; higher degrees
    walk ``nerve``. Both write the tuples in ``nerve`` order."""
    if c.groupoid is not h.target:
        raise ValueError("cochain does not live on the hom's target groupoid")
    src = h.source
    k = c.degree
    v = c.values
    amap = h.arrow_map
    if k == 0:
        out = [v[y] for y in h.object_map]
    elif k == 1:
        out = [v[b] for b in amap]
    elif k == 2:
        # (t0, t1) reads position start[b0] + place[b1] of its image (b0, b1);
        # places[y] lists place[b1] over the arrows t1 out of object y
        index = nerve_index(h.target, 2)
        start, place = index.start, index.place
        places = [[place[amap[t]] for t in outs] for outs in src.out_arrows]
        out = []
        ext = out.extend
        for b0, y in zip(amap, src.target):
            s = start[b0]
            ext([v[s + p] for p in places[y]])
    else:
        at = nerve_index(h.target, k).at
        out = [v[at([amap[a] for a in tup])] for tup in nerve(src, k)]
    return _cochain(src, k, c.modulus, out)


def inverse_transgression(phi: Cochain, sectors: SectorGroupoid) -> Cochain:
    """Transgress a degree-(k+1) cochain on the base to a degree-k cochain
    on the loop groupoid.

    At a loop a with conjugators u_1..u_k the value is
        (-1)^k phi(a, u_1..u_k)
        + sum_i (-1)^(i+k) phi(u_1..u_i, a_i, u_(i+1)..u_k)
    where a_i is a dragged along u_1..u_i. Those dragged loops are exactly
    the loop labels of the objects along the conjugator path. The sweep is
    _insert_loops with one loop.
    """
    if sectors.k != 1:
        raise ValueError("transgression lands on the 1-sector groupoid")
    if phi.groupoid is not sectors.base:
        raise ValueError("cochain does not live on the sector base")
    if phi.degree < 1:
        raise ValueError("transgression needs degree at least 1")
    return _insert_loops(phi, sectors)


def product_homotopy(phi: Cochain, two_sectors: SectorGroupoid) -> Cochain:
    """Degree-(k+2) cochain on the base to degree-k on the 2-sectors.

    Double sum over insertion points 0 <= i <= j <= k with sign (-1)^(i+j),
    placing the first loop (dragged i steps) after u_i and the second loop
    (dragged j steps) after u_j; the (0,0) term is phi(a, b, u_1..u_k). The
    whole sum carries a global (-1)^k: that parity is forced by requiring
    the product identity
        delta(mu(phi)) + mu(delta(phi))
            = e1-pullback + e2-pullback - e12-pullback of the transgression
    to hold in every degree at once (without it the two sides differ by
    (-1)^k, so no fixed-sign variant works for both even and odd k).
    The sweep is _insert_loops with two loops.
    """
    if two_sectors.k != 2:
        raise ValueError("product homotopy lands on the 2-sector groupoid")
    if phi.groupoid is not two_sectors.base:
        raise ValueError("cochain does not live on the sector base")
    if phi.degree < 2:
        raise ValueError("product homotopy needs degree at least 2")
    return _insert_loops(phi, two_sectors)


def _insert_loops(phi: Cochain, sectors: SectorGroupoid) -> Cochain:
    """At loops l_1..l_r of the r = sectors.k sectors, with conjugators
    u_1..u_k, the value for phi of degree k + r on the base is

        (-1)^k Σ_{0 <= i_1 <= .. <= i_r <= k} (-1)^(i_1 + .. + i_r)
            phi(u_1..u_{i_1}, l_1 dragged i_1 steps, .., u_k),

    l_j as it is where the path is after u_{i_j}. A prefix (x_0, e_1..e_{k-1})
    is a row of |G| outputs, one per last conjugator e; a term reads it as
    a slice of phi or, if s of its loops follow e, through dragged[s-1].
    """
    gpd, r = sectors.groupoid, sectors.k
    m, act = gpd.compose.order, gpd.compose.act
    k, n, v = phi.degree - r, phi.modulus, phi.values
    if sectors.members != tuple(range(m)):
        # phi's keys name base arrows: renumber its digits by place
        digits = [[e * m**i for e in sectors.members] for i in reversed(range(phi.degree))]
        v = [v[p] for p in map(sum, itertools.product(*digits))]
    if k == 0:
        return _cochain(gpd, 0, n, v[:])
    key = ("dragged loops", r)
    if key not in gpd.cache:
        # dragged[s-1][x][e] = e*|G|^s + the number of the last s loops of
        # act[x][e], which are those of act[x mod |G|^s][e]: rows repeat
        rows = [
            [list(map(add, range(0, m ** (s + 1), m**s), act[x])) for x in range(m**s)]
            for s in range(1, r + 1)
        ]
        gpd.cache[key] = [[rs[x % len(rs)] for x in range(len(act))] for rs in rows]
    dragged = gpd.cache[key]
    # the terms by their loops' places, a term of sign + first to start the fold
    insertions = itertools.combinations_with_replacement(range(k + 1), r)
    terms = sorted(insertions, key=lambda ins: (k + sum(ins)) % 2)
    # per level j and term: the loops placed after u_j are y // dv % sc at
    # point y, and sc is their scale
    levels = [
        [(m ** ins.count(j), m ** (r - sum(i <= j for i in ins))) for ins in terms]
        for j in range(k)
    ]
    get, chained, every_row = v.__getitem__, chain.from_iterable, repeat(m)
    out: List[int] = []
    # depth first: the prefixes of level j below one prefix, given by the
    # terms' words so far and by the conjugators and points extending it
    stack = [([0] * len(terms), [0] * len(act), range(len(act)), 0)]
    while stack:
        prefix, es, ys, j = stack.pop()
        words = [
            [(b * m + e) * sc + y // dv % sc for e, y in zip(es, ys)]
            for b, (sc, dv) in zip(prefix, levels[j])
        ]
        if j < k - 1:
            for w, y in zip(reversed(list(zip(*words))), reversed(ys)):
                stack.append((w, range(m), act[y], j + 1))
            continue
        # these prefixes are rows: a term reads row i from starts[i] on
        acc = None
        for ins, w in zip(terms, words):
            s = ins.count(k)
            starts = [b * m ** (s + 1) for b in w]
            if s:
                at = chained(map(repeat, starts, every_row))
                col = map(get, map(add, at, chained(map(dragged[s - 1].__getitem__, ys))))
            else:
                col = chained(map(get, map(slice, starts, map(m.__add__, starts))))
            acc = col if acc is None else map(sub if (k + sum(ins)) % 2 else add, acc, col)
        out += [a % n for a in acc]
    return _cochain(gpd, k, n, out)


def product_identity_sides(
    th: Cochain, mu: Cochain, two: SectorGroupoid, mu_d: Optional[Cochain] = None
) -> Tuple[Cochain, Cochain]:
    """Both sides of the product identity
        delta(mu(phi)) + mu(delta(phi)) = e1*th + e2*th - e12*th
    for th the transgression of phi and mu = mu(phi) its product homotopy.
    mu_d is mu(delta(phi)); a closed phi has no such term.
    """
    lhs = delta(mu)
    if mu_d is not None:
        lhs = lhs + mu_d
    rhs = (
        pullback(evaluation_hom(two, "e1"), th)
        + pullback(evaluation_hom(two, "e2"), th)
        - pullback(evaluation_hom(two, "e12"), th)
    )
    return lhs, rhs


def unit_pullback_sides(
    th: Cochain, mu: Cochain, lam: SectorGroupoid, two: SectorGroupoid
) -> Tuple[Cochain, Cochain]:
    """Both sides of the unit pullback: for a closed phi, th pulled back to
    the identity loop is the coboundary of mu pulled back to the identity
    pair, so the identity sector carries a trivial class.
    """
    return pullback(lam.unit, th), delta(pullback(two.unit, mu))


def shuffle_transgression(
    group: FiniteGroup, phi: Cochain, g: int
) -> Tuple[Cochain, FiniteGroup, Tuple[int, ...]]:
    """Transgression at a single group element via the shuffle sum.

    Returns (cochain on the one-object groupoid of the centralizer of g,
    centralizer as a group, member list mapping its indices into the parent).
    The value at (g_1..g_k) is the signed sum over the k+1 ways to interleave
    g into the word, with sign (-1)^(k - insertion position).
    """
    if phi.groupoid is not point_groupoid(group):
        raise ValueError("shuffle transgression expects a cochain on the group groupoid")
    if phi.degree < 1:
        raise ValueError("transgression needs degree at least 1")
    zgrp, members = subgroup_as_group(centralizer(group, g))
    k = phi.degree - 1
    base = point_groupoid(zgrp)
    n = phi.modulus
    v = phi.values
    if k == 0:
        return _cochain(base, 0, n, [v[g]]), zgrp, members
    # phi lives on the one-object groupoid of the group: its key (b_0..b_k)
    # sits at the base-|G| number with those digits
    order = group.order
    out: List[int] = []
    for word in itertools.product(members, repeat=k):
        total = 0
        for pos in range(k + 1):
            p = 0
            for b in word[:pos] + (g,) + word[pos:]:
                p = p * order + b
            if (k - pos) % 2:
                total -= v[p]
            else:
                total += v[p]
        out.append(total % n)
    return _cochain(base, k, n, out), zgrp, members


def coboundary_solve(c: Cochain) -> Optional[Cochain]:
    """Exact witness b with delta(b) = c, or None when no such b exists.

    The witness may need finer denominators than the input (the circle group
    is divisible), so the system is solved over the rationals mod 1 via an
    integer Smith normal form, never over a fixed Z/N.
    """
    if c.degree < 1:
        raise ValueError("degree-0 cochains have no coboundary predecessors")
    if not is_cocycle(c):
        raise InconsistencyError("coboundary_solve requires a cocycle")
    g = c.groupoid
    k = c.degree
    unknowns = nerve_index(g, k - 1)
    n_cols = unknowns.size
    n_rows = nerve_size(g, k)
    if n_rows * n_cols > SOLVE_ENTRY_CAP:
        raise ValueError(f"solve would need a {n_rows} x {n_cols} system, over cap")

    # column p is the unknown at position p of the (k-1)-tuples, which in
    # degree 0 is object p
    at = unknowns.at
    rows: List[List[int]] = []
    for tup in nerve(g, k):
        row = [0] * n_cols
        if k == 1:
            row[g.target[tup[0]]] += 1
            row[g.source[tup[0]]] -= 1
        else:
            row[at(tup[1:])] += 1
            sign = -1
            for i in range(k - 1):
                merged = tup[:i] + (g.compose[(tup[i], tup[i + 1])],) + tup[i + 2 :]
                row[at(merged)] += sign
                sign = -sign
            row[at(tup[:-1])] += sign
        rows.append(row)
    rhs = [_angle(v, c.modulus) for v in c.values]

    sol = solve_mod1(rows, rhs)
    if sol is None:
        return None
    witness = _cochain(g, k - 1, *_integers(n_cols, enumerate(sol)))
    if delta(witness) != c:
        raise AssertionError("solver returned a non-witness; internal inconsistency")
    return witness


# cup products of half-valued characters, and the mod-2 polynomial toolkit


def cup_one_cochains(group: FiniteGroup, fs: Sequence[Sequence[Fraction]]) -> Cochain:
    """Cup product of half-valued homomorphisms: the value at (g_1..g_d) is
    1/2 when every f_i(g_i) is 1/2, else 0."""
    if not fs:
        raise ValueError("need at least one 1-cochain")
    for idx, f in enumerate(fs):
        if len(f) != group.order:
            raise ValueError(f"cochain {idx} has wrong length")
        for v in f:
            if Fraction(v) % 1 not in (ZERO, HALF):
                raise ValueError(f"cochain {idx} takes a value outside {{0, 1/2}}")
        for a in group.elements():
            for b in group.elements():
                if (Fraction(f[group.mul(a, b)]) - f[a] - f[b]) % 1:
                    raise ValueError(
                        f"cochain {idx} is not a homomorphism at ({a},{b})"
                    )
    d = len(fs)
    table: Dict[Tuple[int, ...], Fraction] = {}
    supports = [[g for g in group.elements() if Fraction(f[g]) % 1 == HALF] for f in fs]
    for tup in itertools.product(*supports):
        table[tup] = HALF
    return Cochain(point_groupoid(group), d, table)


def dual_cochains(group: FiniteGroup, n: int) -> List[List[Fraction]]:
    """Digit duals of an elementary abelian 2-group in its index encoding."""
    if group.order != 2**n:
        raise ValueError("group order does not match the variable count")
    out = []
    for i in range(n):
        out.append([HALF * ((g >> i) & 1) for g in group.elements()])
    return out


@dataclass(frozen=True)
class Poly2:
    """Polynomial over F2: a set of exponent tuples, one per monomial."""

    n: int
    terms: frozenset

    def degree_set(self) -> set:
        return {sum(t) for t in self.terms}

    def __add__(self, other: "Poly2") -> "Poly2":
        if self.n != other.n:
            raise ValueError("variable counts differ")
        return Poly2(self.n, self.terms ^ other.terms)

    def is_zero(self) -> bool:
        return not self.terms


VAR_NAMES = "xyzwvu"


def parse_poly(spec: str, n_vars: Optional[int] = None) -> Poly2:
    """Mini-grammar: monomials juxtapose variable letters with optional
    exponent digits, '|' separates summands, e.g. "x2yz|xy2z|xyz2"."""
    max_var = -1
    monomials = []
    for chunk in spec.split("|"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty monomial in polynomial spec")
        exps: Dict[int, int] = {}
        i = 0
        while i < len(chunk):
            ch = chunk[i]
            if ch not in VAR_NAMES:
                raise ValueError(f"unknown variable {ch!r} in {chunk!r}")
            var = VAR_NAMES.index(ch)
            i += 1
            num = ""
            while i < len(chunk) and chunk[i].isdigit():
                num += chunk[i]
                i += 1
            e = int(num) if num else 1
            if e < 1:
                raise ValueError(f"exponent must be positive in {chunk!r}")
            exps[var] = exps.get(var, 0) + e
            max_var = max(max_var, var)
        monomials.append(exps)
    if max_var < 0:
        raise ValueError("empty polynomial spec")
    n = n_vars if n_vars is not None else max_var + 1
    if max_var >= n:
        raise ValueError("polynomial uses more variables than provided")
    terms: set = set()
    for exps in monomials:
        key = tuple(exps.get(i, 0) for i in range(n))
        terms ^= {key}
    return Poly2(n, frozenset(terms))


def sq1(p: Poly2) -> Poly2:
    """The squaring derivation on mod-2 polynomials: x_i maps to x_i^2,
    extended by the Leibniz rule."""
    terms: set = set()
    for t in p.terms:
        for i, e in enumerate(t):
            if e % 2:
                bumped = t[:i] + (e + 1,) + t[i + 1 :]
                terms ^= {bumped}
    return Poly2(p.n, frozenset(terms))


def _monomials(n: int, degree: int) -> List[Tuple[int, ...]]:
    if n == 1:
        return [(degree,)]
    out = []
    for e in range(degree + 1):
        for rest in _monomials(n - 1, degree - e):
            out.append((e,) + rest)
    return sorted(out)


def sq1_preimage(p: Poly2) -> Optional[Poly2]:
    """A polynomial q with sq1(q) = p, or None. Solved by F2 elimination
    over the monomial bases of the two degrees."""
    degs = p.degree_set()
    if not degs:
        return Poly2(p.n, frozenset())
    if len(degs) != 1:
        raise ValueError("preimage lookup expects a homogeneous polynomial")
    d = degs.pop()
    if d < 1:
        return None
    basis = _monomials(p.n, d - 1)
    target_space = {m: i for i, m in enumerate(_monomials(p.n, d))}
    cols = []
    for m in basis:
        vec = 0
        for t in sq1(Poly2(p.n, frozenset({m}))).terms:
            vec ^= 1 << target_space[t]
        cols.append(vec)
    want = 0
    for t in p.terms:
        want ^= 1 << target_space[t]

    # Gaussian elimination on column vectors packed as bitmasks
    pivots: List[Tuple[int, int, int]] = []  # (pivot bit, column vec, combo mask)
    combos = [1 << i for i in range(len(basis))]
    reduced = []
    for ci, vec in enumerate(cols):
        combo = combos[ci]
        for bit, pvec, pcombo in pivots:
            if vec >> bit & 1:
                vec ^= pvec
                combo ^= pcombo
        if vec:
            pivots.append((vec.bit_length() - 1, vec, combo))
    combo = 0
    for bit, pvec, pcombo in pivots:
        if want >> bit & 1:
            want ^= pvec
            combo ^= pcombo
    if want:
        return None
    terms: set = set()
    for i, m in enumerate(basis):
        if combo >> i & 1:
            terms.add(m)
    return Poly2(p.n, frozenset(terms))


def poly_to_cocycle(p: Poly2, group: FiniteGroup) -> Cochain:
    """Realize a homogeneous mod-2 polynomial class on an elementary abelian
    2-group as a halved cup-product cocycle.

    Each monomial becomes a cup product of digit duals, one factor per
    exponent unit, ordered by variable index."""
    degs = p.degree_set()
    if len(degs) != 1:
        raise ValueError("need a nonzero homogeneous polynomial")
    d = degs.pop()
    duals = dual_cochains(group, p.n)
    gpd = point_groupoid(group)
    acc = zero_cochain(gpd, d)
    for t in sorted(p.terms):
        factors = []
        for i, e in enumerate(t):
            factors.extend([duals[i]] * e)
        acc = acc + cup_one_cochains(group, factors)
    return acc


def bockstein_lift(p: Poly2, group: FiniteGroup) -> Cochain:
    """Degree-3 circle-valued cocycle carrying a mod-2 class.

    Degree-3 polynomials lift directly as halved cups; degree-4 polynomials
    are first pulled back through the squaring derivation, realizing the
    integral class with the matching mod-2 reduction.
    """
    degs = p.degree_set()
    if degs == {3}:
        return poly_to_cocycle(p, group)
    if degs == {4}:
        q = sq1_preimage(p)
        if q is None:
            raise ValueError("polynomial is not in the image of the squaring derivation")
        return poly_to_cocycle(q, group)
    raise ValueError("lift implemented for homogeneous degree 3 and 4 only")


def commutator_pairing(group: FiniteGroup, tau: Cochain) -> Dict[Tuple[int, int], Fraction]:
    """Antisymmetrized values of a 2-cocycle on an abelian group.

    The table is unchanged under coboundary shifts, so it fingerprints the
    cohomology class.
    """
    if not group.is_abelian():
        raise ValueError("commutator pairing needs an abelian group")
    if tau.groupoid is not point_groupoid(group) or tau.degree != 2:
        raise ValueError("expected a degree-2 cochain on the group groupoid")
    if not is_cocycle(tau):
        raise ValueError("commutator pairing needs a cocycle")
    n, v, order = tau.modulus, tau.values, group.order
    out = {}
    for g in group.elements():
        for h in group.elements():
            out[(g, h)] = Fraction((v[g * order + h] - v[h * order + g]) % n, n)
    return out


# flat file format: "degree k" header, then one line per nonzero entry with
# the key indices followed by the value as p/q


def write_cochain(c: Cochain) -> List[str]:
    lines = [f"degree {c.degree}"]
    for key, raw in c.table.items():
        v = _angle(raw, c.modulus)
        head = " ".join(str(i) for i in key)
        lines.append(f"{head} {v.numerator}/{v.denominator}".strip())
    return lines


def _int_field(tok: str, ln: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"non-integer field {tok!r} in {ln!r}") from None


def read_cochain(lines: Iterable[str], gpd: FiniteGroupoid) -> Cochain:
    rows = [ln.strip() for ln in lines]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    if not rows or not rows[0].startswith("degree"):
        raise ValueError("cochain file must start with a degree header")
    parts = rows[0].split()
    if len(parts) != 2:
        raise ValueError(f"malformed degree header {rows[0]!r}")
    degree = _int_field(parts[1], rows[0])
    if degree < 0:
        raise ValueError(f"negative degree in {rows[0]!r}")
    index = nerve_index(gpd, degree)
    table: Dict[Tuple[int, ...], Fraction] = {}
    want = max(degree, 1) + 1
    for ln in rows[1:]:
        toks = ln.split()
        if len(toks) != want:
            raise ValueError(f"expected {want} fields, got {ln!r}")
        key = tuple(_int_field(t, ln) for t in toks[:-1])
        if "/" not in toks[-1]:
            raise ValueError(f"value must be p/q, got {toks[-1]!r}")
        num, den = (_int_field(t, ln) for t in toks[-1].split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in {ln!r}")
        try:
            index.position(key)
        except ValueError as e:
            raise ValueError(f"{e} in {ln!r}") from None
        if key in table:
            raise ValueError(f"duplicate key in {ln!r}")
        table[key] = Fraction(num, den)
    return Cochain(gpd, degree, table)
