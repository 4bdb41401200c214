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
    groupoid, degrees 1, 2 and 3 sweep the nerve as nested loops that read
    each face from a row of |G| consecutive values; other groupoids and
    higher degrees run the generic face loop over ``nerve``. Both write the
    tuples in ``nerve`` order."""
    g = c.groupoid
    k = c.degree
    n = c.modulus
    v = c.values
    if k == 0:
        return _cochain(g, 1, n, [(v[y] - v[x]) % n for x, y in zip(g.source, g.target)])
    compose, target = g.compose, g.target
    out: List[int] = []
    ext = out.extend
    if isinstance(compose, ActionCompose) and k <= 3:
        # arrow t = x*m + e runs from point x with group element e, and then
        # an arrow with element f composes to x*m + mult[e][f]. Positions
        # depend on the first arrow and the later elements only, so the
        # k-tuples that share all but their last arrow fill one row of m
        # values, indexed by its element; rows[q] is the q-th such row
        m, mult = compose.order, compose.mult
        rows = [v[i : i + m] for i in range(0, len(v), m)]
        if k == 1:
            # c(t1) - c(t0 t1) + c(t0)
            for t0, y in enumerate(target):
                e0 = t0 % m
                r0 = rows[t0 // m]
                c0 = r0[e0]
                ext([(a - r0[f] + c0) % n for a, f in zip(rows[y], mult[e0])])
            return _cochain(g, 2, n, out)
        if k == 2:
            # c(t1, t2) - c(t0 t1, t2) + c(t0, t1 t2) - c(t0, t1)
            for t0, y in enumerate(target):
                off0, m0 = t0 - t0 % m, mult[t0 % m]
                r0 = rows[t0]
                for e1, t1 in enumerate(range(y * m, y * m + m)):
                    c01 = r0[e1]
                    ext([
                        (a - b + r0[f] - c01) % n
                        for a, b, f in zip(rows[t1], rows[off0 + m0[e1]], mult[e1])
                    ])
            return _cochain(g, 3, n, out)
        # k == 3: c(t1, t2, t3) - c(t0 t1, t2, t3) + c(t0, t1 t2, t3)
        #         - c(t0, t1, t2 t3) + c(t0, t1, t2)
        for t0, y in enumerate(target):
            off0, m0 = t0 - t0 % m, mult[t0 % m]
            b0 = t0 * m
            for e1, t1 in enumerate(range(y * m, y * m + m)):
                m1, r01 = mult[e1], rows[b0 + e1]
                b1, b01 = t1 * m, (off0 + m0[e1]) * m
                for e2, c012 in enumerate(r01):
                    ext([
                        (a - b + c - r01[f] + c012) % n
                        for a, b, c, f in zip(
                            rows[b1 + e2], rows[b01 + e2], rows[b0 + m1[e2]], mult[e2]
                        )
                    ])
        return _cochain(g, 4, n, out)
    at = nerve_index(g, k).at
    for tup in nerve(g, k + 1):
        s = v[at(tup[1:])]
        sign = -1
        for i in range(k):
            s += sign * v[at(tup[:i] + (compose[tup[i], tup[i + 1]],) + tup[i + 2 :])]
            sign = -sign
        out.append((s + sign * v[at(tup[:-1])]) % n)
    return _cochain(g, k + 1, n, out)


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
    the loop labels of the objects along the conjugator path. For k = 1 and
    2 the action groupoid is swept as nested loops, each loop label, target
    and value position found by index arithmetic; higher k walks ``nerve``.
    Both write the tuples in ``nerve`` order.
    """
    if sectors.k != 1:
        raise ValueError("transgression lands on the 1-sector groupoid")
    if phi.groupoid is not sectors.base:
        raise ValueError("cochain does not live on the sector base")
    if phi.degree < 1:
        raise ValueError("transgression needs degree at least 1")
    k = phi.degree - 1
    lam = sectors.groupoid
    n = phi.modulus
    v = phi.values
    # loop[x] is the loop label of point x; the base has one object, so
    # phi's key (b_0..b_j) sits at the base-|G| number with those digits
    loop = [a for _, (a,) in sectors.objects]
    if k == 0:
        return _cochain(lam, 0, n, [v[a] for a in loop])
    compose = lam.compose
    out: List[int] = []
    if isinstance(compose, ActionCompose) and k <= 2:
        # arrow x*order + e runs from point x to act[x][e] and conjugates by
        # members[e]; drag[x][e] = u*order + loop label of that target
        order, act = compose.order, compose.act
        members = sectors.members
        drag = [[u * order + loop[y] for u, y in zip(members, row)] for row in act]
        ext = out.extend
        if k == 1:
            # phi(u, a1) - phi(a0, u)
            for x0, a0 in enumerate(loop):
                r0 = v[a0 * order : a0 * order + order]
                ext([(v[q] - r0[u]) % n for u, q in zip(members, drag[x0])])
            return _cochain(lam, 1, n, out)
        # phi(a0, u1, u2) - phi(u1, a1, u2) + phi(u1, u2, a2)
        sq = order * order
        for a0, row in zip(loop, act):
            for u1, x1 in zip(members, row):
                p0, p1, b2 = a0 * sq + u1 * order, u1 * sq + loop[x1] * order, u1 * sq
                r0, r1 = v[p0 : p0 + order], v[p1 : p1 + order]
                ext([
                    (r0[u2] - r1[u2] + v[b2 + q]) % n
                    for u2, q in zip(members, drag[x1])
                ])
        return _cochain(lam, 2, n, out)
    at = nerve_index(sectors.base, k + 1).at
    lead_sign = 1 if k % 2 == 0 else -1
    order, members, target = len(sectors.members), sectors.members, lam.target
    for tup in nerve(lam, k):
        a0 = loop[tup[0] // order]
        us = tuple(members[t % order] for t in tup)
        dragged = tuple(loop[target[t]] for t in tup)
        total = lead_sign * v[at((a0,) + us)]
        s = lead_sign
        for i in range(1, k + 1):
            s = -s
            total += s * v[at(us[:i] + (dragged[i - 1],) + us[i:])]
        out.append(total % n)
    return _cochain(lam, k, n, out)


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
    For k = 1 and 2 the sum is unrolled over nested loops on the action
    groupoid, as in inverse_transgression; higher k walks ``nerve``.
    """
    if two_sectors.k != 2:
        raise ValueError("product homotopy lands on the 2-sector groupoid")
    if phi.groupoid is not two_sectors.base:
        raise ValueError("cochain does not live on the sector base")
    if phi.degree < 2:
        raise ValueError("product homotopy needs degree at least 2")
    k = phi.degree - 2
    gpd2 = two_sectors.groupoid
    parity = -1 if k % 2 else 1
    n = phi.modulus
    v = phi.values
    # positions of phi's keys are base-|G| numbers, as in
    # inverse_transgression; pair[x] is that of point x's loop pair (a, b)
    order = two_sectors.base.n_arrows
    first = [a for _, (a, _) in two_sectors.objects]
    second = [b for _, (_, b) in two_sectors.objects]
    pair = [a * order + b for a, b in zip(first, second)]
    if k == 0:
        return _cochain(gpd2, 0, n, [v[p] for p in pair])
    compose = gpd2.compose
    out: List[int] = []
    if isinstance(compose, ActionCompose) and k <= 2:
        # with u = members[e] and y = act[x][e]: near[x][e] = u*order + b(y)
        # and far[x][e] = u*order^2 + pair[y]
        act = compose.act
        members = two_sectors.members
        sq, cube = order * order, order**3
        near = [[u * order + second[y] for u, y in zip(members, row)] for row in act]
        far = [[u * sq + pair[y] for u, y in zip(members, row)] for row in act]
        ext = out.extend
        if k == 1:
            # -(phi(a, b, u) - phi(a, u, b1) + phi(u, a1, b1))
            for x0, (a, p) in enumerate(zip(first, pair)):
                rab, asq = v[p * order : p * order + order], a * sq
                ext([
                    -(rab[u] - v[asq + q] + v[f]) % n
                    for u, q, f in zip(members, near[x0], far[x0])
                ])
            return _cochain(gpd2, 1, n, out)
        # the six (i, j) terms of the double sum, in its order
        for x0, row in enumerate(act):
            a0c, p0 = first[x0] * cube, pair[x0] * sq
            for u1, x1 in zip(members, row):
                s1 = p0 + u1 * order
                s2 = a0c + u1 * sq + second[x1] * order
                s4 = u1 * cube + pair[x1] * order
                b3, b5, b6 = a0c + u1 * sq, u1 * cube + first[x1] * sq, u1 * cube
                r1, r2, r4 = v[s1 : s1 + order], v[s2 : s2 + order], v[s4 : s4 + order]
                ext([
                    (r1[u2] - r2[u2] + v[b3 + q] + r4[u2] - v[b5 + q] + v[b6 + f]) % n
                    for u2, q, f in zip(members, near[x1], far[x1])
                ])
        return _cochain(gpd2, 2, n, out)
    at = nerve_index(two_sectors.base, k + 2).at
    members, target = two_sectors.members, gpd2.target
    for tup in nerve(gpd2, k):
        us = tuple(members[t % order] for t in tup)
        # the loop pair at the source of tup[0], then at each arrow's target
        xs = [tup[0] // order] + [target[t] for t in tup]
        a_at = [first[x] for x in xs]
        b_at = [second[x] for x in xs]
        total = 0
        for i in range(k + 1):
            for j in range(i, k + 1):
                key = us[:i] + (a_at[i],) + us[i:j] + (b_at[j],) + us[j:]
                if (i + j) % 2:
                    total -= v[at(key)]
                else:
                    total += v[at(key)]
        out.append(parity * total % n)
    return _cochain(gpd2, k, n, out)


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
