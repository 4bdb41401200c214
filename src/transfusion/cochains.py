"""Circle-valued cochains on finite groupoids, written additively in Q/Z.

A degree-k cochain assigns a rational-mod-1 value to every composable
k-tuple of arrows (degree 0: to every object). Everything is exact: a
cochain stores one modulus N and an integer in 1..N-1 for each nonzero
value, standing for that integer over N mod 1, and all identities are
tested with literal equality. Fractions appear only at the boundaries:
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


class Cochain:
    """Sparse table from key tuples to Q/Z values; absent keys read as 0.

    Keys are tuples of arrow indices; degree-0 keys are 1-tuples holding an
    object index instead. table[key] is an integer v in 1..modulus-1 and
    stands for v/modulus mod 1. The constructor takes any rational values
    and picks the lcm of their reduced denominators as the modulus.
    """

    __slots__ = ("groupoid", "degree", "modulus", "table")

    def __init__(self, groupoid: FiniteGroupoid, degree: int, table=None):
        if degree < 0:
            raise ValueError("cochain degree must be nonnegative")
        fracs: Dict[Tuple[int, ...], Fraction] = {}
        modulus = 1
        for key, raw in (table or {}).items():
            v = Fraction(raw) % 1
            if v:
                fracs[tuple(key)] = v
                modulus = math.lcm(modulus, v.denominator)
        self.groupoid = groupoid
        self.degree = degree
        self.modulus = modulus
        self.table = {
            k: v.numerator * (modulus // v.denominator) for k, v in fracs.items()
        }

    def value(self, key: Sequence[int]) -> Fraction:
        v = self.table.get(tuple(key))
        return _angle(v, self.modulus) if v else ZERO

    def is_zero(self) -> bool:
        return not self.table

    def _at(self, modulus: int) -> Dict[Tuple[int, ...], int]:
        """The integer table over a multiple of the modulus."""
        if modulus == self.modulus:
            return self.table
        f = modulus // self.modulus
        return {k: v * f for k, v in self.table.items()}

    def _binop(self, other: "Cochain", flip: bool) -> "Cochain":
        if not isinstance(other, Cochain):
            return NotImplemented
        if other.groupoid is not self.groupoid or other.degree != self.degree:
            raise ValueError("cochain mismatch: different groupoid or degree")
        n = math.lcm(self.modulus, other.modulus)
        out = dict(self._at(n))
        for k, v in other._at(n).items():
            s = (out.get(k, 0) + (-v if flip else v)) % n
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return _cochain(self.groupoid, self.degree, n, out)

    def __add__(self, other):
        return self._binop(other, flip=False)

    def __sub__(self, other):
        return self._binop(other, flip=True)

    def __neg__(self):
        n = self.modulus
        return _cochain(
            self.groupoid, self.degree, n, {k: n - v for k, v in self.table.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        if other.groupoid is not self.groupoid or other.degree != self.degree:
            return False
        n = math.lcm(self.modulus, other.modulus)
        return self._at(n) == other._at(n)

    __hash__ = None

    def __repr__(self):
        return f"{type(self).__name__}(degree={self.degree}, support={len(self.table)})"


class Cocycle(Cochain):
    """A cochain whose coboundary one delta sweep found to vanish.

    Only cocycle() makes one; functions that need a closed input skip their
    own sweep when handed one. Arithmetic on cocycles returns plain cochains.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        raise TypeError("a Cocycle comes from cochains.cocycle(c)")


def _cochain(
    groupoid: FiniteGroupoid, degree: int, modulus: int, table, cls=Cochain
) -> Cochain:
    """Wrap an integer table whose values already lie in 1..modulus-1."""
    c = object.__new__(cls)
    c.groupoid = groupoid
    c.degree = degree
    c.modulus = modulus
    c.table = table
    return c


def zero_cochain(gpd: FiniteGroupoid, degree: int) -> Cochain:
    return Cochain(gpd, degree, {})


def group_cochain(group: FiniteGroup, degree: int, table) -> Cochain:
    """Cochain on the one-object groupoid of a group; keys are element
    tuples, which coincide with the groupoid's arrow indices."""
    return Cochain(point_groupoid(group), degree, table)


def random_cochain(gpd: FiniteGroupoid, degree: int, rng, denominator: int = 12) -> Cochain:
    """Seeded dense cochain; the lexicographic fill order makes the result a
    pure function of the rng state."""
    keys = [(x,) for x in range(gpd.n_objects)] if degree == 0 else nerve(gpd, degree)
    table: Dict[Tuple[int, ...], int] = {}
    for key in keys:
        v = rng.randrange(denominator)
        if v:
            table[key] = v
    return _cochain(gpd, degree, denominator, table)


def delta(c: Cochain) -> Cochain:
    """Coboundary: alternating sum over the faces of each (k+1)-tuple,

        δc(t0..tk) = c(t1..tk) + Σ_{i=1..k} (-1)^i c(.., t_{i-1}t_i, ..)
                     + (-1)^(k+1) c(t0..t_{k-1}),

    and δc(a) = c(target a) - c(source a) in degree 0. On an action
    groupoid, degrees 1, 2 and 3 sweep the nerve as nested loops, each
    composite read from the group table and each face value taken in the
    outermost loop that fixes it; other groupoids and higher degrees run
    the generic face loop. All of them visit the tuples in ``nerve`` order."""
    g = c.groupoid
    k = c.degree
    n = c.modulus
    get = c.table.get
    out: Dict[Tuple[int, ...], int] = {}
    if k == 0:
        for a in range(g.n_arrows):
            v = (get((g.target[a],), 0) - get((g.source[a],), 0)) % n
            if v:
                out[(a,)] = v
        return _cochain(g, 1, n, out)
    compose, out_arrows, target = g.compose, g.out_arrows, g.target
    if isinstance(compose, ActionCompose) and k <= 3:
        # arrow off + e, with off the first arrow at its source and e its
        # group element, then any arrow out of its target with element f:
        # the composite is off + mult[e][f]
        order, mult = compose.order, compose.mult
        if k == 1:
            for t0 in range(g.n_arrows):
                e0 = t0 % order
                off0 = t0 - e0
                c0 = get((t0,), 0)
                for t1, m01 in zip(out_arrows[target[t0]], mult[e0]):
                    v = (get((t1,), 0) - get((off0 + m01,), 0) + c0) % n
                    if v:
                        out[t0, t1] = v
            return _cochain(g, 2, n, out)
        if k == 2:
            for t0 in range(g.n_arrows):
                e0 = t0 % order
                off0, m0 = t0 - e0, mult[e0]
                out1 = out_arrows[target[t0]]
                off1 = out1[0]
                for e1, t1 in enumerate(out1):
                    t01 = off0 + m0[e1]
                    c01 = get((t0, t1), 0)
                    for t2, m12 in zip(out_arrows[target[t1]], mult[e1]):
                        v = (
                            get((t1, t2), 0)
                            - get((t01, t2), 0)
                            + get((t0, off1 + m12), 0)
                            - c01
                        ) % n
                        if v:
                            out[t0, t1, t2] = v
            return _cochain(g, 3, n, out)
        # k == 3
        for t0 in range(g.n_arrows):
            e0 = t0 % order
            off0, m0 = t0 - e0, mult[e0]
            out1 = out_arrows[target[t0]]
            off1 = out1[0]
            for e1, t1 in enumerate(out1):
                t01 = off0 + m0[e1]
                m1 = mult[e1]
                out2 = out_arrows[target[t1]]
                off2 = out2[0]
                for e2, t2 in enumerate(out2):
                    t12 = off1 + m1[e2]
                    c012 = get((t0, t1, t2), 0)
                    for t3, m23 in zip(out_arrows[target[t2]], mult[e2]):
                        v = (
                            get((t1, t2, t3), 0)
                            - get((t01, t2, t3), 0)
                            + get((t0, t12, t3), 0)
                            - get((t0, t1, off2 + m23), 0)
                            + c012
                        ) % n
                        if v:
                            out[t0, t1, t2, t3] = v
        return _cochain(g, 4, n, out)
    for tup in nerve(g, k + 1):
        v = get(tup[1:], 0)
        sign = -1
        for i in range(k):
            merged = tup[:i] + (compose[tup[i], tup[i + 1]],) + tup[i + 2 :]
            v += sign * get(merged, 0)
            sign = -sign
        v = (v + sign * get(tup[:-1], 0)) % n
        if v:
            out[tup] = v
    return _cochain(g, k + 1, n, out)


def cocycle(c: Cochain) -> Cocycle:
    """c as a Cocycle after one delta sweep; CocycleError names the first
    key, in nerve order, where the coboundary does not vanish."""
    if isinstance(c, Cocycle):
        return c
    d = delta(c)
    if not d.is_zero():
        key = min(d.table)
        raise CocycleError(
            f"cocycle identity fails at ({','.join(map(str, key))})", key
        )
    return _cochain(c.groupoid, c.degree, c.modulus, c.table, cls=Cocycle)


def is_cocycle(c: Cochain) -> bool:
    """True for a Cocycle without a sweep; otherwise one delta sweep."""
    return isinstance(c, Cocycle) or delta(c).is_zero()


def pullback(h: GroupoidHom, c: Cochain) -> Cochain:
    """(h*c)(tuple) = c(image tuple). Degrees 1 and 2 sweep the source's
    arrows, and composable pairs, as nested loops; higher degrees walk
    ``nerve``. Both visit the tuples in ``nerve`` order."""
    if c.groupoid is not h.target:
        raise ValueError("cochain does not live on the hom's target groupoid")
    src = h.source
    k = c.degree
    get = c.table.get
    table: Dict[Tuple[int, ...], int] = {}
    if k == 0:
        for x in range(src.n_objects):
            v = get((h.object_map[x],))
            if v:
                table[(x,)] = v
    elif k == 1:
        for t, b in enumerate(h.arrow_map):
            v = get((b,))
            if v:
                table[(t,)] = v
    elif k == 2:
        # the degree-2 nerve inlined, so any source groupoid takes this path
        amap, out_arrows, target = h.arrow_map, src.out_arrows, src.target
        for t0, b0 in enumerate(amap):
            for t1 in out_arrows[target[t0]]:
                v = get((b0, amap[t1]))
                if v:
                    table[t0, t1] = v
    else:
        amap = h.arrow_map
        for tup in nerve(src, k):
            v = get(tuple([amap[a] for a in tup]))
            if v:
                table[tup] = v
    return _cochain(src, k, c.modulus, table)


def inverse_transgression(phi: Cochain, sectors: SectorGroupoid) -> Cochain:
    """Transgress a degree-(k+1) cochain on the base to a degree-k cochain
    on the loop groupoid.

    At a loop a with conjugators u_1..u_k the value is
        (-1)^k phi(a, u_1..u_k)
        + sum_i (-1)^(i+k) phi(u_1..u_i, a_i, u_(i+1)..u_k)
    where a_i is a dragged along u_1..u_i. Those dragged loops are exactly
    the loop labels of the objects along the conjugator path. For k = 1 and
    2 the action groupoid is swept as nested loops, each loop label and
    target read by index arithmetic; higher k walks ``nerve``. Both visit
    the tuples in ``nerve`` order.
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
    get = phi.table.get
    out: Dict[Tuple[int, ...], int] = {}
    if k == 0:
        for i, (_, (a,)) in enumerate(sectors.objects):
            v = get((a,))
            if v:
                out[(i,)] = v
        return _cochain(lam, 0, n, out)
    compose = lam.compose
    if isinstance(compose, ActionCompose) and k <= 2:
        # arrow x*order + e runs from point x to act[x][e] and conjugates by
        # members[e]; loop[x] is the loop label of point x
        order, act = compose.order, compose.act
        loop = [a for _, (a,) in sectors.objects]
        members = [b for _, b in sectors.arrows[:order]]
        if k == 1:
            for x0, row in enumerate(act):
                a0, off0 = loop[x0], x0 * order
                for e, (u, x1) in enumerate(zip(members, row)):
                    v = (get((u, loop[x1]), 0) - get((a0, u), 0)) % n
                    if v:
                        out[(off0 + e,)] = v
            return _cochain(lam, 1, n, out)
        for x0, row in enumerate(act):
            a0, off0 = loop[x0], x0 * order
            for e1, (u1, x1) in enumerate(zip(members, row)):
                a1, off1, t0 = loop[x1], x1 * order, off0 + e1
                for e2, (u2, x2) in enumerate(zip(members, act[x1])):
                    v = (
                        get((a0, u1, u2), 0)
                        - get((u1, a1, u2), 0)
                        + get((u1, u2, loop[x2]), 0)
                    ) % n
                    if v:
                        out[t0, off1 + e2] = v
        return _cochain(lam, 2, n, out)
    lead_sign = 1 if k % 2 == 0 else -1
    for tup in nerve(lam, k):
        obj0 = sectors.arrows[tup[0]][0]
        a0 = sectors.objects[obj0][1][0]
        us = tuple(sectors.arrows[t][1] for t in tup)
        dragged = tuple(
            sectors.objects[lam.target[t]][1][0] for t in tup
        )
        total = lead_sign * get((a0,) + us, 0)
        s = lead_sign
        for i in range(1, k + 1):
            s = -s
            total += s * get(us[:i] + (dragged[i - 1],) + us[i:], 0)
        total %= n
        if total:
            out[tup] = total
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
    get = phi.table.get
    out: Dict[Tuple[int, ...], int] = {}
    if k == 0:
        for i, (_, (a, b)) in enumerate(two_sectors.objects):
            v = get((a, b))
            if v:
                out[(i,)] = v
        return _cochain(gpd2, 0, n, out)
    compose = gpd2.compose
    if isinstance(compose, ActionCompose) and k <= 2:
        # as in inverse_transgression, with (a, b) the loop pair of a point
        order, act = compose.order, compose.act
        loops = [ab for _, ab in two_sectors.objects]
        members = [v for _, v in two_sectors.arrows[:order]]
        if k == 1:
            for x0, row in enumerate(act):
                a, b = loops[x0]
                off0 = x0 * order
                for e, (u, x1) in enumerate(zip(members, row)):
                    a1, b1 = loops[x1]
                    v = -(
                        get((a, b, u), 0) - get((a, u, b1), 0) + get((u, a1, b1), 0)
                    ) % n
                    if v:
                        out[(off0 + e,)] = v
            return _cochain(gpd2, 1, n, out)
        # the six (i, j) terms of the double sum, in its order
        for x0, row in enumerate(act):
            a0, b0 = loops[x0]
            off0 = x0 * order
            for e1, (u1, x1) in enumerate(zip(members, row)):
                a1, b1 = loops[x1]
                off1, t0 = x1 * order, off0 + e1
                for e2, (u2, x2) in enumerate(zip(members, act[x1])):
                    a2, b2 = loops[x2]
                    v = (
                        get((a0, b0, u1, u2), 0)
                        - get((a0, u1, b1, u2), 0)
                        + get((a0, u1, u2, b2), 0)
                        + get((u1, a1, b1, u2), 0)
                        - get((u1, a1, u2, b2), 0)
                        + get((u1, u2, a2, b2), 0)
                    ) % n
                    if v:
                        out[t0, off1 + e2] = v
        return _cochain(gpd2, 2, n, out)
    for tup in nerve(gpd2, k):
        obj0 = two_sectors.arrows[tup[0]][0]
        us = tuple(two_sectors.arrows[t][1] for t in tup)
        a_at = [two_sectors.objects[obj0][1][0]]
        b_at = [two_sectors.objects[obj0][1][1]]
        for t in tup:
            _, (aj, bj) = two_sectors.objects[gpd2.target[t]]
            a_at.append(aj)
            b_at.append(bj)
        total = 0
        for i in range(k + 1):
            for j in range(i, k + 1):
                key = us[:i] + (a_at[i],) + us[i:j] + (b_at[j],) + us[j:]
                if (i + j) % 2:
                    total -= get(key, 0)
                else:
                    total += get(key, 0)
        total = parity * total % n
        if total:
            out[tup] = total
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
    get = phi.table.get
    out: Dict[Tuple[int, ...], int] = {}
    if k == 0:
        v = get((g,))
        if v:
            out[(0,)] = v
        return _cochain(base, 0, n, out), zgrp, members
    for tup in itertools.product(range(zgrp.order), repeat=k):
        word = tuple(members[t] for t in tup)
        total = 0
        for pos in range(k + 1):
            key = word[:pos] + (g,) + word[pos:]
            if (k - pos) % 2:
                total -= get(key, 0)
            else:
                total += get(key, 0)
        total %= n
        if total:
            out[tup] = total
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
        raise ValueError("coboundary_solve requires a cocycle")
    g = c.groupoid
    k = c.degree
    if k == 1:
        unknown_keys = [(x,) for x in range(g.n_objects)]
    else:
        unknown_keys = list(nerve(g, k - 1))
    col = {key: idx for idx, key in enumerate(unknown_keys)}
    n_rows = nerve_size(g, k)
    if n_rows * len(unknown_keys) > SOLVE_ENTRY_CAP:
        raise ValueError(
            f"solve would need a {n_rows} x {len(unknown_keys)} system, over cap"
        )

    rows: List[List[int]] = []
    rhs: List[Fraction] = []
    for tup in nerve(g, k):
        row = [0] * len(unknown_keys)
        if k == 1:
            row[col[(g.target[tup[0]],)]] += 1
            row[col[(g.source[tup[0]],)]] -= 1
        else:
            row[col[tup[1:]]] += 1
            sign = -1
            for i in range(k - 1):
                merged = tup[:i] + (g.compose[(tup[i], tup[i + 1])],) + tup[i + 2 :]
                row[col[merged]] += sign
                sign = -sign
            row[col[tup[:-1]]] += sign
        rows.append(row)
        rhs.append(c.value(tup))

    sol = solve_mod1(rows, rhs)
    if sol is None:
        return None
    witness = Cochain(g, k - 1, dict(zip(unknown_keys, sol)))
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
    n = tau.modulus
    get = tau.table.get
    out = {}
    for g in group.elements():
        for h in group.elements():
            out[(g, h)] = Fraction((get((g, h), 0) - get((h, g), 0)) % n, n)
    return out


# flat file format: "degree k" header, then one line per nonzero entry with
# the key indices followed by the value as p/q


def write_cochain(c: Cochain) -> List[str]:
    lines = [f"degree {c.degree}"]
    for key in sorted(c.table):
        v = c.value(key)
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
        val = Fraction(num, den)
        if degree == 0:
            if not 0 <= key[0] < gpd.n_objects:
                raise ValueError(f"object index out of range in {ln!r}")
        else:
            for a in key:
                if not 0 <= a < gpd.n_arrows:
                    raise ValueError(f"arrow index out of range in {ln!r}")
            for a, b in zip(key, key[1:]):
                if gpd.target[a] != gpd.source[b]:
                    raise ValueError(f"non-composable key in {ln!r}")
        if key in table:
            raise ValueError(f"duplicate key in {ln!r}")
        table[key] = val
    return Cochain(gpd, degree, table)
