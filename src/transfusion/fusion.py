"""Twisted bundles over a finite group and their fusion product.

A degree-3 cocycle on a group induces, through transgression, a 2-cocycle
on each loop sector; bundles graded by group elements carry projective
centralizer actions against those sector cocycles. Multiplying supports
gives a product on such bundles, with a correction phase on each summand
taken from the product homotopy mu of the 3-cocycle. The identity

    delta(mu) = (d_0* - d_1* + d_2*) tau,

the faces d_0, d_2 of the 2-sectors dropping the first, the second loop
and d_1 multiplying the two, is exactly what makes the corrected product
land back in the same twisted category, makes the character-level product
match the bundle-level one, and forces the sign of the correction phase;
make_context verifies it before anything else runs.

Matrices act on row vectors throughout, so a path "a then b" multiplies as
R(a) @ R(b). Every bundle map is a MonomialMatrix: a permutation with a
root of unity in each row.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .cochains import (
    Cochain,
    insertion_identity_sides,
    inverse_transgression,
    is_cocycle,
    product_homotopy,
    pullback,
)
from .cyclotomic import (
    Cyclotomic,
    MonomialMatrix,
    as_cyclotomic,
    mat_mul,
    root,
    row_reduce,
)
from .groups import (
    ConjugacyPartition,
    FiniteGroup,
    all_subgroups,
    centralizer,
    conjugacy_classes,
    subgroup_as_group,
)
from .groupoids import (
    SectorGroupoid,
    k_sectors,
    make_hom,
    point_groupoid,
)
from .projrep import (
    BasisError,
    projective_irreducibles,
    twisted_rank,
)

class FusionError(RuntimeError):
    pass


@dataclass(eq=False)
class TwistContext:
    """A group with a degree-3 cocycle and everything derived from it.

    tau is the transgressed 2-cochain on the loop sectors, mu the product
    homotopy on the pair sectors.
    """

    group: FiniteGroup
    sectors: SectorGroupoid
    tau: Cochain
    mu: Cochain

    @cached_property
    def normalized(self) -> bool:
        """Whether tau and mu vanish whenever a conjugator or loop is the
        identity; bundle constructions that need strict identities require
        it."""
        # values lie in 0..modulus-1, so an angle vanishes iff its integer does
        elements = self.group.elements()
        tau_t, mu_t = self.tau_table, self.mu_table
        return (
            all(
                tau_t[g][0][u] == 0 and tau_t[g][u][0] == 0
                for g in elements
                for u in elements
            )
            and all(tau_t[0][u1][u2] == 0 for u1 in elements for u2 in elements)
            and all(mu_t[g1][g2][0] == 0 for g1 in elements for g2 in elements)
            and all(
                mu_t[0][g][u] == 0 and mu_t[g][0][u] == 0
                for g in elements
                for u in elements
            )
        )

    @cached_property
    def conductor(self) -> int:
        """The least m such that every phase of tau and mu is an m-th root
        of unity."""
        conductor = 1
        for c in (self.tau, self.mu):
            for v in set(c.values):
                conductor = math.lcm(conductor, c.modulus // math.gcd(v, c.modulus))
        return conductor

    @cached_property
    def conjugacy(self) -> ConjugacyPartition:
        """Conjugacy classes of the group."""
        return conjugacy_classes(self.group)

    @cached_property
    def char_keys(self) -> Tuple[Tuple[int, int], ...]:
        """Evaluation points of characters: (g, u) with u centralizing g."""
        group = self.group
        return tuple(
            (g, u) for g in group.elements() for u in centralizer(group, g)
        )

    @cached_property
    def tau_table(self) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
        """The sector 2-cocycle at loop g against conjugators u1 then u2,
        as an integer over tau.modulus, indexed [g][u1][u2]."""
        # tau lives on the 1-sectors of the group's one-object groupoid, so
        # arrow g*n + u1 is loop g conjugated by u1, and the n values of the
        # pairs it starts are that row's values at u2 = 0..n-1
        return _cube(self.tau.values, self.group.order)

    @cached_property
    def mu_table(self) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
        """The product homotopy at the loop pair (g1, g2) against conjugator
        u, as an integer over mu.modulus, indexed [g1][g2][u]."""
        # the 2-sectors of the group's one-object groupoid number its
        # elements as the group does, so the pair (g1, g2) is point
        # g1*n + g2 and its arrow along u is that times n, plus u
        return _cube(self.mu.values, self.group.order)


def _cube(values: Sequence[int], n: int) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """n^3 values as a table indexed [i][j][k], read at (i*n + j)*n + k."""
    rows = [tuple(values[i : i + n]) for i in range(0, len(values), n)]
    return tuple(tuple(rows[i : i + n]) for i in range(0, len(rows), n))


def make_context(group: FiniteGroup, phi: Cochain) -> TwistContext:
    """Validate a degree-3 cocycle and derive its fusion data.

    Checks, exactly: phi is closed; then the loop-insertion identity at one
    loop (tau is closed) and at two (the product identity of mu and tau),
    each swept over the full nerve.
    """
    base = point_groupoid(group)
    if phi.groupoid is not base:
        raise ValueError("cochain does not live on the one-object groupoid of the group")
    if phi.degree != 3:
        raise ValueError("fusion context needs a degree-3 cochain")
    if not is_cocycle(phi):
        raise ValueError("fusion context needs a closed cochain")
    sectors = k_sectors(base, 1)
    two = k_sectors(base, 2)
    tau = inverse_transgression(phi, sectors)
    mu = product_homotopy(phi, two)
    lhs, rhs = insertion_identity_sides(phi, tau, sectors)
    if lhs != rhs:
        raise FusionError("transgressed cochain is not closed; transgression bug")
    lhs, rhs = insertion_identity_sides(tau, mu, two)
    if lhs != rhs:
        raise FusionError("product identity fails; homotopy bug")

    return TwistContext(group=group, sectors=sectors, tau=tau, mu=mu)


@dataclass(eq=False)
class TwistedBundle:
    """Vector spaces graded by group elements with conjugation maps.

    dims[g] is the fiber dimension over g. maps[(g, u)] is the monomial
    matrix of the map from the fiber over g to the fiber over u^-1 g u,
    present for every g with a nonzero fiber and every u. The composite of the maps for
    u1 and u2 must equal the map for u1*u2 times the phase of
    tau(g; u1, u2).
    """

    context: TwistContext
    dims: Tuple[int, ...]
    maps: Dict[Tuple[int, int], MonomialMatrix] = field(repr=False)

    def support(self) -> Tuple[int, ...]:
        return tuple(g for g, d in enumerate(self.dims) if d)

    @cached_property
    def traces(self) -> Dict[Tuple[int, int], Cyclotomic]:
        """trace_table of this bundle, computed once: a bundle's maps are
        not changed after it is built."""
        return trace_table(self)


def bundle_violation(v: TwistedBundle) -> Optional[Tuple[str, tuple]]:
    """First failed bundle axiom as (kind, witness), or None if none fail.

    The composition axiom is swept over every (g, u1, u2) with g in the
    support, in that order, on integer exponents: all maps and tau are
    lifted once to one common modulus m, and the composite of the maps for
    u1 and u2 is compared row by row with the map for u1*u2 shifted by tau.
    """
    ctx = v.context
    group = ctx.group
    n = group.order
    if len(v.dims) != n:
        return ("grading-length", (len(v.dims),))
    for cls in ctx.conjugacy.classes:
        if len({v.dims[h] for h in cls}) != 1:
            return ("dims-not-class-constant", tuple(cls))
    wanted = {(g, u) for g in range(n) if v.dims[g] for u in range(n)}
    if set(v.maps) != wanted:
        missing = wanted - set(v.maps)
        extra = set(v.maps) - wanted
        return ("map-keys", (tuple(sorted(missing))[:3], tuple(sorted(extra))[:3]))
    for (g, u), mat in v.maps.items():
        h = group.conjugate(g, u)
        if len(mat) != v.dims[g] or len(mat) != v.dims[h]:
            return ("matrix-shape", (g, u))
    for g in range(n):
        if v.dims[g] and v.maps[(g, 0)] != MonomialMatrix.identity(v.dims[g]):
            return ("identity-map", (g,))
    m = ctx.tau.modulus
    for mat in v.maps.values():
        m = math.lcm(m, mat.modulus)
    step = m // ctx.tau.modulus
    lifted = {key: (mat.perm, mat.exps_at(m)) for key, mat in v.maps.items()}
    mult = group.mult
    for g in range(n):
        if not v.dims[g]:
            continue
        rows = range(v.dims[g])
        tau_g = ctx.tau_table[g]
        for u1 in range(n):
            h = group.conjugate(g, u1)
            pa, ea = lifted[(g, u1)]
            tau_gu = tau_g[u1]
            for u2 in range(n):
                pb, eb = lifted[(h, u2)]
                pt, et = lifted[(g, mult[u1][u2])]
                t = tau_gu[u2] * step
                for i in rows:
                    p = pa[i]
                    if pb[p] != pt[i] or (ea[i] + eb[p] - et[i] - t) % m:
                        return ("composition", (g, u1, u2))
    return None


def unit_bundle(ctx: TwistContext) -> TwistedBundle:
    """Line bundle over the identity element.

    Its action carries the phase of mu at the identity pair, which is what
    the product identity requires; in a normalized context that phase is
    zero and the action is trivial.
    """
    n = ctx.group.order
    dims = tuple(1 if g == 0 else 0 for g in range(n))
    one, mu_0, m = MonomialMatrix.identity(1), ctx.mu_table[0][0], ctx.mu.modulus
    maps = {(0, u): one.scale(mu_0[u], m) for u in range(n)}
    return TwistedBundle(context=ctx, dims=dims, maps=maps)


def regular_bundle(ctx: TwistContext) -> TwistedBundle:
    """The sector cocycle at the identity acting on its own group algebra.

    Fiber of dimension |G| over the identity element; the basis vector at h
    moves to the one at h*u with the phase of tau(1; h, u)."""
    if not ctx.normalized:
        raise ValueError("regular bundle needs a normalized context")
    group = ctx.group
    n = group.order
    dims = tuple(n if g == 0 else 0 for g in range(n))
    tau_0, m = ctx.tau_table[0], ctx.tau.modulus
    maps = {}
    for u in range(n):
        exps = [tau_0[h][u] for h in range(n)]
        # each map at its smallest modulus
        c = math.gcd(m, *exps)
        perm = [group.mult[h][u] for h in range(n)]
        maps[(0, u)] = MonomialMatrix(perm, [e // c for e in exps], m // c)
    return TwistedBundle(context=ctx, dims=dims, maps=maps)


def star(a: TwistedBundle, b: TwistedBundle) -> TwistedBundle:
    """Fusion product: fibers multiply supports, maps pick up a mu phase.

    The summand over (g1, g2) inside the fiber over g1*g2 is the tensor
    product of the two fibers; the conjugation map on it is the tensor
    product of the two maps times exp(-2 pi i mu(g1, g2; u)). The sign in
    the exponent is forced: with it, the product identity turns the twisted
    composition rules for a and b into the rule for the product.

    Every map of the product is written at one modulus, the lcm of mu's
    and of the factors' maps: row (i1, i2) of a summand goes to column
    p1(i1) * dim2 + p2(i2) of the conjugated summand, with exponent
    e1 + e2 - mu.
    """
    if a.context is not b.context:
        raise ValueError("bundles live over different contexts")
    ctx = a.context
    group = ctx.group
    n = group.order
    dims = [0] * n
    pairs: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    offset: Dict[Tuple[int, int], int] = {}
    for g1 in range(n):
        if not a.dims[g1]:
            continue
        for g2 in range(n):
            if not b.dims[g2]:
                continue
            g = group.mult[g1][g2]
            offset[(g1, g2)] = dims[g]
            pairs[g].append((g1, g2))
            dims[g] += a.dims[g1] * b.dims[g2]
    mu_t = ctx.mu_table
    m = math.lcm(ctx.mu.modulus, *(mat.modulus for v in (a, b) for mat in v.maps.values()))
    step = m // ctx.mu.modulus
    lift_a = {key: (mat.perm, mat.exps_at(m)) for key, mat in a.maps.items()}
    lift_b = {key: (mat.perm, mat.exps_at(m)) for key, mat in b.maps.items()}
    conj = group.conjugate
    maps: Dict[Tuple[int, int], MonomialMatrix] = {}
    for g in range(n):
        if not dims[g]:
            continue
        for u in range(n):
            perm: List[int] = []
            exps: List[int] = []
            for g1, g2 in pairs[g]:
                pa, ea = lift_a[(g1, u)]
                pb, eb = lift_b[(g2, u)]
                c0 = offset[(conj(g1, u), conj(g2, u))]
                nb = b.dims[g2]
                s = mu_t[g1][g2][u] * step
                for p, x in zip(pa, ea):
                    col = c0 + p * nb
                    perm.extend(col + q for q in pb)
                    exps.extend(x + y - s for y in eb)
            maps[(g, u)] = MonomialMatrix(perm, exps, m)
    return TwistedBundle(context=ctx, dims=tuple(dims), maps=maps)


def untwisted_star(a: TwistedBundle, b: TwistedBundle) -> TwistedBundle:
    """Independent oracle for the product when there is no twist at all.

    Written without the mu machinery on purpose: plain direct sum of
    tensor products over factorizations of each group element, maps
    permuted by simultaneous conjugation. The tensor products are built
    entrywise from dense matrices, not with MonomialMatrix arithmetic. Only
    valid when both derived cochains vanish, which is checked.
    """
    if a.context is not b.context:
        raise ValueError("bundles live over different contexts")
    ctx = a.context
    if not (ctx.tau.is_zero() and ctx.mu.is_zero()):
        raise ValueError("untwisted oracle requires a trivial twist")
    group = ctx.group
    n = group.order
    facts: Dict[int, List[Tuple[int, int]]] = {g: [] for g in range(n)}
    for g1 in range(n):
        for g2 in range(n):
            if a.dims[g1] and b.dims[g2]:
                facts[group.mult[g1][g2]].append((g1, g2))
    dims = tuple(
        sum(a.dims[g1] * b.dims[g2] for g1, g2 in facts[g]) for g in range(n)
    )
    zero = as_cyclotomic(0)
    maps: Dict[Tuple[int, int], MonomialMatrix] = {}
    for g in range(n):
        if not dims[g]:
            continue
        for u in range(n):
            h = group.conjugate(g, u)
            rows = [[zero] * dims[h] for _ in range(dims[g])]
            r0 = 0
            for g1, g2 in facts[g]:
                pair_u = (group.conjugate(g1, u), group.conjugate(g2, u))
                c0 = 0
                for p in facts[h]:
                    if p == pair_u:
                        break
                    c0 += a.dims[p[0]] * b.dims[p[1]]
                ma = a.maps[(g1, u)].dense()
                mb = b.maps[(g2, u)].dense()
                db = len(mb)
                db_cols = len(mb[0]) if db else 0
                for i1, rowa in enumerate(ma):
                    for i2, rowb in enumerate(mb):
                        out_row = rows[r0 + i1 * db + i2]
                        for j1, xa in enumerate(rowa):
                            if xa.is_zero():
                                continue
                            for j2, xb in enumerate(rowb):
                                if not xb.is_zero():
                                    out_row[c0 + j1 * db_cols + j2] = xa * xb
                r0 += a.dims[g1] * b.dims[g2]
            maps[(g, u)] = MonomialMatrix.from_dense(rows)
    return TwistedBundle(context=ctx, dims=dims, maps=maps)


# characters: a virtual class is known by its {(g, u): trace} table on
# ctx.char_keys, and two classes are equal when their tables are


def trace_table(v: TwistedBundle) -> Dict[Tuple[int, int], Cyclotomic]:
    """Raw traces without validation.

    Callers must pair this with bundle_violation unless the bundle is
    already known valid; character() below does both.
    """
    ctx = v.context
    zero = as_cyclotomic(0)
    table = {}
    for g, u in ctx.char_keys:
        if v.dims[g]:
            table[(g, u)] = v.maps[(g, u)].trace()
        else:
            table[(g, u)] = zero
    return table


def character(v: TwistedBundle) -> Dict[Tuple[int, int], Cyclotomic]:
    """Trace of each centralizing map; raises on an invalid bundle."""
    w = bundle_violation(v)
    if w is not None:
        raise ValueError(f"invalid bundle: {w[0]} at {w[1]}")
    return trace_table(v)


def kclass_star(
    ctx: TwistContext,
    x: Dict[Tuple[int, int], Cyclotomic],
    y: Dict[Tuple[int, int], Cyclotomic],
) -> Dict[Tuple[int, int], Cyclotomic]:
    """Character-level product of two character tables over ctx.

    Only summands fixed by the conjugator contribute to a trace, so the
    value at (g, u) sums exp(-2 pi i mu(g1, g2; u)) x(g1, u) y(g2, u) over
    factorizations g1*g2 = g with g1 fixed by u (g2 is then fixed too).
    """
    group = ctx.group
    mu_t, m = ctx.mu_table, ctx.mu.modulus
    table = {}
    for g, u in ctx.char_keys:
        acc = as_cyclotomic(0)
        for g1 in group.elements():
            if group.conjugate(g1, u) != g1:
                continue
            g2 = group.mult[group.inv[g1]][g]
            acc = acc + root(-mu_t[g1][g2][u], m) * x[(g1, u)] * y[(g2, u)]
        table[(g, u)] = acc
    return table


# basis construction and integer structure constants


def sector_cocycle(ctx: TwistContext, g: int) -> Cochain:
    """tau at loop g against conjugators in the centralizer of g: its
    pullback along the inclusion of the centralizer, reindexed as a group
    by subgroup_as_group, onto loop g of the 1-sectors."""
    group = ctx.group
    zgrp, zmem = subgroup_as_group(group, centralizer(group, g))
    # the arrows out of loop g are g*n + u, and the centralizer fixes g
    n = group.order
    inclusion = make_hom(
        point_groupoid(zgrp), ctx.sectors.groupoid, [g], [g * n + z for z in zmem]
    )
    return pullback(inclusion, ctx.tau)


def _class_basis(ctx: TwistContext) -> List[TwistedBundle]:
    """One bundle per projective irreducible of each class representative's
    centralizer, moved across the class.

    The fiber over h is the fiber over the representative g carried by the
    transporter x_h. Since x_h*u = z*x_hu with z in the centralizer, the map
    at (h, u) is the irreducible at z times the phase of tau_g(x_h, u) -
    tau_g(z, x_hu), the twisted groupoid algebra's rule for that rewriting.
    """
    group = ctx.group
    n = group.order
    mult, inv = group.mult, group.inv
    part = ctx.conjugacy
    modulus = ctx.tau.modulus
    subgroups = all_subgroups(group)
    out = []
    for cls in part.classes:
        g = cls[0]
        tau_g = ctx.tau_table[g]
        tau_z = sector_cocycle(ctx, g)
        zpos = {m: i for i, m in enumerate(centralizer(group, g))}
        # the centralizer ascends, so relabelled subgroups stay sorted
        inside = [
            tuple(zpos[m] for m in sub) for sub in subgroups if all(m in zpos for m in sub)
        ]
        irreps = projective_irreducibles(tau_z, inside)
        rank = twisted_rank(tau_z)
        if len(irreps) != rank:
            raise BasisError(
                f"class of {g}: built {len(irreps)} irreducibles, twisted rank says {rank}"
            )
        for mats in irreps:
            d = len(mats[0])
            dims = tuple(d if h in cls else 0 for h in range(n))
            maps = {}
            for h in cls:
                xh = part.transporter[h]
                for u in range(n):
                    xhu = part.transporter[group.conjugate(h, u)]
                    z = mult[mult[xh][u]][inv[xhu]]
                    eps = (tau_g[xh][u] - tau_g[z][xhu]) % modulus
                    mat = mats[zpos[z]]
                    maps[(h, u)] = mat.scale(eps, modulus) if eps else mat
            out.append(TwistedBundle(context=ctx, dims=dims, maps=maps))
    return out


def character_gram(ctx: TwistContext, tables: Sequence[Dict[Tuple[int, int], Cyclotomic]]):
    """The character matrix R of some tables, with one row per key of
    ctx.char_keys and one column per table, its conjugate transpose R^H, and
    the Gram matrix R^H R. Gram entry (i, j) is the sum over the keys of
    conj tables[i] times tables[j], which is |G| times the inner product of
    the two characters."""
    rows = [[t[k] for t in tables] for k in ctx.char_keys]
    adjoint = [[x.conj() for x in col] for col in zip(*rows)]
    return rows, adjoint, mat_mul(adjoint, rows)


def basis_bundles(ctx: TwistContext) -> List[TwistedBundle]:
    """Irreducible twisted bundles, one per sector-level irreducible.

    For each conjugacy class, the projective irreducibles of the
    representative's centralizer against its sector cocycle are built by
    monomial induction and moved across the class, for any group and any
    twist; a centralizer with a non-monomial irreducible raises BasisError.
    Every bundle is validated, the per-class counts are cross-checked
    against the regular class counts, and the characters must be
    orthonormal: their Gram matrix equals |G| times the identity, which
    makes them independent, each irreducible and no two equivalent.
    """
    if not ctx.normalized:
        raise ValueError("basis construction needs a normalized context")
    out = _class_basis(ctx)
    for v in out:
        w = bundle_violation(v)
        if w is not None:
            raise AssertionError(f"constructed basis bundle invalid: {w[0]} at {w[1]}")
    _, _, gram = character_gram(ctx, [v.traces for v in out])
    n = ctx.group.order
    for i, row in enumerate(gram):
        for j, x in enumerate(row):
            if x != (n if i == j else 0):
                raise BasisError(f"basis characters are not orthonormal at Gram entry ({i}, {j})")
    return out


class CharacterSolver:
    """Exact expansion of character tables over a fixed basis.

    One elimination of [Gram | R^H] leaves [I | Gram^-1 R^H], the left
    inverse of the character matrix R. Each expansion is that matrix times
    the table, re-checked against every key, so a table outside the span is
    always detected, never silently projected.
    """

    def __init__(self, ctx: TwistContext, tables: Sequence[Dict[Tuple[int, int], Cyclotomic]]):
        self.keys = ctx.char_keys
        rows, adjoint, gram = character_gram(ctx, tables)
        m = len(tables)
        red, pivots = row_reduce([list(g) + list(a) for g, a in zip(gram, adjoint)])
        if pivots != list(range(m)):
            raise BasisError("basis characters are linearly dependent")
        self._left = [row[m:] for row in red]
        self._rows = rows

    def expand(
        self, table: Dict[Tuple[int, int], Cyclotomic]
    ) -> Tuple[Optional[List[Cyclotomic]], List[Tuple[int, int]]]:
        """Coefficients over the basis, plus the keys where expansion fails.

        Returns (coeffs, []) when the table lies in the span; otherwise
        (None, the keys where the table differs from its orthogonal
        projection onto the span).
        """
        vec = [table[k] for k in self.keys]
        coeffs = [row[0] for row in mat_mul(self._left, [[x] for x in vec])]
        back = mat_mul(self._rows, [[c] for c in coeffs])
        bad = [self.keys[r] for r, row in enumerate(back) if row[0] != vec[r]]
        if bad:
            return None, bad
        return coeffs, []


def integer_coefficients(coeffs: Sequence[Cyclotomic]) -> Optional[List[int]]:
    """Integer values of an exact coefficient list, or None if any entry
    is irrational or fractional."""
    out = []
    for x in coeffs:
        if not x.is_rational() or x.rational_value().denominator != 1:
            return None
        out.append(int(x.rational_value()))
    return out


def associativity_violation(
    constants: Sequence[Sequence[Sequence[int]]],
) -> Optional[Tuple[int, int, int]]:
    """First (i, j, k) where the two bracketed integer expansions differ.

    constants[i][j][m] is the multiplicity of basis m in basis i * basis j.
    Each product row is kept as its (m, multiplicity) pairs with nonzero
    multiplicity, so a triple costs the nonzeros it touches, not n^2.
    """
    n = len(constants)
    rows = [
        [tuple((m, c) for m, c in enumerate(constants[i][j]) if c) for j in range(n)]
        for i in range(n)
    ]
    for i in range(n):
        rows_i = rows[i]
        for j in range(n):
            row_ij = rows_i[j]
            rows_j = rows[j]
            for k in range(n):
                lhs = [0] * n
                for m, c in row_ij:
                    for l, d in rows[m][k]:
                        lhs[l] += c * d
                rhs = [0] * n
                for m, c in rows_j[k]:
                    for l, d in rows_i[m]:
                        rhs[l] += c * d
                if lhs != rhs:
                    return (i, j, k)
    return None


@dataclass
class FusionTable:
    """Integer structure constants of a basis, and every check that failed.

    constants[i][j][k] is the multiplicity of basis[k] in basis[i] *
    basis[j]; constants[i][j] is None when that product failed. The failure
    lists run in pair order ((0,0), (0,1), (1,0), (0,2), (2,0), ...):
    invalid holds (i, j, kind, witness) from bundle_violation, outside_span
    (i, j, keys where the expansion misses the character), non_integer
    (i, j) for products in the span with a coefficient that is not an
    integer. non_commuting holds the pairs i < j with constants[i][j] !=
    constants[j][i] and nonassociative the first failing triple, both of a
    complete table only. unit_candidates are the basis indices whose
    character equals the unit bundle's.
    """

    constants: Tuple[Tuple[Optional[Tuple[int, ...]], ...], ...]
    unit_candidates: List[int]
    invalid: List[Tuple[int, int, str, tuple]] = field(default_factory=list)
    outside_span: List[Tuple[int, int, List[Tuple[int, int]]]] = field(default_factory=list)
    non_integer: List[Tuple[int, int]] = field(default_factory=list)
    non_commuting: List[Tuple[int, int]] = field(default_factory=list)
    nonassociative: Optional[Tuple[int, int, int]] = None

    def complete(self) -> bool:
        """Whether every product is valid and expands integrally."""
        return not (self.invalid or self.outside_span or self.non_integer)

    def is_unit(self, u: int) -> bool:
        """Whether basis[u] multiplies every basis element to itself on
        both sides; meaningful on a complete table."""
        n = len(self.constants)
        for j in range(n):
            e_j = tuple(1 if m == j else 0 for m in range(n))
            if self.constants[u][j] != e_j or self.constants[j][u] != e_j:
                return False
        return True


def _product(basis, solver, a: int, b: int):
    """Outcome (violation, integer coefficients, residual keys) of one
    product. At most one entry is set; none is when the product lies in
    the span with a coefficient that is not an integer.
    """
    prod = star(basis[a], basis[b])
    viol = bundle_violation(prod)
    if viol is not None:
        return viol, None, None
    coeffs, bad = solver.expand(trace_table(prod))
    if coeffs is None:
        return None, None, bad
    return None, integer_coefficients(coeffs), None


# the task function of the running fork_map, set before its pool forks so
# the workers inherit it, and all it refers to, without pickling
_fork_task: Optional[Callable] = None


def _run_fork_task(task):
    return _fork_task(task)


def fork_map(func: Callable, tasks: Sequence, workers: int) -> list:
    """[func(t) for t in tasks], spread over a fork pool of
    min(workers, len(tasks), cores) processes when that is more than one;
    results come back in task order either way. func may be a closure:
    only the tasks and the results are pickled."""
    global _fork_task
    size = min(workers, len(tasks), os.cpu_count() or 1)
    if size <= 1:
        return [func(t) for t in tasks]
    import multiprocessing
    _fork_task = func
    try:
        with multiprocessing.get_context("fork").Pool(size) as pool:
            return pool.map(_run_fork_task, tasks)
    finally:
        _fork_task = None


def fusion_table(
    ctx: TwistContext, basis: Sequence[TwistedBundle], workers: int = 1
) -> FusionTable:
    """Multiply every ordered pair of basis bundles and expand the products.

    The basis is taken as validated, as basis_bundles returns it, with the
    trace tables cached there; its characters need only be independent.
    Each product is validated at the bundle level and its character solved
    exactly over the basis characters, re-checked at every key. A product
    that is invalid, outside the span or non-integral is recorded, never
    raised. Commutativity and associativity are read off a complete integer
    table: the basis characters are independent, so two products'
    characters agree exactly when their constants do. The products run
    through fork_map in pair order; the result does not depend on workers.
    """
    tables = [v.traces for v in basis]
    solver = CharacterSolver(ctx, tables)
    unit = character(unit_bundle(ctx))
    unit_candidates = [k for k, t in enumerate(tables) if t == unit]

    n = len(basis)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    tasks = [t for i, j in pairs for t in ([(i, j), (j, i)] if i < j else [(i, j)])]
    results = fork_map(lambda task: _product(basis, solver, *task), tasks, workers)

    constants: List[List[Optional[Tuple[int, ...]]]] = [[None] * n for _ in range(n)]
    table = FusionTable(constants=(), unit_candidates=unit_candidates)
    for (a, b), (viol, ints, bad) in zip(tasks, results):
        if viol is not None:
            table.invalid.append((a, b, viol[0], viol[1]))
        elif bad is not None:
            table.outside_span.append((a, b, bad))
        elif ints is None:
            table.non_integer.append((a, b))
        else:
            constants[a][b] = tuple(ints)
    table.constants = c = tuple(tuple(row) for row in constants)
    if table.complete():
        table.non_commuting = [
            (i, j) for i in range(n) for j in range(i + 1, n) if c[i][j] != c[j][i]
        ]
        table.nonassociative = associativity_violation(c)
    return table
