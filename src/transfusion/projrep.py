"""Projective representation counts over an explicit 2-cocycle.

A 2-cocycle on a finite group twists its group algebra; the number of
irreducible projective representations for that cocycle equals the number
of regular conjugacy classes (g is regular when the normalized cocycle is
symmetric against every element of the centralizer of g). That count is
validated here against an independent oracle: the dimension of the center
of the twisted group algebra, computed by exact linear algebra over a
cyclotomic field.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .cochains import Cochain, coboundary_solve, group_cochain
from .cyclotomic import (
    Cyclotomic,
    as_cyclotomic,
    mat_eq,
    mat_mul,
    mat_scale,
    mat_trace,
    matrix_rank,
    phase,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    all_subgroups,
    centralizer,
    conjugacy_classes,
    subgroup_as_group,
    subgroup_generated,
)
from .groupoids import point_groupoid

ALGEBRA_ORDER_CAP = 64


class CocycleError(ValueError):
    """A G x G table failed the 2-cocycle identity."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class BasisError(RuntimeError):
    """A representation search did not produce a complete set."""


@dataclass(frozen=True)
class TwoCocycleGroup:
    """Normalized 2-cocycle: values[1][g] = values[g][1] = 0."""

    group: FiniteGroup
    values: Tuple[Tuple[Fraction, ...], ...]

    def value(self, g: int, h: int) -> Fraction:
        return self.values[g][h]


def _check_cocycle(group: FiniteGroup, values) -> None:
    n = group.order
    if len(values) != n or any(len(row) != n for row in values):
        raise CocycleError("table shape does not match the group order")
    for g in range(n):
        for h in range(n):
            gh = group.mult[g][h]
            for k in range(n):
                total = (
                    values[h][k]
                    - values[gh][k]
                    + values[g][group.mult[h][k]]
                    - values[g][h]
                ) % 1
                if total:
                    raise CocycleError(
                        f"cocycle identity fails at ({g},{h},{k})", (g, h, k)
                    )


def normalize_cocycle(
    group: FiniteGroup, values
) -> Tuple[TwoCocycleGroup, Tuple[Fraction, ...]]:
    """Validate the cocycle identity, then shift by a coboundary so both
    margins through the identity vanish.

    The identity forces tau(1,g) = tau(g,1) = tau(1,1) for all g, so the
    shift is the coboundary of the constant 1-cochain at tau(1,1). Returns
    the normalized cocycle and that shifting 1-cochain.
    """
    table = tuple(tuple(Fraction(v) % 1 for v in row) for row in values)
    _check_cocycle(group, table)
    c = table[0][0]
    rho = tuple([c] * group.order)
    shifted = tuple(tuple((v - c) % 1 for v in row) for row in table)
    for g in group.elements():
        if shifted[0][g] or shifted[g][0]:
            raise AssertionError("normalization failed; identity margin nonzero")
    return TwoCocycleGroup(group=group, values=shifted), rho


def cocycle_from_cochain(group: FiniteGroup, c: Cochain):
    """Raw G x G value table of a degree-2 cochain on the group groupoid."""
    if c.groupoid is not point_groupoid(group) or c.degree != 2:
        raise ValueError("expected a degree-2 cochain on the group groupoid")
    return tuple(
        tuple(c.value((g, h)) for h in group.elements()) for g in group.elements()
    )


def tau_regular_classes(tc: TwoCocycleGroup) -> List[int]:
    """Representatives of the regular conjugacy classes.

    Regularity is computed for every member of each class and asserted
    constant across the class rather than assumed.
    """
    group = tc.group
    part = conjugacy_classes(group)
    reps = []
    for cls in part.classes:
        flags = []
        for x in cls:
            zen = centralizer(group, x)
            flags.append(
                all((tc.value(x, h) - tc.value(h, x)) % 1 == 0 for h in zen.members)
            )
        if any(f != flags[0] for f in flags):
            raise AssertionError(
                f"regularity differs inside the class of {cls[0]}; convention bug"
            )
        if flags[0]:
            reps.append(cls[0])
    return reps


def twisted_rank(tc: TwoCocycleGroup) -> int:
    """Number of irreducible projective representations for this cocycle."""
    return len(tau_regular_classes(tc))


@dataclass(frozen=True)
class TwistedAlgebra:
    """Group algebra twisted by a normalized cocycle: the basis vector for g
    times the one for h is phase(tau(g,h)) times the one for gh."""

    cocycle: TwoCocycleGroup
    conductor: int


def make_twisted_algebra(tc: TwoCocycleGroup) -> TwistedAlgebra:
    group = tc.group
    if group.order > ALGEBRA_ORDER_CAP:
        raise ValueError(f"algebra oracle capped at order {ALGEBRA_ORDER_CAP}")
    if any(tc.values[0][g] or tc.values[g][0] for g in group.elements()):
        raise ValueError("algebra expects a normalized cocycle")
    conductor = 1
    for row in tc.values:
        for v in row:
            conductor = math.lcm(conductor, v.denominator)
    return TwistedAlgebra(cocycle=tc, conductor=conductor)


def center_dimension(alg: TwistedAlgebra) -> int:
    """Dimension of the center, by solving z e_g = e_g z for all g.

    Matching coefficients of the basis vector at m in z e_g = e_g z gives
    one linear equation per (g, m) over the cyclotomic field; the center is
    the kernel of the stacked system.
    """
    tc = alg.cocycle
    group = tc.group
    n = group.order
    zero = as_cyclotomic(0)
    rows = []
    for g in group.elements():
        ginv = group.inv[g]
        for m in group.elements():
            h1 = group.mult[m][ginv]
            h2 = group.mult[ginv][m]
            row = [zero] * n
            row[h1] = row[h1] + phase(tc.value(h1, g))
            row[h2] = row[h2] - phase(tc.value(g, h2))
            if not all(x.is_zero() for x in row):
                rows.append(row)
    if not rows:
        return n
    return n - matrix_rank(rows)


# explicit representations: matrices act on row vectors, so a path a-then-b
# is the product R(a) @ R(b)


def linear_characters(group: FiniteGroup) -> List[Tuple[Fraction, ...]]:
    """All homomorphisms into Q/Z, as value tuples indexed by element.

    Generators are picked greedily; each assignment of generator values
    compatible with their orders is propagated and then checked against the
    full multiplication table, so nonabelian groups work too (characters of
    the abelianization).
    """
    gens: List[int] = []
    reached = {0}
    for g in group.elements():
        if g not in reached:
            gens.append(g)
            reached = set(subgroup_generated(group, gens).members)
    if not gens:
        return [(Fraction(0),)]
    orders = [group.element_order(g) for g in gens]
    out = []
    for combo in itertools.product(*[range(o) for o in orders]):
        vals: List[Optional[Fraction]] = [None] * group.order
        vals[0] = Fraction(0)
        frontier = [0]
        consistent = True
        while frontier and consistent:
            x = frontier.pop()
            for gi, g in enumerate(gens):
                y = group.mult[x][g]
                v = (vals[x] + Fraction(combo[gi], orders[gi])) % 1
                if vals[y] is None:
                    vals[y] = v
                    frontier.append(y)
                elif vals[y] != v:
                    consistent = False
                    break
        if not consistent:
            continue
        assert all(v is not None for v in vals)
        if all(
            (vals[group.mult[a][b]] - vals[a] - vals[b]) % 1 == 0
            for a in group.elements()
            for b in group.elements()
        ):
            out.append(tuple(vals))
    out.sort()
    return out


def _right_coset_reps(group: FiniteGroup, members: Tuple[int, ...]) -> List[int]:
    """Minimal representative of each coset H*t, ascending."""
    seen = set()
    reps = []
    for t in group.elements():
        if t in seen:
            continue
        reps.append(t)
        seen.update(group.mult[h][t] for h in members)
    return reps


def induced_monomial_rep(
    group: FiniteGroup,
    members: Tuple[int, ...],
    lam_parent: Dict[int, Fraction],
) -> Dict[int, Tuple[Tuple[Cyclotomic, ...], ...]]:
    """Representation induced from a linear character of a subgroup.

    Basis vectors sit on the cosets H*t; the matrix for u moves coset j to
    the coset of t_j*u with entry lam(t_j * u * t_j'^-1). Multiplicativity
    R(u1) @ R(u2) = R(u1 u2) holds on the nose in the row convention.
    """
    reps = _right_coset_reps(group, members)
    m = len(reps)
    coset_of = {}
    for j, t in enumerate(reps):
        for h in members:
            coset_of[group.mult[h][t]] = j
    zero = as_cyclotomic(0)
    mats = {}
    for u in group.elements():
        rows = []
        for t in reps:
            tu = group.mult[t][u]
            jp = coset_of[tu]
            h = group.mult[tu][group.inv[reps[jp]]]
            row = [zero] * m
            row[jp] = phase(lam_parent[h])
            rows.append(tuple(row))
        mats[u] = tuple(rows)
    return mats


def _char_key(vals: List[Cyclotomic]) -> Tuple[Tuple[Fraction, ...], ...]:
    m = 1
    for v in vals:
        m = math.lcm(m, v.conductor)
    return tuple(v.key_at(m) for v in vals)


def group_irreducibles(
    group: FiniteGroup,
) -> List[Dict[int, Tuple[Tuple[Cyclotomic, ...], ...]]]:
    """Ordinary irreducible matrix representations, by monomial induction.

    Inductions of linear characters of subgroups are screened with the exact
    character inner product; distinct irreducible characters are collected
    until their squared dimensions exhaust the group order. Groups with a
    non-monomial irreducible make that impossible, and raise BasisError
    instead of returning a short list.
    """
    n = group.order
    found: List[Dict[int, Tuple[Tuple[Cyclotomic, ...], ...]]] = []
    seen_chars = set()
    total = 0
    for members in sorted(all_subgroups(group), key=lambda mm: (-len(mm), mm)):
        if total == n:
            break
        subgrp, mem = subgroup_as_group(Subgroup(parent=group, members=members))
        d = n // len(members)
        if total + d * d > n:
            continue
        for lam in linear_characters(subgrp):
            lam_parent = {mem[i]: lam[i] for i in range(len(mem))}
            rep = induced_monomial_rep(group, members, lam_parent)
            char = [mat_trace(rep[u]) for u in group.elements()]
            ip = as_cyclotomic(0)
            for u in group.elements():
                ip = ip + char[u] * char[u].conj()
            if not (ip.is_rational() and ip.rational_value() == n):
                continue
            key = _char_key(char)
            if key in seen_chars:
                continue
            seen_chars.add(key)
            found.append(rep)
            total += d * d
            if total == n:
                break
    if total != n:
        raise BasisError(
            f"monomial induction reached squared-dimension total {total} of {n}"
        )
    return found


def abelian_projective_irreps(
    tc: TwoCocycleGroup,
) -> List[Dict[int, Tuple[Tuple[Cyclotomic, ...], ...]]]:
    """Irreducible projective representations of an abelian group whose
    multiplier is exactly the given normalized cocycle (not just one in its
    class): mats[u] @ mats[v] == phase(tc(u,v)) * mats[uv] for all u, v.

    The commutator pairing beta(u,v) = tc(u,v) - tc(v,u) has a radical R;
    a maximal isotropic subgroup L splits tc restricted to L as a
    coboundary, and inducing the resulting rank-one L-modules inside the
    twisted regular representation gives all |R| distinct irreducibles of
    dimension [G:L]. Closure of each induced span is verified entrywise, so
    a wrong phase anywhere raises instead of producing a bad matrix.
    """
    group = tc.group
    if not group.is_abelian():
        raise ValueError("projective irreducibles implemented for abelian groups only")
    n = group.order

    def beta(u: int, v: int) -> Fraction:
        return (tc.value(u, v) - tc.value(v, u)) % 1

    radical = [u for u in group.elements() if all(beta(u, v) == 0 for v in group.elements())]
    members = tuple(radical)
    mset = set(members)
    for g in group.elements():
        if g not in mset and all(beta(g, l) == 0 for l in members):
            members = subgroup_generated(group, list(members) + [g]).members
            mset = set(members)
    if len(members) ** 2 != n * len(radical):
        raise AssertionError("greedy isotropic subgroup is not maximal")

    lgrp, lmem = subgroup_as_group(Subgroup(parent=group, members=members))
    ltab = {
        (i, j): tc.value(lmem[i], lmem[j])
        for i in range(len(lmem))
        for j in range(len(lmem))
    }
    nu = coboundary_solve(group_cochain(lgrp, 2, ltab))
    if nu is None:
        raise AssertionError("cocycle restricted to an isotropic subgroup must split")

    reps = _right_coset_reps(group, members)
    m = len(reps)
    coset_of = {}
    for j, t in enumerate(reps):
        for l in members:
            coset_of[group.mult[l][t]] = j

    zero = as_cyclotomic(0)
    collected = []
    seen_chars = set()
    for chi in linear_characters(lgrp):
        # row vector for coset j inside the twisted regular representation
        f_rows = []
        for t in reps:
            row = [zero] * n
            for i, l in enumerate(lmem):
                w = -(nu.value((i,)) + chi[i] + tc.value(l, t))
                row[group.mult[l][t]] = phase(w)
            f_rows.append(row)
        mats = {}
        ok = True
        for u in group.elements():
            rows = []
            for j, t in enumerate(reps):
                image = [zero] * n
                for h in (group.mult[l][t] for l in members):
                    src = f_rows[j][h]
                    image[group.mult[h][u]] = src * phase(tc.value(h, u))
                jp = coset_of[group.mult[t][u]]
                anchor = group.mult[members[0]][reps[jp]]
                c = image[anchor] / f_rows[jp][anchor]
                if any(
                    not (image[x] - c * f_rows[jp][x]).is_zero() for x in range(n)
                ):
                    ok = False
                    break
                row = [zero] * m
                row[jp] = c
                rows.append(tuple(row))
            if not ok:
                break
            mats[u] = tuple(rows)
        if not ok:
            raise AssertionError("induced span not closed under the twisted action")
        key = _char_key([mat_trace(mats[u]) for u in group.elements()])
        if key not in seen_chars:
            seen_chars.add(key)
            collected.append(mats)

    if len(collected) != len(radical):
        raise BasisError(
            f"expected {len(radical)} projective irreducibles, found {len(collected)}"
        )
    for mats in collected:
        for u in group.elements():
            for v in group.elements():
                lhs = mat_mul(mats[u], mats[v])
                rhs = mat_scale(phase(tc.value(u, v)), mats[group.mult[u][v]])
                if not mat_eq(lhs, rhs):
                    raise AssertionError(
                        f"induced representation has the wrong multiplier at ({u},{v})"
                    )
    return collected
