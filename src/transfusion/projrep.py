"""Projective representations over an explicit 2-cocycle.

A 2-cocycle on a finite group twists its group algebra; the number of
irreducible projective representations for that cocycle equals the number
of regular conjugacy classes (g is regular when the normalized cocycle is
symmetric against every element of the centralizer of g). That count is
validated here against an independent oracle: the dimension of the center
of the twisted group algebra, computed by exact linear algebra over a
cyclotomic field.

The irreducibles themselves are built by one construction for every
cocycle, the zero one included: monomial induction of alpha-characters,
the 1-cochains on a subgroup whose coboundary is the cocycle there.

Cocycles, characters and alpha-characters are integers over a modulus.
Fraction appears only at the edges: the angle table normalize_cocycle
accepts and the shift it returns, TwoCocycleGroup.value, and the
center_dimension oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .cochains import (
    Cochain,
    CocycleError,
    _cochain,
    coboundary_solve,
    cocycle,
    group_cochain,
)
from .cyclotomic import (
    Cyclotomic,
    MonomialMatrix,
    as_cyclotomic,
    matrix_rank,
    phase,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    centralizer,
    conjugacy_classes,
    subgroup_as_group,
    subgroup_generated,
)
from .groupoids import point_groupoid

ALGEBRA_ORDER_CAP = 64


class BasisError(RuntimeError):
    """A representation search did not produce a complete set."""


@dataclass(frozen=True)
class TwoCocycleGroup:
    """Normalized 2-cocycle, values[1][g] = values[g][1] = 0: values[g][h]
    is an integer standing for itself over the modulus, mod 1."""

    group: FiniteGroup
    modulus: int
    values: Sequence[Sequence[int]]

    def value(self, g: int, h: int) -> Fraction:
        return Fraction(self.values[g][h], self.modulus)


def normalize_cocycle(
    group: FiniteGroup, values
) -> Tuple[TwoCocycleGroup, Tuple[Fraction, ...]]:
    """Validate the cocycle identity, then shift by a coboundary so both
    margins through the identity vanish.

    values is a degree-2 cochain on the group's one-object groupoid or a
    G x G table of angles. The identity is checked by one delta sweep,
    skipped for a Cocycle; a failure raises CocycleError at the first
    failing triple (g, h, k). The identity forces tau(1,g) = tau(g,1) =
    tau(1,1) for all g, so the shift is the coboundary of the constant
    1-cochain at tau(1,1). Returns the normalized cocycle, over the least
    modulus that holds its values, and that shifting 1-cochain.
    """
    n = group.order
    if not isinstance(values, Cochain):
        if len(values) != n or any(len(row) != n for row in values):
            raise CocycleError("table shape does not match the group order")
        values = group_cochain(
            group, 2, {(g, h): v for g, row in enumerate(values) for h, v in enumerate(row)}
        )
    if values.groupoid is not point_groupoid(group) or values.degree != 2:
        raise ValueError("expected a degree-2 cochain on the group groupoid")
    cocycle(values)
    # (g, h) sits at position g*|G| + h
    modulus, c = values.modulus, values.values[0]
    shifted = [(v - c) % modulus for v in values.values]
    common = math.gcd(modulus, *shifted)
    table = tuple(
        tuple([v // common for v in shifted[g * n : (g + 1) * n]]) for g in range(n)
    )
    if any(table[0]) or any(row[0] for row in table):
        raise AssertionError("normalization failed; identity margin nonzero")
    rho = tuple([Fraction(c, modulus)] * n)
    return TwoCocycleGroup(group=group, modulus=modulus // common, values=table), rho


def tau_regular_classes(tc: TwoCocycleGroup) -> List[int]:
    """Representatives of the regular conjugacy classes.

    Regularity is computed for every member of each class and asserted
    constant across the class rather than assumed.
    """
    group = tc.group
    v, modulus = tc.values, tc.modulus
    part = conjugacy_classes(group)
    reps = []
    for cls in part.classes:
        flags = []
        for x in cls:
            zen = centralizer(group, x)
            flags.append(all((v[x][h] - v[h][x]) % modulus == 0 for h in zen.members))
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


def make_twisted_algebra(tc: TwoCocycleGroup) -> TwistedAlgebra:
    group = tc.group
    if group.order > ALGEBRA_ORDER_CAP:
        raise ValueError(f"algebra oracle capped at order {ALGEBRA_ORDER_CAP}")
    if any(tc.values[0][g] or tc.values[g][0] for g in group.elements()):
        raise ValueError("algebra expects a normalized cocycle")
    return TwistedAlgebra(cocycle=tc)


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


def linear_characters(group: FiniteGroup) -> Tuple[int, List[Tuple[int, ...]]]:
    """All homomorphisms into Q/Z, as (L, value tuples indexed by element):
    each value is an integer v in 0..L-1 standing for v/L, and L is the lcm
    of the generator orders. The tuples are sorted.

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
        return 1, [(0,)]
    orders = [group.element_order(g) for g in gens]
    # values are integers mod L, standing for v/L
    L = math.lcm(*orders)
    mult = group.mult
    out = []
    for combo in itertools.product(*[range(o) for o in orders]):
        steps = [c * (L // o) for c, o in zip(combo, orders)]
        vals: List[Optional[int]] = [None] * group.order
        vals[0] = 0
        frontier = [0]
        consistent = True
        while frontier and consistent:
            x = frontier.pop()
            for g, step in zip(gens, steps):
                y = mult[x][g]
                v = (vals[x] + step) % L
                if vals[y] is None:
                    vals[y] = v
                    frontier.append(y)
                elif vals[y] != v:
                    consistent = False
                    break
        if not consistent:
            continue
        assert all(v is not None for v in vals)
        # the full homomorphism sweep, one row of products at a time
        if all(
            [vals[m] for m in mult[a]] == [(va + vb) % L for vb in vals]
            for a, va in enumerate(vals)
        ):
            out.append(tuple(vals))
    out.sort()
    return L, out


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


def _char_key(vals: List[Cyclotomic]) -> Tuple[Tuple[Fraction, ...], ...]:
    m = 1
    for v in vals:
        m = math.lcm(m, v.conductor)
    return tuple(v.key_at(m) for v in vals)


def projective_irreducibles(
    group: FiniteGroup,
    tau: Sequence[Sequence[int]],
    modulus: int,
    subgroups: Sequence[Tuple[int, ...]],
) -> List[List[MonomialMatrix]]:
    """Irreducible projective representations whose multiplier is exactly
    tau, by induction of alpha-characters from subgroups.

    tau is a normalized 2-cocycle as integers over the modulus, and
    subgroups is every subgroup of the group as a sorted member tuple. Each
    result is indexed by element and satisfies mats[u] @ mats[v] ==
    zeta^tau[u][v] * mats[uv] with zeta = exp(2 pi i / modulus); the callers
    check that equation on every pair.

    Subgroups H are taken largest first. An alpha-character of H is a
    1-cochain alpha with delta(alpha) = tau on H: a coboundary solve gives
    one, lambda, and the others are lambda + chi for the linear characters
    chi. tau restricted to H is a coboundary only if tau(a,b) = tau(b,a) on
    every commuting pair, so other subgroups are skipped unsolved. Inducing
    along the right cosets H*t, the element u moves coset j to the coset of
    t_j*u = h*t_j' with exponent tau(t_j,u) - tau(h,t_j') + alpha(h).
    Inductions are screened with the exact character inner product and kept
    when irreducible and new, until their squared dimensions exhaust the
    group order. A group with a non-monomial irreducible makes that
    impossible, and raises BasisError instead of returning a short list.
    With the zero cocycle these are the ordinary irreducibles.
    """
    n = group.order
    mult = group.mult
    found: List[List[MonomialMatrix]] = []
    seen_chars = set()
    total = 0
    for members in sorted(subgroups, key=lambda mm: (-len(mm), mm)):
        if total == n:
            break
        d = n // len(members)
        if total + d * d > n:
            continue
        if any(
            tau[a][b] != tau[b][a]
            for a in members
            for b in members
            if mult[a][b] == mult[b][a]
        ):
            continue
        sub, mem = subgroup_as_group(Subgroup(parent=group, members=members))
        # tau on the subgroup's one-object groupoid: (i, j) sits at i*|H| + j
        restricted = [tau[a][b] % modulus for a in mem for b in mem]
        if any(restricted):
            lam = coboundary_solve(_cochain(point_groupoid(sub), 2, modulus, restricted))
            if lam is None:
                continue
        else:
            # zero is the coboundary of zero, without a Smith solve
            lam = group_cochain(sub, 1, {})
        reps = _right_coset_reps(group, members)
        coset_of = {mult[h][t]: (j, h) for j, t in enumerate(reps) for h in members}
        moves = [[coset_of[mult[t][u]] for t in reps] for u in group.elements()]
        # alpha = lambda + chi, integers over a common multiple m of the
        # moduli of tau, lambda and the characters
        L, chars = linear_characters(sub)
        m = math.lcm(modulus, lam.modulus, L)
        step = m // modulus
        lam_at = [v * (m // lam.modulus) for v in lam.values]
        for chi in chars:
            alpha_at = {h: lv + c * (m // L) for h, lv, c in zip(mem, lam_at, chi)}
            mats = []
            for u in group.elements():
                perm = []
                exps = []
                for t, (jp, h) in zip(reps, moves[u]):
                    perm.append(jp)
                    exps.append(
                        ((tau[t][u] - tau[h][reps[jp]]) * step + alpha_at[h]) % m
                    )
                # each matrix at its smallest modulus
                c = math.gcd(m, *exps)
                mats.append(MonomialMatrix(perm, [e // c for e in exps], m // c))
            char = [x.trace() for x in mats]
            ip = as_cyclotomic(0)
            for x in char:
                ip = ip + x * x.conj()
            if not (ip.is_rational() and ip.rational_value() == n):
                continue
            key = _char_key(char)
            if key in seen_chars:
                continue
            seen_chars.add(key)
            found.append(mats)
            total += d * d
            if total == n:
                break
    if total != n:
        raise BasisError(
            f"monomial induction reached squared-dimension total {total} of {n}"
        )
    return found
