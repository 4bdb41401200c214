"""Projective representations over an explicit 2-cocycle.

A 2-cocycle on a finite group is a degree-2 Cochain on the group's
one-object groupoid, whose value at (g, h) sits at position g*|G| + h. It
twists the group algebra; the number of irreducible projective
representations for that cocycle equals the number of regular conjugacy
classes (g is regular when the cocycle is symmetric against every element
of the centralizer of g). That count is validated here against an
independent oracle: the dimension of the center of the twisted group
algebra, computed by exact linear algebra over a cyclotomic field.

The irreducibles themselves are built by one construction for every
cocycle, the zero one included: monomial induction of alpha-characters,
the 1-cochains on a subgroup whose coboundary is the cocycle there.

Cocycles, characters and alpha-characters are integers over a modulus;
this module builds no Fraction. The center_dimension oracle reads its
phases as integers over tau.modulus.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Optional, Sequence, Tuple

from .cochains import (
    Cochain,
    coboundary_solve,
    cocycle,
    group_cochain,
    pullback,
)
from .cyclotomic import (
    Cyclotomic,
    MonomialMatrix,
    as_cyclotomic,
    matrix_rank,
    root,
)
from .groups import (
    FiniteGroup,
    centralizer,
    conjugacy_classes,
    subgroup_as_group,
    subgroup_generated,
)
from .groupoids import make_hom, nerve, point_groupoid

ALGEBRA_ORDER_CAP = 64


class BasisError(RuntimeError):
    """A representation search did not produce a complete set."""


def _group_of(tau: Cochain) -> FiniteGroup:
    """The group of a degree-2 cochain on its one-object groupoid."""
    group = tau.groupoid.group
    if tau.groupoid is not point_groupoid(group) or tau.degree != 2:
        raise ValueError("expected a degree-2 cochain on the group groupoid")
    return group


def normalize_cocycle(tau: Cochain) -> Cochain:
    """Validate the cocycle identity, then shift by a constant so both
    margins through the identity vanish.

    tau is a degree-2 cochain on a group's one-object groupoid. The
    identity is checked by one delta sweep, skipped for a Cocycle; a
    failure raises CocycleError at the first failing triple (g, h, k). The
    identity forces tau(1,g) = tau(g,1) = tau(1,1) for all g, so the
    result is tau minus the constant 2-cochain at tau(1,1).
    """
    group = _group_of(tau)
    tau = cocycle(tau)
    shift = tau.value_at(0)
    if shift:
        gpd = tau.groupoid
        tau = tau - Cochain(gpd, 2, dict.fromkeys(nerve(gpd, 2), shift))
    n = group.order
    if any(tau.values[:n]) or any(tau.values[::n]):
        raise AssertionError("normalization failed; identity margin nonzero")
    return tau


def tau_regular_classes(tau: Cochain) -> List[int]:
    """Representatives of the regular conjugacy classes of a 2-cocycle.

    Regularity is computed for every member of each class and asserted
    constant across the class rather than assumed.
    """
    group = _group_of(tau)
    n, v = group.order, tau.values
    part = conjugacy_classes(group)
    reps = []
    for cls in part.classes:
        flags = []
        for x in cls:
            flags.append(all(v[x * n + h] == v[h * n + x] for h in centralizer(group, x)))
        if any(f != flags[0] for f in flags):
            raise AssertionError(
                f"regularity differs inside the class of {cls[0]}; convention bug"
            )
        if flags[0]:
            reps.append(cls[0])
    return reps


def twisted_rank(tau: Cochain) -> int:
    """Number of irreducible projective representations for a 2-cocycle."""
    return len(tau_regular_classes(tau))


def center_dimension(tau: Cochain) -> int:
    """Dimension of the center of the group algebra twisted by a normalized
    2-cocycle, by solving z e_g = e_g z for all g.

    The basis vector for g times the one for h is exp(2 pi i tau(g,h))
    times the one for gh. Matching coefficients of the basis vector at m
    in z e_g = e_g z gives one linear equation per (g, m) over the
    cyclotomic field; the center is the kernel of the stacked system.
    """
    group = _group_of(tau)
    n, v, modulus = group.order, tau.values, tau.modulus
    if n > ALGEBRA_ORDER_CAP:
        raise ValueError(f"algebra oracle capped at order {ALGEBRA_ORDER_CAP}")
    if any(v[:n]) or any(v[::n]):
        raise ValueError("algebra expects a normalized cocycle")
    zero = as_cyclotomic(0)
    rows = []
    for g in group.elements():
        ginv = group.inv[g]
        for m in group.elements():
            h1 = group.mult[m][ginv]
            h2 = group.mult[ginv][m]
            row = [zero] * n
            row[h1] = row[h1] + root(v[h1 * n + g], modulus)
            row[h2] = row[h2] - root(v[g * n + h2], modulus)
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
            reached = set(subgroup_generated(group, gens))
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


def _char_key(vals: List[Cyclotomic]) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    m = 1
    for v in vals:
        m = math.lcm(m, v.conductor)
    return tuple(v.key_at(m) for v in vals)


def projective_irreducibles(
    tau: Cochain, subgroups: Sequence[Tuple[int, ...]]
) -> List[List[MonomialMatrix]]:
    """Irreducible projective representations whose multiplier is exactly
    tau, by induction of alpha-characters from subgroups.

    tau is a normalized 2-cocycle on a group's one-object groupoid, and
    subgroups is every subgroup of the group as a sorted member tuple. Each
    result is indexed by element and satisfies mats[u] @ mats[v] ==
    zeta^tau(u,v) * mats[uv] with zeta = exp(2 pi i / tau.modulus); the
    callers check that equation on every pair.

    Subgroups H are taken largest first. An alpha-character of H is a
    1-cochain alpha with delta(alpha) = tau on H, the pullback of tau along
    the inclusion: a coboundary solve gives one, lambda, and the others are
    lambda + chi for the linear characters chi. tau restricted to H is a
    coboundary only if tau(a,b) = tau(b,a) on every commuting pair, so
    other subgroups are skipped unsolved. Inducing along the right cosets
    H*t, the element u moves coset j to the coset of t_j*u = h*t_j' with
    exponent tau(t_j,u) - tau(h,t_j') + alpha(h). Inductions are screened
    with the exact character inner product and kept when irreducible and
    new, until their squared dimensions exhaust the group order. A group
    with a non-monomial irreducible makes that impossible, and raises
    BasisError instead of returning a short list. With the zero cocycle
    these are the ordinary irreducibles.
    """
    group = _group_of(tau)
    n = group.order
    mult = group.mult
    modulus = tau.modulus
    rows = [tau.values[i : i + n] for i in range(0, n * n, n)]
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
            rows[a][b] != rows[b][a]
            for a in members
            for b in members
            if mult[a][b] == mult[b][a]
        ):
            continue
        sub, mem = subgroup_as_group(group, members)
        inclusion = make_hom(point_groupoid(sub), tau.groupoid, [0], mem)
        restricted = pullback(inclusion, tau)
        if not restricted.is_zero():
            lam = coboundary_solve(restricted)
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
                        ((rows[t][u] - rows[h][reps[jp]]) * step + alpha_at[h]) % m
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
