import itertools
import math
import random
from fractions import Fraction

import pytest

from transfusion.cochains import (
    Cochain,
    coboundary_solve,
    cocycle,
    commutator_pairing,
    cup_one_cochains,
    delta,
    dual_cochains,
    parse_poly,
    poly_to_cocycle,
    random_cochain,
    shuffle_transgression,
    zero_cochain,
)
from transfusion.groups import (
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    symmetric,
)
from transfusion.groupoids import point_groupoid
from transfusion.projrep import (
    CocycleError,
    center_dimension,
    make_twisted_algebra,
    normalize_cocycle,
    tau_regular_classes,
    twisted_rank,
)

F = Fraction
H = F(1, 2)


def angle_table(group, c):
    """The G x G angle table of a degree-2 cochain on the group groupoid."""
    return tuple(tuple(c.value((g, h)) for h in group.elements()) for g in group.elements())


def zero_table(group):
    return [[F(0)] * group.order for _ in group.elements()]


def cup_class(group, pairs, n):
    """Sum of halved cup products of digit duals over the index pairs."""
    duals = dual_cochains(group, n)
    acc = zero_cochain(point_groupoid(group), 2)
    for i, j in pairs:
        acc = acc + cup_one_cochains(group, [duals[i], duals[j]])
    return acc


def test_normalize_roundtrip_and_shift():
    g4 = elementary_abelian(2, 2)
    b = random_cochain(point_groupoid(g4), 1, random.Random("norm"))
    b = b - Cochain(point_groupoid(g4), 1, {(0,): b.value((0,))})
    tau = angle_table(g4, delta(b))
    tc, rho = normalize_cocycle(g4, tau)
    assert rho == tuple([F(0)] * 4)
    assert tuple(tuple(tc.value(g, h) for h in g4.elements()) for g in g4.elements()) == tau

    shifted = [[(v + F(1, 3)) % 1 for v in row] for row in tau]
    tc2, rho2 = normalize_cocycle(g4, shifted)
    assert rho2 == tuple([F(1, 3)] * 4)
    assert tc2.values == tc.values
    assert all(tc2.values[0][g] == 0 and tc2.values[g][0] == 0 for g in g4.elements())


def test_normalize_rejects_non_cocycle():
    g4 = elementary_abelian(2, 2)
    table = zero_table(g4)
    table[1][2] = F(1, 3)
    with pytest.raises(CocycleError) as exc:
        normalize_cocycle(g4, table)
    assert exc.value.witness == (1, 1, 2)
    assert str(exc.value) == "cocycle identity fails at (1,1,2)"
    with pytest.raises(CocycleError):
        normalize_cocycle(g4, table[1:])


def test_normalize_takes_a_cochain():
    s3 = symmetric(3)
    b = random_cochain(point_groupoid(s3), 1, random.Random("norm-cochain"))
    tau = delta(b) + Cochain(point_groupoid(s3), 2, {(g, h): F(1, 5) for g in range(6) for h in range(6)})
    want = normalize_cocycle(s3, angle_table(s3, tau))
    assert normalize_cocycle(s3, tau) == want
    assert normalize_cocycle(s3, cocycle(tau)) == want


def test_trivial_cocycle_counts_classes():
    for grp, classes in ((symmetric(3), 3), (dihedral(4), 5), (cyclic(4), 4)):
        tc, _ = normalize_cocycle(grp, zero_table(grp))
        assert twisted_rank(tc) == classes
        assert tau_regular_classes(tc) == sorted(tau_regular_classes(tc))
        assert center_dimension(make_twisted_algebra(tc)) == classes


def test_schur_class_on_klein_group():
    g4 = elementary_abelian(2, 2)
    tau = cup_class(g4, [(0, 1)], 2)
    tc, _ = normalize_cocycle(g4, tau)
    assert tau_regular_classes(tc) == [0]
    assert twisted_rank(tc) == 1
    assert center_dimension(make_twisted_algebra(tc)) == 1
    # one irreducible of dimension 2: 1 * 2^2 = |G|
    assert twisted_rank(tc) * 4 == g4.order


def test_cube_sector_ranks_total_twenty_two():
    grp = elementary_abelian(2, 3)
    phi = poly_to_cocycle(parse_poly("xyz"), grp)
    total = 0
    for g in grp.elements():
        th, zgrp, members = shuffle_transgression(grp, phi, g)
        assert members == tuple(range(8))
        tc, rho = normalize_cocycle(zgrp, th)
        assert rho == tuple([F(0)] * 8)
        rank = twisted_rank(tc)
        assert rank == (8 if g == 0 else 2)
        assert center_dimension(make_twisted_algebra(tc)) == rank
        if g != 0:
            quot = grp.order // rank
            d = math.isqrt(quot)
            assert d * d == quot
        total += rank
    assert total == 22


def test_center_matches_rank_on_all_classes():
    # (Z/2)^2: two classes
    g4 = elementary_abelian(2, 2)
    for pairs in ([], [(0, 1)]):
        tau = cup_class(g4, pairs, 2)
        tc, _ = normalize_cocycle(g4, tau)
        assert twisted_rank(tc) == center_dimension(make_twisted_algebra(tc))

    # (Z/2)^3: the eight classes generated by the three alternating cups
    g8 = elementary_abelian(2, 3)
    gens = [(0, 1), (0, 2), (1, 2)]
    reps = []
    for mask in range(8):
        pairs = [gens[i] for i in range(3) if mask >> i & 1]
        reps.append(cup_class(g8, pairs, 3))
    for tau in reps:
        tc, _ = normalize_cocycle(g8, tau)
        assert twisted_rank(tc) == center_dimension(make_twisted_algebra(tc))
    # the eight representatives are pairwise non-cohomologous
    for a, b in itertools.combinations(range(8), 2):
        diff = reps[a] - reps[b]
        assert commutator_pairing(g8, reps[a]) != commutator_pairing(g8, reps[b])
        assert coboundary_solve(diff) is None

    # Z/4 x Z/2: trivial class and the halved cup of the two reductions
    g42 = direct_product(cyclic(4), cyclic(2))
    fx = [(e // 2) % 2 for e in g42.elements()]
    fy = [e % 2 for e in g42.elements()]
    trivial = zero_cochain(point_groupoid(g42), 2)
    twisted = cup_one_cochains(g42, [fx, fy])
    assert coboundary_solve(twisted) is None
    for tau, want in ((trivial, 8), (twisted, 2)):
        tc, _ = normalize_cocycle(g42, tau)
        rank = twisted_rank(tc)
        assert rank == want
        assert center_dimension(make_twisted_algebra(tc)) == rank


def test_rank_is_class_invariant():
    g8 = elementary_abelian(2, 3)
    tau = cup_class(g8, [(0, 1), (1, 2)], 3)
    b = random_cochain(point_groupoid(g8), 1, random.Random("invariant"))
    shifted = tau + delta(b)
    tc1, _ = normalize_cocycle(g8, tau)
    tc2, _ = normalize_cocycle(g8, shifted)
    assert twisted_rank(tc1) == twisted_rank(tc2) == 2


def test_algebra_guards():
    g4 = elementary_abelian(2, 2)
    from transfusion.projrep import TwoCocycleGroup

    # constant tables satisfy the identity
    unnormalized = TwoCocycleGroup(group=g4, modulus=4, values=((1,) * 4,) * 4)
    with pytest.raises(ValueError):
        make_twisted_algebra(unnormalized)
