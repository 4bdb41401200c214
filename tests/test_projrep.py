import itertools
import math
import random
from fractions import Fraction

import pytest

from transfusion.cochains import (
    Cochain,
    CocycleError,
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
from transfusion.groupoids import inertia, nerve, point_groupoid
from transfusion.projrep import (
    center_dimension,
    linear_characters,
    normalize_cocycle,
    tau_regular_classes,
    twisted_rank,
)

F = Fraction
H = F(1, 2)


def constant(group, value):
    """The constant 2-cochain at value on the group groupoid."""
    gpd = point_groupoid(group)
    return Cochain(gpd, 2, dict.fromkeys(nerve(gpd, 2), value))


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
    tau = delta(b)
    assert normalize_cocycle(tau) == tau

    shifted = tau + constant(g4, F(1, 3))
    norm = normalize_cocycle(shifted)
    assert norm == tau
    # the shift is the constant 2-cochain at the value on (1, 1)
    assert shifted - norm == constant(g4, shifted.value((0, 0))) == constant(g4, F(1, 3))
    assert all(norm.value((0, g)) == 0 and norm.value((g, 0)) == 0 for g in g4.elements())


def test_normalize_rejects_non_cocycle():
    g4 = elementary_abelian(2, 2)
    bad = Cochain(point_groupoid(g4), 2, {(1, 2): F(1, 3)})
    with pytest.raises(CocycleError) as exc:
        normalize_cocycle(bad)
    assert exc.value.witness == (1, 1, 2)
    assert str(exc.value) == "cocycle identity fails at (1,1,2)"


def test_normalize_takes_a_cochain():
    s3 = symmetric(3)
    b = random_cochain(point_groupoid(s3), 1, random.Random("norm-cochain"))
    tau = delta(b) + constant(s3, F(1, 5))
    want = normalize_cocycle(tau)
    assert normalize_cocycle(cocycle(tau)) == want
    assert tau - want == constant(s3, tau.value((0, 0)))
    # only a degree-2 cochain on the group's one-object groupoid
    message = "expected a degree-2 cochain on the group groupoid"
    with pytest.raises(ValueError, match=message):
        normalize_cocycle(zero_cochain(inertia(point_groupoid(s3)).groupoid, 2))
    with pytest.raises(ValueError, match=message):
        normalize_cocycle(zero_cochain(point_groupoid(s3), 3))


def test_trivial_cocycle_counts_classes():
    for grp, classes in ((symmetric(3), 3), (dihedral(4), 5), (cyclic(4), 4)):
        tc = normalize_cocycle(zero_cochain(point_groupoid(grp), 2))
        assert twisted_rank(tc) == classes
        assert tau_regular_classes(tc) == sorted(tau_regular_classes(tc))
        assert center_dimension(tc) == classes


def test_linear_characters_of_small_cyclic_groups():
    # the trivial group has no generators and one character, the zero one
    assert linear_characters(cyclic(1)) == (1, [(0,)])
    assert linear_characters(cyclic(3)) == (3, [(0, 0, 0), (0, 1, 2), (0, 2, 1)])


def test_schur_class_on_klein_group():
    g4 = elementary_abelian(2, 2)
    tau = cup_class(g4, [(0, 1)], 2)
    tc = normalize_cocycle(tau)
    assert tau_regular_classes(tc) == [0]
    assert twisted_rank(tc) == 1
    assert center_dimension(tc) == 1
    # one irreducible of dimension 2: 1 * 2^2 = |G|
    assert twisted_rank(tc) * 4 == g4.order


def test_cube_sector_ranks_total_twenty_two():
    grp = elementary_abelian(2, 3)
    phi = poly_to_cocycle(parse_poly("xyz"), grp)
    total = 0
    for g in grp.elements():
        th, members = shuffle_transgression(phi, g)
        assert members == tuple(range(8))
        tc = normalize_cocycle(th)
        # normalized already: the shift is zero
        assert tc == th
        rank = twisted_rank(tc)
        assert rank == (8 if g == 0 else 2)
        assert center_dimension(tc) == rank
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
        tc = normalize_cocycle(tau)
        assert twisted_rank(tc) == center_dimension(tc)

    # (Z/2)^3: the eight classes generated by the three alternating cups
    g8 = elementary_abelian(2, 3)
    gens = [(0, 1), (0, 2), (1, 2)]
    reps = []
    for mask in range(8):
        pairs = [gens[i] for i in range(3) if mask >> i & 1]
        reps.append(cup_class(g8, pairs, 3))
    for tau in reps:
        tc = normalize_cocycle(tau)
        assert twisted_rank(tc) == center_dimension(tc)
    # the eight representatives are pairwise non-cohomologous
    for a, b in itertools.combinations(range(8), 2):
        diff = reps[a] - reps[b]
        assert commutator_pairing(reps[a]) != commutator_pairing(reps[b])
        assert coboundary_solve(diff) is None

    # Z/4 x Z/2: trivial class and the halved cup of the two reductions
    g42 = direct_product(cyclic(4), cyclic(2))
    fx = [(e // 2) % 2 for e in g42.elements()]
    fy = [e % 2 for e in g42.elements()]
    trivial = zero_cochain(point_groupoid(g42), 2)
    twisted = cup_one_cochains(g42, [fx, fy])
    assert coboundary_solve(twisted) is None
    for tau, want in ((trivial, 8), (twisted, 2)):
        tc = normalize_cocycle(tau)
        rank = twisted_rank(tc)
        assert rank == want
        assert center_dimension(tc) == rank


def test_rank_is_class_invariant():
    g8 = elementary_abelian(2, 3)
    tau = cup_class(g8, [(0, 1), (1, 2)], 3)
    b = random_cochain(point_groupoid(g8), 1, random.Random("invariant"))
    shifted = tau + delta(b)
    tc1 = normalize_cocycle(tau)
    tc2 = normalize_cocycle(shifted)
    assert twisted_rank(tc1) == twisted_rank(tc2) == 2


def test_algebra_guards():
    g4 = elementary_abelian(2, 2)
    # constant cochains satisfy the identity, and center_dimension takes
    # only normalized ones
    with pytest.raises(ValueError, match="algebra expects a normalized cocycle"):
        center_dimension(constant(g4, F(1, 4)))
