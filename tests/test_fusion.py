"""Fusion layer: contexts, twisted bundles, the star product, characters."""

import itertools
import random
from fractions import Fraction

import pytest

from transfusion.cochains import (
    cup_one_cochains,
    delta,
    parse_poly,
    poly_to_cocycle,
    random_cochain,
    zero_cochain,
)
from transfusion.cyclotomic import MonomialMatrix, as_cyclotomic, mat_trace, phase
from transfusion.fusion import (
    associativity_violation,
    basis_bundles,
    bundle_violation,
    character,
    fusion_table,
    kclass_add,
    kclass_eq,
    kclass_keys,
    kclass_star,
    kclass_sub,
    make_context,
    regular_bundle,
    star,
    TwistedBundle,
    unit_bundle,
    untwisted_star,
)
from transfusion.groupoids import point_groupoid
from transfusion.groups import cyclic, dihedral, elementary_abelian, symmetric
from transfusion.projrep import BasisError, linear_characters

_CTX = {}


def cube_context():
    if "cube" not in _CTX:
        group = elementary_abelian(2, 3)
        _CTX["cube"] = make_context(group, poly_to_cocycle(parse_poly("xyz"), group))
    return _CTX["cube"]


def s3_context():
    if "s3" not in _CTX:
        group = symmetric(3)
        _CTX["s3"] = make_context(group, zero_cochain(point_groupoid(group), 3))
    return _CTX["s3"]


def d4_context():
    if "d4" not in _CTX:
        group = dihedral(4)
        _CTX["d4"] = make_context(group, zero_cochain(point_groupoid(group), 3))
    return _CTX["d4"]


def z2_context():
    if "z2" not in _CTX:
        group = cyclic(2)
        _CTX["z2"] = make_context(group, zero_cochain(point_groupoid(group), 3))
    return _CTX["z2"]


def trace_table(v):
    """Raw character table without the validation pass of character()."""
    zero = as_cyclotomic(0)
    return {
        (g, u): mat_trace(v.maps[(g, u)].dense()) if v.dims[g] else zero
        for g, u in kclass_keys(v.context)
    }


def tables_equal(t1, t2):
    return all((t1[k] - t2[k]).is_zero() for k in t1)


def test_context_invariants_and_rejections():
    ctx = cube_context()
    assert ctx.validation == "full"
    assert ctx.conductor == 2
    # a coboundary is a valid twist too, and the identities must still hold
    z4 = cyclic(4)
    rng = random.Random("ctx")
    ctx2 = make_context(z4, delta(random_cochain(point_groupoid(z4), 2, rng)))
    assert ctx2.validation == "full"

    base = point_groupoid(z4)
    with pytest.raises(ValueError):
        make_context(z4, random_cochain(base, 3, rng))  # almost surely not closed
    with pytest.raises(ValueError):
        make_context(z4, zero_cochain(base, 2))  # wrong degree
    other = point_groupoid(cyclic(2))
    with pytest.raises(ValueError):
        make_context(z4, zero_cochain(other, 3))  # wrong groupoid


def test_context_normalization_flags():
    assert cube_context().normalized
    assert s3_context().normalized
    # generic coboundary twists have nonzero identity margins
    z4 = cyclic(4)
    rng = random.Random("nn")
    ctx = make_context(z4, delta(random_cochain(point_groupoid(z4), 2, rng)))
    assert not ctx.normalized
    with pytest.raises(ValueError):
        basis_bundles(ctx)
    with pytest.raises(ValueError):
        regular_bundle(ctx)


def test_bundle_validator_negative_controls():
    ctx = cube_context()
    reg = regular_bundle(ctx)
    assert bundle_violation(reg) is None

    # flip one map by a half phase: composition must fail and name a triple
    bad_maps = dict(reg.maps)
    bad_maps[(0, 3)] = MonomialMatrix.from_dense(
        tuple(phase(Fraction(1, 2)) * x for x in row) for row in bad_maps[(0, 3)].dense()
    )
    bad = TwistedBundle(context=ctx, dims=reg.dims, maps=bad_maps)
    w = bundle_violation(bad)
    assert w == ("composition", (0, 1, 2))

    # breaking the identity map is caught before compositions
    bad_maps2 = dict(reg.maps)
    bad_maps2[(0, 0)] = bad_maps[(0, 3)]
    w2 = bundle_violation(TwistedBundle(context=ctx, dims=reg.dims, maps=bad_maps2))
    assert w2 is not None and w2[0] in ("identity-map", "matrix-shape")

    # grading must be constant on conjugacy classes
    ctx3 = s3_context()
    lop = tuple(1 if g == 1 else 0 for g in range(6))
    w3 = bundle_violation(TwistedBundle(context=ctx3, dims=lop, maps={}))
    assert w3 is not None and w3[0] == "dims-not-class-constant"


def test_unit_and_regular_bundles_frozen():
    ctx = cube_context()
    n = ctx.group.order
    unit = unit_bundle(ctx)
    assert bundle_violation(unit) is None
    cu = character(unit)
    for g, u in kclass_keys(ctx):
        want = 1 if g == 0 else 0
        assert cu.value(g, u) == want

    reg = regular_bundle(ctx)
    creg = character(reg)
    for g, u in kclass_keys(ctx):
        if g == 0 and u == 0:
            assert creg.value(g, u) == n
        else:
            assert creg.value(g, u) == 0


def test_cube_basis_reproduces_rank_pattern():
    ctx = cube_context()
    basis = basis_bundles(ctx)
    assert len(basis) == 22
    per_sector = {}
    for v in basis:
        assert bundle_violation(v) is None
        (g,) = v.support()
        per_sector.setdefault(g, []).append(sum(v.dims))
    assert sorted(per_sector[0]) == [1] * 8
    for g in range(1, 8):
        assert sorted(per_sector[g]) == [2, 2]
    # characters pairwise distinct
    tables = [trace_table(v) for v in basis]
    for i in range(len(tables)):
        for j in range(i + 1, len(tables)):
            assert not tables_equal(tables[i], tables[j])


def test_character_covariance_and_vanishing():
    for ctx, picks in ((cube_context(), (9, 21)), (s3_context(), (0, None))):
        basis = basis_bundles(ctx)
        group = ctx.group
        for idx in picks:
            if idx is None:
                continue
            ch = character(basis[idx])
            for g, u in kclass_keys(ctx):
                for v in group.elements():
                    gv = group.conjugate(g, v)
                    uv = group.conjugate(u, v)
                    lhs = ch.value(gv, uv)
                    rhs = phase(
                        ctx.tau_value(g, v, uv) - ctx.tau_value(g, u, v)
                    ) * ch.value(g, u)
                    assert (lhs - rhs).is_zero()
    # on an abelian group that covariance forces vanishing off the radical
    ctx = cube_context()
    v9 = basis_bundles(ctx)[9]
    (g0,) = v9.support()
    ch = character(v9)
    for g, u in kclass_keys(ctx):
        if (g, u) in ((g0, 0), (g0, g0)):
            assert not ch.value(g, u).is_zero()
        else:
            assert ch.value(g, u).is_zero()


def test_star_matches_class_level_product():
    ctx = cube_context()
    basis = basis_bundles(ctx)
    chars = [character(v) for v in basis]
    rng = random.Random("pairs")
    for _ in range(12):
        i = rng.randrange(len(basis))
        j = rng.randrange(len(basis))
        prod = star(basis[i], basis[j])
        assert bundle_violation(prod) is None
        assert kclass_eq(character(prod), kclass_star(chars[i], chars[j]))


def test_unit_is_strict_two_sided():
    for ctx in (cube_context(), s3_context()):
        basis = basis_bundles(ctx)
        unit = unit_bundle(ctx)
        for v in (basis[0], basis[len(basis) // 2], basis[-1]):
            for prod in (star(unit, v), star(v, unit)):
                assert prod.dims == v.dims
                assert all(prod.maps[k] == v.maps[k] for k in v.maps)


def test_untwisted_star_agreement():
    # dihedral:4 puts the nonabelian induced-monomial irreducibles under test
    for ctx in (z2_context(), s3_context(), d4_context()):
        basis = basis_bundles(ctx)
        for a, b in itertools.product(basis, repeat=2):
            s = star(a, b)
            o = untwisted_star(a, b)
            assert s.dims == o.dims
            assert all(s.maps[k] == o.maps[k] for k in s.maps)
    with pytest.raises(ValueError):
        b = basis_bundles(cube_context())
        untwisted_star(b[0], b[0])


def test_structure_constants_untwisted_frozen():
    # Z/2: four basis lines; every product is again a single basis line
    ctx = z2_context()
    basis = basis_bundles(ctx)
    assert len(basis) == 4
    sc = fusion_table(ctx, basis).constants
    for i in range(4):
        for j in range(4):
            row = sc[i][j]
            assert sum(row) == 1 and set(row) <= {0, 1}
            assert sc[i][j] == sc[j][i]

    # S3, trivial twist: 8 basis classes
    ctx3 = s3_context()
    basis3 = basis_bundles(ctx3)
    assert len(basis3) == 8
    sc3 = fusion_table(ctx3, basis3).constants
    dims = [sum(v.dims) for v in basis3]
    unit = unit_bundle(ctx3)
    cu = character(unit)
    unit_idx = [i for i, v in enumerate(basis3) if kclass_eq(character(v), cu)]
    assert len(unit_idx) == 1
    e = unit_idx[0]
    for i in range(8):
        for j in range(8):
            row = sc3[i][j]
            assert all(c >= 0 for c in row)
            assert sc3[i][j] == sc3[j][i]
            # grading: total dimension is multiplicative
            assert sum(c * dims[k] for k, c in enumerate(row)) == dims[i] * dims[j]
        assert sc3[e][i] == tuple(1 if k == i else 0 for k in range(8))


def test_fusion_table_reports_non_integer_coefficients():
    # the trivial line over the identity doubled: sign * sign is then half
    # of basis 0, which must come back as a failure, not an exception
    ctx = z2_context()
    basis = basis_bundles(ctx)
    doubled = TwistedBundle(
        context=ctx,
        dims=(2, 0),
        maps={(0, 0): MonomialMatrix.identity(2), (0, 1): MonomialMatrix.identity(2)},
    )
    assert bundle_violation(doubled) is None
    table = fusion_table(ctx, [doubled] + basis[1:])
    assert (1, 1) in table.non_integer
    assert table.constants[1][1] is None
    assert not table.invalid and not table.outside_span
    assert not table.complete()
    assert table.constants[0][1] == (0, 2, 0, 0)


def test_fusion_table_reports_products_outside_the_span():
    # without the trivial line over the identity, the squares land on it
    ctx = z2_context()
    table = fusion_table(ctx, basis_bundles(ctx)[1:])
    outside = {(a, b): keys for a, b, keys in table.outside_span}
    assert set(outside) == {(0, 0), (1, 1), (2, 2)}
    for keys in outside.values():
        assert keys and all(k in kclass_keys(ctx) for k in keys)
    assert table.unit_candidates == []
    assert not table.invalid and not table.non_integer
    assert not table.complete() and table.nonassociative is None
    assert table.constants[1][2] == (1, 0, 0)


def test_associativity_violation_finds_the_first_triple():
    # e0 e0 = e0, e0 e1 = e1, e1 e0 = 0, e1 e1 = e1: the first triple whose
    # two bracketings differ is (1, 0, 1)
    table = (((1, 0), (0, 1)), ((0, 0), (0, 1)))
    assert associativity_violation(table) == (1, 0, 1)
    group_ring = (((1, 0), (0, 1)), ((0, 1), (1, 0)))
    assert associativity_violation(group_ring) is None


def test_twisted_nonabelian_basis_refused():
    s3 = symmetric(3)
    sign = list(linear_characters(s3)[1])
    ctx = make_context(s3, cup_one_cochains(s3, [sign, sign, sign]))
    assert not ctx.tau.is_zero()
    with pytest.raises(BasisError):
        basis_bundles(ctx)


def test_kclass_arithmetic():
    ctx = cube_context()
    basis = basis_bundles(ctx)
    a, b, c = (character(basis[i]) for i in (2, 9, 17))
    assert kclass_eq(kclass_sub(kclass_add(a, b), b), a)
    # the class-level product is biadditive
    left = kclass_star(kclass_add(a, b), c)
    right = kclass_add(kclass_star(a, c), kclass_star(b, c))
    assert kclass_eq(left, right)
    # virtual classes subtract to zero only when equal
    assert not kclass_eq(a, b)
    diff = kclass_sub(a, a)
    assert all(diff.table[k].is_zero() for k in diff.table)


def test_dimension_grading():
    ctx = cube_context()
    basis = basis_bundles(ctx)
    rng = random.Random("dims")
    for _ in range(8):
        a = basis[rng.randrange(len(basis))]
        b = basis[rng.randrange(len(basis))]
        assert sum(star(a, b).dims) == sum(a.dims) * sum(b.dims)
