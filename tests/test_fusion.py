"""Fusion layer: contexts, twisted bundles, the star product, characters."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from transfusion.cochains import (
    cup_one_cochains,
    delta,
    group_cochain,
    parse_poly,
    poly_to_cocycle,
    random_cochain,
    zero_cochain,
)
from transfusion import fusion
from transfusion.cyclotomic import (
    MonomialMatrix,
    as_cyclotomic,
    mat_mul,
    mat_trace,
    root,
    row_reduce,
)
from transfusion.fusion import (
    CharacterSolver,
    associativity_violation,
    basis_bundles,
    bundle_violation,
    character,
    fusion_table,
    make_context,
    regular_bundle,
    star,
    TwistedBundle,
    unit_bundle,
    untwisted_star,
)
from transfusion.groupoids import point_groupoid
from transfusion.groups import (
    conjugacy_classes,
    cyclic,
    dihedral,
    elementary_abelian,
    symmetric,
)
from transfusion.projrep import BasisError, linear_characters
from support_fusion import DenseCharacterSolver, kclass_star, stacked_star

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
        for g, u in v.context.char_keys
    }


def tables_equal(t1, t2):
    return all((t1[k] - t2[k]).is_zero() for k in t1)


def test_context_invariants_and_rejections():
    ctx = cube_context()
    assert ctx.conductor == 2
    # a coboundary is a valid twist too, and the identities must still hold
    z4 = cyclic(4)
    rng = random.Random("ctx")
    make_context(z4, delta(random_cochain(point_groupoid(z4), 2, rng)))

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
        tuple(root(1, 2) * x for x in row) for row in bad_maps[(0, 3)].dense()
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


def _sector_tau(ctx, g, u1, u2):
    """tau at loop g against u1 then u2, read from the cochain itself."""
    # object g is the loop g, and its arrow along u is g*|G| + u
    n = ctx.group.order
    a1 = g * n + u1
    g1 = ctx.group.conjugate(g, u1)
    a2 = g1 * n + u2
    return ctx.tau.value((a1, a2))


def test_context_values_read_the_cochains_at_their_sector_arrows():
    for ctx in (cube_context(), s3_context(), d4_context()):
        n = ctx.group.order
        for g1, g2, u in itertools.product(range(n), repeat=3):
            # the pair (g1, g2) is object g1*|G| + g2
            a = (g1 * n + g2) * n + u
            assert Fraction(ctx.mu_table[g1][g2][u], ctx.mu.modulus) == ctx.mu.value((a,))
            assert Fraction(ctx.tau_table[g1][g2][u], ctx.tau.modulus) == _sector_tau(
                ctx, g1, g2, u
            )


def _monomial_bundle_violation(v):
    """Reference validator: every composite is a MonomialMatrix product
    compared with the scaled map for the product of the conjugators."""
    ctx = v.context
    group = ctx.group
    n = group.order
    if len(v.dims) != n:
        return ("grading-length", (len(v.dims),))
    for cls in conjugacy_classes(group).classes:
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
    for g in range(n):
        if not v.dims[g]:
            continue
        for u1 in range(n):
            h = group.conjugate(g, u1)
            left = v.maps[(g, u1)]
            for u2 in range(n):
                lhs = left @ v.maps[(h, u2)]
                t = _sector_tau(ctx, g, u1, u2)
                rhs = v.maps[(g, group.mult[u1][u2])].scale(t.numerator, t.denominator)
                if lhs != rhs:
                    return ("composition", (g, u1, u2))
    return None


def _planted_map(rng, mat):
    """mat with one seeded defect: the whole map or one row times i, -1 or
    -i, two rows swapped, or the same map lifted to a modulus of 4."""
    m = math.lcm(mat.modulus, 4)
    exps = list(mat.exps_at(m))
    perm = list(mat.perm)
    kind = rng.choice(("map", "row", "swap", "lift"))
    if kind == "swap" and len(perm) < 2:
        kind = "row"
    if kind == "map":
        return mat.scale(rng.randrange(1, 4), 4)
    if kind == "row":
        r = rng.randrange(len(perm))
        exps[r] += rng.randrange(1, 4) * (m // 4)
    elif kind == "swap":
        r1, r2 = rng.sample(range(len(perm)), 2)
        perm[r1], perm[r2] = perm[r2], perm[r1]
        exps[r1], exps[r2] = exps[r2], exps[r1]
    return MonomialMatrix(perm, exps, m)


def test_bundle_violation_witnesses_match_monomial_composition():
    rng = random.Random("planted-bundle-defects")
    cases = [(ctx, basis_bundles(ctx)) for ctx in (cube_context(), s3_context(), d4_context())]
    assert cases[0][0].tau.modulus == 2
    verdicts = {}
    for t in range(300):
        ctx, basis = cases[t % 3]
        prod = star(rng.choice(basis), rng.choice(basis))
        maps = dict(prod.maps)
        for _ in range(rng.choice((1, 1, 2))):
            key = rng.choice(sorted(maps))
            maps[key] = _planted_map(rng, maps[key])
        bad = TwistedBundle(context=ctx, dims=prod.dims, maps=maps)
        want = _monomial_bundle_violation(bad)
        assert bundle_violation(bad) == want
        kind = want[0] if want else None
        verdicts[kind] = verdicts.get(kind, 0) + 1
    # the defects reach both the identity and the composition checks, and a
    # map that was only lifted to modulus 4 leaves the bundle valid
    assert set(verdicts) == {None, "identity-map", "composition"}
    assert verdicts["composition"] >= 150


def test_unit_and_regular_bundles_frozen():
    ctx = cube_context()
    n = ctx.group.order
    unit = unit_bundle(ctx)
    assert bundle_violation(unit) is None
    cu = character(unit)
    for g, u in ctx.char_keys:
        want = 1 if g == 0 else 0
        assert cu[(g, u)] == want

    reg = regular_bundle(ctx)
    creg = character(reg)
    for g, u in ctx.char_keys:
        if g == 0 and u == 0:
            assert creg[(g, u)] == n
        else:
            assert creg[(g, u)] == 0


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
            for g, u in ctx.char_keys:
                for v in group.elements():
                    gv = group.conjugate(g, v)
                    uv = group.conjugate(u, v)
                    lhs = ch[(gv, uv)]
                    tau_g = ctx.tau_table[g]
                    rhs = root(tau_g[v][uv] - tau_g[u][v], ctx.tau.modulus) * ch[(g, u)]
                    assert (lhs - rhs).is_zero()
    # on an abelian group that covariance forces vanishing off the radical
    ctx = cube_context()
    v9 = basis_bundles(ctx)[9]
    (g0,) = v9.support()
    ch = character(v9)
    for g, u in ctx.char_keys:
        if (g, u) in ((g0, 0), (g0, g0)):
            assert not ch[(g, u)].is_zero()
        else:
            assert ch[(g, u)].is_zero()


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
        assert character(prod) == kclass_star(ctx, chars[i], chars[j])


def test_unit_is_strict_two_sided():
    for ctx in (cube_context(), s3_context()):
        basis = basis_bundles(ctx)
        unit = unit_bundle(ctx)
        for v in (basis[0], basis[len(basis) // 2], basis[-1]):
            for prod in (star(unit, v), star(v, unit)):
                assert prod.dims == v.dims
                assert all(prod.maps[k] == v.maps[k] for k in v.maps)


def test_star_matches_the_block_by_block_product():
    e4 = elementary_abelian(2, 2)
    e4_ctx = make_context(e4, poly_to_cocycle(parse_poly("x2y|y3"), e4))
    # the generator of H^3(Z/3; U(1)): mu of order 3, maps at modulus 9,
    # so a sign error in the mu phase shows
    z3 = cyclic(3)
    z3_ctx = make_context(z3, group_cochain(z3, 3, {
        (a, b, c): Fraction(a * (b + c - (b + c) % 3), 9)
        for a, b, c in itertools.product(range(3), repeat=3)
    }))
    assert z3_ctx.mu.modulus == 3
    z2 = z2_context()
    z3_basis = basis_bundles(z3_ctx)
    cases = [basis_bundles(ctx) for ctx in (cube_context(), s3_context(), d4_context(), e4_ctx)]
    cases.append(z3_basis)
    cases.append([_doubled_line(z2)] + basis_bundles(z2)[1:])
    # products of products, whose maps meet factors at other moduli
    cases.append([star(a, b) for a in z3_basis[:3] for b in z3_basis[-3:]] + z3_basis)
    for basis in cases:
        for a, b in itertools.product(basis, repeat=2):
            got, want = star(a, b), stacked_star(a, b)
            assert got.dims == want.dims
            assert got.maps.keys() == want.maps.keys()
            assert all(got.maps[k] == want.maps[k] for k in got.maps)
            # every map of a product at one modulus
            assert len({mat.modulus for mat in got.maps.values()}) == 1


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
    unit_idx = [i for i, v in enumerate(basis3) if character(v) == cu]
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
    doubled = _doubled_line(ctx)
    assert bundle_violation(doubled) is None
    table = fusion_table(ctx, [doubled] + basis[1:])
    assert (1, 1) in table.non_integer
    assert table.constants[1][1] is None
    assert not table.invalid and not table.outside_span
    assert not table.complete()
    assert table.constants[0][1] == (0, 2, 0, 0)


def test_fusion_table_reuses_the_basis_traces(monkeypatch):
    # basis_bundles traced every basis bundle to check orthonormality;
    # fusion_table traces only the products and the unit bundle
    ctx = s3_context()
    basis = basis_bundles(ctx)
    traced = []
    real = fusion.trace_table
    monkeypatch.setattr(fusion, "trace_table", lambda v: traced.append(v) or real(v))
    table = fusion_table(ctx, basis)
    assert table.complete()
    assert len(traced) == len(basis) ** 2 + 1
    assert not any(v in traced for v in basis)


def test_fusion_table_reports_products_outside_the_span():
    # without the trivial line over the identity, the squares land on it
    ctx = z2_context()
    table = fusion_table(ctx, basis_bundles(ctx)[1:])
    outside = {(a, b): keys for a, b, keys in table.outside_span}
    assert set(outside) == {(0, 0), (1, 1), (2, 2)}
    for keys in outside.values():
        assert keys and all(k in ctx.char_keys for k in keys)
    assert table.unit_candidates == []
    assert not table.invalid and not table.non_integer
    assert not table.complete() and table.nonassociative is None
    assert table.non_commuting == []
    assert table.constants[1][2] == (1, 0, 0)


def test_commutativity_is_read_off_a_complete_integer_table(monkeypatch):
    # basis[2] * basis[1] is replaced by basis[2] * basis[2]: a valid
    # product whose character differs from basis[1] * basis[2], found on
    # the constants of the complete table; once another product is
    # invalid, the table is incomplete and neither check is run
    ctx = z2_context()
    basis = basis_bundles(ctx)
    real = fusion.star

    def planted(negate):
        def fake(a, b):
            if a is basis[2] and b is basis[1]:
                return real(a, a)
            v = real(a, b)
            if negate and a is basis[1] and b is basis[0]:
                maps = {key: m.scale(1, 2) for key, m in v.maps.items()}
                return TwistedBundle(context=ctx, dims=v.dims, maps=maps)
            return v
        return fake

    monkeypatch.setattr(fusion, "star", planted(False))
    table = fusion_table(ctx, basis)
    assert table.complete() and table.non_commuting == [(1, 2)]
    assert character(real(basis[1], basis[2])) != character(real(basis[2], basis[2]))
    monkeypatch.setattr(fusion, "star", planted(True))
    table = fusion_table(ctx, basis)
    assert [w[:2] for w in table.invalid] == [(1, 0)]
    assert table.non_commuting == [] and table.nonassociative is None


class _SubsystemSolver:
    """Oracle: the solver the library used before the Gram matrix. It picks
    an invertible square subsystem of the key-by-basis character matrix,
    pivot by pivot, inverts it, and re-checks every key."""

    def __init__(self, ctx, tables):
        self.keys = ctx.char_keys
        m = len(tables)
        rows = [[t[k] for t in tables] for k in self.keys]
        work, piv, chosen = [], [], []
        for r, row in enumerate(rows):
            vec = list(row)
            for wrow, p in zip(work, piv):
                if not vec[p].is_zero():
                    f = vec[p]
                    vec = [x - f * y for x, y in zip(vec, wrow)]
            lead = next((i for i, x in enumerate(vec) if not x.is_zero()), None)
            if lead is None:
                continue
            inv = vec[lead].inverse()
            work.append([inv * x for x in vec])
            piv.append(lead)
            chosen.append(r)
            if len(chosen) == m:
                break
        assert len(chosen) == m
        one, zero = as_cyclotomic(1), as_cyclotomic(0)
        aug = [
            list(rows[r]) + [one if j == i else zero for j in range(m)]
            for i, r in enumerate(chosen)
        ]
        red, pivots = row_reduce(aug)
        assert pivots == list(range(m))
        self._inv = [row[m:] for row in red]
        self._rows = rows
        self._chosen = chosen

    def expand(self, table):
        vec = [table[k] for k in self.keys]
        coeffs = [row[0] for row in mat_mul(self._inv, [[vec[r]] for r in self._chosen])]
        back = mat_mul(self._rows, [[c] for c in coeffs])
        bad = [self.keys[r] for r, row in enumerate(back) if row[0] != vec[r]]
        return (None, bad) if bad else (coeffs, [])


def _doubled_line(ctx):
    """The trivial line over the identity of Z/2, doubled: a valid bundle
    that is not irreducible."""
    maps = {(0, 0): MonomialMatrix.identity(2), (0, 1): MonomialMatrix.identity(2)}
    return TwistedBundle(context=ctx, dims=(2, 0), maps=maps)


def _product_tables(basis):
    return [trace_table(star(a, b)) for a, b in itertools.product(basis, repeat=2)]


def test_gram_solver_matches_subsystem_solver():
    z2 = z2_context()
    z2_basis = basis_bundles(z2)
    cases = [(ctx, basis_bundles(ctx)) for ctx in (z2, s3_context(), d4_context(), cube_context())]
    cases.append((z2, [_doubled_line(z2)] + z2_basis[1:]))
    for ctx, basis in cases:
        tables = [trace_table(v) for v in basis]
        gram_solver, oracle = CharacterSolver(ctx, tables), _SubsystemSolver(ctx, tables)
        for tab in _product_tables(basis):
            coeffs, bad = gram_solver.expand(tab)
            assert bad == []
            assert coeffs == oracle.expand(tab)[0]

    # a basis that is not orthogonal and whose Gram matrix is not real:
    # the first S3 character plus i times the second
    ctx = s3_context()
    basis = basis_bundles(ctx)
    tables = [trace_table(v) for v in basis]
    i = root(1, 4)
    tables[0] = {k: tables[0][k] + i * tables[1][k] for k in tables[0]}
    gram = fusion.character_gram(ctx, tables)[2]
    assert gram[0][1] == -6 * i and gram[1][0] == 6 * i
    gram_solver, oracle = CharacterSolver(ctx, tables), _SubsystemSolver(ctx, tables)
    for tab in _product_tables(basis):
        coeffs, bad = gram_solver.expand(tab)
        assert bad == [] and coeffs == oracle.expand(tab)[0]

    # outside the span the two solvers refuse the same products
    for ctx in (z2, cube_context()):
        basis = basis_bundles(ctx)[1:]
        tables = [trace_table(v) for v in basis]
        gram_solver, oracle = CharacterSolver(ctx, tables), _SubsystemSolver(ctx, tables)
        products = _product_tables(basis)
        outside = [p for p, tab in enumerate(products) if gram_solver.expand(tab)[0] is None]
        assert outside
        assert outside == [p for p, tab in enumerate(products) if oracle.expand(tab)[0] is None]
    # the residual keys come from the orthogonal projection: the square of
    # the sign line over the identity misses the span at both keys over 0,
    # where the old subsystem named only (0, 1)
    basis = z2_basis[1:]
    tables = [trace_table(v) for v in basis]
    square = trace_table(star(basis[0], basis[0]))
    assert CharacterSolver(z2, tables).expand(square) == (None, [(0, 0), (0, 1)])
    assert _SubsystemSolver(z2, tables).expand(square) == (None, [(0, 1)])


def test_support_indexed_solver_matches_dense_solver():
    z2, s3, cube = z2_context(), s3_context(), cube_context()
    cases = [(ctx, basis_bundles(ctx)) for ctx in (z2, s3, d4_context(), cube)]
    cases.append((z2, [_doubled_line(z2)] + basis_bundles(z2)[1:]))
    # outside the span: the residual keys must match too
    cases += [(ctx, basis_bundles(ctx)[1:]) for ctx in (z2, cube)]
    seen_bad = 0
    for ctx, basis in cases:
        tables = [trace_table(v) for v in basis]
        solver, oracle = CharacterSolver(ctx, tables), DenseCharacterSolver(ctx, tables)
        for tab in _product_tables(basis):
            got = solver.expand(tab)
            assert got == oracle.expand(tab)
            seen_bad += bool(got[1])
    assert seen_bad

    # the non-orthogonal S3 basis, first character plus i times the second
    basis = basis_bundles(s3)
    tables = [trace_table(v) for v in basis]
    tables[0] = {k: tables[0][k] + root(1, 4) * tables[1][k] for k in tables[0]}
    solver, oracle = CharacterSolver(s3, tables), DenseCharacterSolver(s3, tables)
    for tab in _product_tables(basis):
        assert solver.expand(tab) == oracle.expand(tab)

    # planted tables: a basis character with one supported key zeroed, and
    # a basis character with a value added at a key over an element outside
    # its support; some of each miss the span at the planted key, where
    # only R c (the zeroed key) or only the table (the added key) is nonzero
    zero, one = as_cyclotomic(0), as_cyclotomic(1)
    missed = {"zeroed": 0, "added": 0}
    for ctx in (s3, cube):
        tables = [trace_table(v) for v in basis_bundles(ctx)]
        solver, oracle = CharacterSolver(ctx, tables), DenseCharacterSolver(ctx, tables)
        for t in tables:
            support = {g for (g, _), x in t.items() if not x.is_zero()}
            outside = next(k for k in ctx.char_keys if k[0] not in support)
            planted = [("added", outside, one)]
            planted += [("zeroed", k, zero) for k, x in t.items() if not x.is_zero()]
            for kind, k, x in planted:
                tab = dict(t)
                tab[k] = x
                got = solver.expand(tab)
                assert got == oracle.expand(tab)
                missed[kind] += k in got[1]
    assert missed["zeroed"] and missed["added"]


def test_orthonormality_check_refuses_planted_bases(monkeypatch):
    ctx = z2_context()
    real = fusion._class_basis
    basis = real(ctx)

    monkeypatch.setattr(fusion, "_class_basis", lambda c: real(c) + [real(c)[1]])
    with pytest.raises(BasisError, match=r"Gram entry \(1, 4\)"):
        basis_bundles(ctx)
    monkeypatch.setattr(fusion, "_class_basis", lambda c: [_doubled_line(c)] + real(c)[1:])
    with pytest.raises(BasisError, match=r"Gram entry \(0, 0\)"):
        basis_bundles(ctx)
    monkeypatch.undo()

    assert len(basis_bundles(ctx)) == 4
    with pytest.raises(BasisError, match="linearly dependent"):
        fusion_table(ctx, basis + [basis[0]])


def test_associativity_violation_finds_the_first_triple():
    # e0 e0 = e0, e0 e1 = e1, e1 e0 = 0, e1 e1 = e1: the first triple whose
    # two bracketings differ is (1, 0, 1)
    table = (((1, 0), (0, 1)), ((0, 0), (0, 1)))
    assert associativity_violation(table) == (1, 0, 1)
    group_ring = (((1, 0), (0, 1)), ((0, 1), (1, 0)))
    assert associativity_violation(group_ring) is None


def _dense_associativity_violation(constants):
    """Reference scan over dense rows."""
    n = len(constants)
    for i, j, k in itertools.product(range(n), repeat=3):
        lhs = [sum(constants[i][j][m] * constants[m][k][l] for m in range(n)) for l in range(n)]
        rhs = [sum(constants[j][k][m] * constants[i][m][l] for m in range(n)) for l in range(n)]
        if lhs != rhs:
            return (i, j, k)
    return None


def test_associativity_violation_matches_dense_scan_on_planted_defects():
    ctx = cube_context()
    table = fusion_table(ctx, basis_bundles(ctx))
    assert table.complete() and table.nonassociative is None
    n = len(table.constants)
    rng = random.Random("planted-associativity-defects")
    found = 0
    for _ in range(20):
        rows = [[list(r) for r in row] for row in table.constants]
        i, j, m = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        rows[i][j][m] += 1
        want = _dense_associativity_violation(rows)
        assert associativity_violation(rows) == want
        found += want is not None
    assert found == 20
    # random sparse tables fail at many triples, which pins the scan order
    for _ in range(30):
        rows = [
            [[rng.choice((0, 0, 0, 1, 2, -1)) for _ in range(5)] for _ in range(5)]
            for _ in range(5)
        ]
        assert associativity_violation(rows) == _dense_associativity_violation(rows)


def test_twisted_nonabelian_sign_cup_table_is_complete():
    s3 = symmetric(3)
    L, chars = linear_characters(s3)
    sign = [2 * v // L for v in chars[1]]
    ctx = make_context(s3, cup_one_cochains(s3, [sign, sign, sign]))
    assert not ctx.tau.is_zero()
    basis = basis_bundles(ctx)
    assert len(basis) == 8
    table = fusion_table(ctx, basis)
    assert table.complete() and table.nonassociative is None
    assert table.non_commuting == []
    assert len(table.unit_candidates) == 1 and table.is_unit(table.unit_candidates[0])
    for a, b in itertools.product(basis, repeat=2):
        assert fusion.trace_table(star(a, b)) == kclass_star(ctx, a.traces, b.traces)


def test_kclass_arithmetic():
    ctx = cube_context()
    basis = basis_bundles(ctx)
    a, b, c = (character(basis[i]) for i in (2, 9, 17))

    def add(x, y):
        return {k: x[k] + y[k] for k in x}

    def sub(x, y):
        return {k: x[k] - y[k] for k in x}

    assert sub(add(a, b), b) == a
    # the class-level product is biadditive
    left = kclass_star(ctx, add(a, b), c)
    right = add(kclass_star(ctx, a, c), kclass_star(ctx, b, c))
    assert left == right
    # virtual classes subtract to zero only when equal
    assert a != b
    diff = sub(a, a)
    assert all(diff[k].is_zero() for k in diff)


def test_dimension_grading():
    ctx = cube_context()
    basis = basis_bundles(ctx)
    rng = random.Random("dims")
    for _ in range(8):
        a = basis[rng.randrange(len(basis))]
        b = basis[rng.randrange(len(basis))]
        assert sum(star(a, b).dims) == sum(a.dims) * sum(b.dims)
