"""Basis construction: one alpha-induction per conjugacy class for every
twist, checked against the two constructions it replaced on the twists
those covered, and on twisted nonabelian groups they refused."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from transfusion.cli import main
from transfusion.cochains import (
    Cochain,
    coboundary_solve,
    cup_one_cochains,
    delta,
    group_cochain,
    parse_poly,
    poly_to_cocycle,
    random_cochain,
    shuffle_transgression,
    zero_cochain,
)
from transfusion.cyclotomic import MonomialMatrix, as_cyclotomic
from transfusion.fusion import (
    KClass,
    basis_bundles,
    bundle_violation,
    fusion_table,
    kclass_star,
    make_context,
    star,
    trace_table,
)
from transfusion.groupoids import point_groupoid
from transfusion.groups import (
    Subgroup,
    all_subgroups,
    centralizer,
    conjugacy_classes,
    construct_group,
    dihedral,
    from_table,
    subgroup_as_group,
    subgroup_generated,
    symmetric,
)
from transfusion.projrep import (
    BasisError,
    TwoCocycleGroup,
    linear_characters,
    projective_irreducibles,
    twisted_rank,
)


# oracle: the abelian and the untwisted constructions that one construction
# replaced, as they stood; each irreducible is a dict from element to map


def _oracle_coset_reps(group, members):
    seen = set()
    reps = []
    for t in group.elements():
        if t in seen:
            continue
        reps.append(t)
        seen.update(group.mult[h][t] for h in members)
    return reps


def _oracle_char_key(vals):
    m = 1
    for v in vals:
        m = math.lcm(m, v.conductor)
    return tuple(v.key_at(m) for v in vals)


def _oracle_induced_monomial_rep(group, members, lam_parent):
    reps = _oracle_coset_reps(group, members)
    coset_of = {}
    for j, t in enumerate(reps):
        for h in members:
            coset_of[group.mult[h][t]] = j
    mats = {}
    for u in group.elements():
        perm = []
        angles = []
        for t in reps:
            tu = group.mult[t][u]
            jp = coset_of[tu]
            h = group.mult[tu][group.inv[reps[jp]]]
            perm.append(jp)
            angles.append(lam_parent[h])
        mats[u] = MonomialMatrix.from_angles(perm, angles)
    return mats


def _oracle_group_irreducibles(group):
    n = group.order
    found = []
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
            rep = _oracle_induced_monomial_rep(group, members, lam_parent)
            char = [rep[u].trace() for u in group.elements()]
            ip = as_cyclotomic(0)
            for u in group.elements():
                ip = ip + char[u] * char[u].conj()
            if not (ip.is_rational() and ip.rational_value() == n):
                continue
            key = _oracle_char_key(char)
            if key in seen_chars:
                continue
            seen_chars.add(key)
            found.append(rep)
            total += d * d
            if total == n:
                break
    if total != n:
        raise BasisError(f"monomial induction reached squared-dimension total {total} of {n}")
    return found


def _oracle_abelian_projective_irreps(tc):
    group = tc.group
    n = group.order

    def beta(u, v):
        return (tc.value(u, v) - tc.value(v, u)) % 1

    radical = [u for u in group.elements() if all(beta(u, v) == 0 for v in group.elements())]
    members = tuple(radical)
    mset = set(members)
    for g in group.elements():
        if g not in mset and all(beta(g, l) == 0 for l in members):
            members = subgroup_generated(group, list(members) + [g]).members
            mset = set(members)
    assert len(members) ** 2 == n * len(radical)

    lgrp, lmem = subgroup_as_group(Subgroup(parent=group, members=members))
    ltab = {
        (i, j): tc.value(lmem[i], lmem[j]) for i in range(len(lmem)) for j in range(len(lmem))
    }
    nu = coboundary_solve(group_cochain(lgrp, 2, ltab))
    assert nu is not None

    reps = _oracle_coset_reps(group, members)
    coset_of = {}
    for j, t in enumerate(reps):
        for l in members:
            coset_of[group.mult[l][t]] = j

    collected = []
    seen_chars = set()
    for chi in linear_characters(lgrp):
        f_rows = [
            {
                group.mult[l][t]: -(nu.value((i,)) + chi[i] + tc.value(l, t)) % 1
                for i, l in enumerate(lmem)
            }
            for t in reps
        ]
        mats = {}
        for u in group.elements():
            perm = []
            angles = []
            for j, t in enumerate(reps):
                image = {group.mult[h][u]: (a + tc.value(h, u)) % 1 for h, a in f_rows[j].items()}
                jp = coset_of[group.mult[t][u]]
                target = f_rows[jp]
                anchor = group.mult[members[0]][reps[jp]]
                c = (image.get(anchor, 0) - target[anchor]) % 1
                assert image.keys() == target.keys()
                assert not any((image[x] - c - target[x]) % 1 for x in target)
                perm.append(jp)
                angles.append(c)
            mats[u] = MonomialMatrix.from_angles(perm, angles)
        key = _oracle_char_key([mats[u].trace() for u in group.elements()])
        if key not in seen_chars:
            seen_chars.add(key)
            collected.append(mats)
    assert len(collected) == len(radical)
    return collected


def _oracle_basis(ctx):
    """The bundles the library built before: per element on an abelian
    group, per class on a nonabelian group with the zero twist, as
    (dims, maps) pairs."""
    group = ctx.group
    n = group.order
    out = []
    if group.is_abelian():
        for g in group.elements():
            values = tuple(
                tuple(ctx.tau_value(g, u1, u2) for u2 in group.elements())
                for u1 in group.elements()
            )
            for mats in _oracle_abelian_projective_irreps(TwoCocycleGroup(group, values)):
                dims = tuple(len(mats[0]) if h == g else 0 for h in range(n))
                out.append((dims, {(g, u): mats[u] for u in group.elements()}))
        return out
    assert ctx.tau.is_zero() and ctx.mu.is_zero()
    part = conjugacy_classes(group)
    for cls in part.classes:
        zgrp, zmem = subgroup_as_group(centralizer(group, cls[0]))
        zpos = {m: i for i, m in enumerate(zmem)}
        for w in _oracle_group_irreducibles(zgrp):
            d = len(w[0])
            maps = {}
            for h in cls:
                xh = part.transporter[h]
                for u in group.elements():
                    hu = group.conjugate(h, u)
                    z = group.mult[group.mult[xh][u]][group.inv[part.transporter[hu]]]
                    maps[(h, u)] = w[zpos[z]]
            out.append((tuple(d if h in cls else 0 for h in range(n)), maps))
    return out


def _as_ints(mat):
    return (mat.perm, mat.exps, mat.modulus)


COVERED = [
    ("elemab:2,1", "x3"),
    ("elemab:2,2", "x2y"),
    ("elemab:2,2", "xy2"),
    ("elemab:2,2", "x3"),
    ("elemab:2,3", "xyz"),
    ("elemab:2,3", "x2y|yz2"),
    ("elemab:2,3", None),
    ("elemab:2,4", "xyz"),
    ("elemab:2,4", "xyw"),
    ("cyclic:2", None),
    ("cyclic:4", None),
    ("symmetric:3", None),
    ("dihedral:4", None),
]


@pytest.mark.parametrize("spec, poly", COVERED, ids=[f"{s}-{p or 'zero'}" for s, p in COVERED])
def test_basis_matches_the_constructions_it_replaced(spec, poly):
    group = construct_group(spec)
    if poly is None:
        phi = zero_cochain(point_groupoid(group), 3)
    else:
        phi = poly_to_cocycle(parse_poly(poly, group.order.bit_length() - 1), group)
    ctx = make_context(group, phi)
    basis = basis_bundles(ctx)
    want = _oracle_basis(ctx)
    assert len(basis) == len(want)
    for v, (dims, maps) in zip(basis, want):
        assert v.dims == dims
        assert list(v.maps) == list(maps)
        # the same integers, not only equal maps
        assert all(_as_ints(v.maps[k]) == _as_ints(maps[k]) for k in maps)


def test_symmetric4_irreducibles_match_monomial_induction():
    # the class assembly is covered on symmetric:3 and dihedral:4 above;
    # here every centralizer of S4, without building a context
    group = symmetric(4)
    subgroups = all_subgroups(group)
    for rep in conjugacy_classes(group).representatives:
        zgrp, zmem = subgroup_as_group(centralizer(group, rep))
        zpos = {m: i for i, m in enumerate(zmem)}
        inside = [tuple(zpos[m] for m in s) for s in subgroups if set(s) <= set(zmem)]
        zero = [[0] * zgrp.order for _ in zgrp.elements()]
        got = projective_irreducibles(zgrp, zero, 1, inside)
        want = _oracle_group_irreducibles(zgrp)
        assert len(got) == len(want)
        for mats, w in zip(got, want):
            assert [_as_ints(x) for x in mats] == [_as_ints(w[u]) for u in zgrp.elements()]


def _sl23():
    """SL(2,3) as a multiplication table, identity first: its two-dimensional
    irreducibles are not induced from any linear character."""
    elems = [
        m for m in itertools.product(range(3), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % 3 == 1
    ]
    elems.sort(key=lambda m: m != (1, 0, 0, 1))
    index = {m: i for i, m in enumerate(elems)}

    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % 3, (a * f + b * h) % 3, (c * e + d * g) % 3, (c * f + d * h) % 3)

    return [[index[mul(x, y)] for y in elems] for x in elems]


def test_non_monomial_group_is_refused(tmp_path, capsys):
    table = _sl23()
    group = from_table(table)
    assert group.order == 24
    zero = [[0] * 24 for _ in range(24)]
    # 1 + 1 + 1 + 9 of 24, before and after the merge
    with pytest.raises(BasisError, match="squared-dimension total 12 of 24"):
        projective_irreducibles(group, zero, 1, all_subgroups(group))
    with pytest.raises(BasisError, match="squared-dimension total 12 of 24"):
        _oracle_group_irreducibles(group)
    # fusion-table exits 2 on it, with nothing on stdout
    path = tmp_path / "sl23.grp"
    path.write_text("order 24\n" + "\n".join(" ".join(map(str, row)) for row in table) + "\n")
    assert main(["fusion-table", "--group", f"@{path}", "--zero"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert errors == ["error: monomial induction reached squared-dimension total 12 of 24"]


def test_irreducibles_carry_the_multiplier_exactly():
    # the halved cup of two characters of Z/4 x Z/2 is a nontrivial class:
    # two irreducibles of dimension 2 whose composites pick up tau itself
    group = construct_group("product:cyclic:4,cyclic:2")
    fx = [Fraction((e // 2) % 2, 2) for e in group.elements()]
    fy = [Fraction(e % 2, 2) for e in group.elements()]
    tau = cup_one_cochains(group, [fx, fy])
    table = [[tau.table.get((a, b), 0) for b in group.elements()] for a in group.elements()]
    irreps = projective_irreducibles(group, table, tau.modulus, all_subgroups(group))
    assert [len(m[0]) for m in irreps] == [2, 2]
    angles = tuple(tuple(tau.value((a, b)) for b in group.elements()) for a in group.elements())
    assert len(irreps) == twisted_rank(TwoCocycleGroup(group, angles))
    for mats in irreps:
        for u, v in itertools.product(group.elements(), repeat=2):
            assert mats[u] @ mats[v] == mats[group.mult[u][v]].scale(tau.value((u, v)))


def _assert_complete_table(ctx, basis):
    table = fusion_table(ctx, basis)
    assert table.complete() and table.nonassociative is None
    assert table.non_commuting == []
    assert len(table.unit_candidates) == 1 and table.is_unit(table.unit_candidates[0])
    return table


def test_coboundary_twist_at_conductor_twelve():
    # cup twists are half-valued, so they cannot tell a phase from its
    # negative; the coboundary of a normalized 2-cochain on S3 reaches
    # twelfths, and its ring is the untwisted one
    group = symmetric(3)
    base = point_groupoid(group)
    beta = random_cochain(base, 2, random.Random("normalized-coboundary"))
    beta = Cochain(base, 2, {k: beta.value(k) for k in beta.table if 0 not in k})
    ctx = make_context(group, delta(beta))
    assert ctx.normalized and ctx.conductor == 12
    table = _assert_complete_table(ctx, basis_bundles(ctx))
    untwisted = make_context(group, zero_cochain(base, 3))
    assert table.constants == fusion_table(untwisted, basis_bundles(untwisted)).constants


def test_dihedral4_cup_twists_give_complete_tables():
    group = dihedral(4)
    halves = [list(c) for c in linear_characters(group) if any(c)]
    assert len(halves) == 3 and all(2 * v in (0, 1) for c in halves for v in c)
    for triple in itertools.product(halves, repeat=3):
        ctx = make_context(group, cup_one_cochains(group, list(triple)))
        assert not ctx.tau.is_zero()
        basis = basis_bundles(ctx)
        assert len(basis) == 22
        _assert_complete_table(ctx, basis)


def test_nontrivial_class_on_a_nonabelian_centralizer():
    group = construct_group("product:symmetric:3,elemab:2,2")
    lc = linear_characters(group)
    phi = cup_one_cochains(group, [list(lc[1]), list(lc[2]), list(lc[4])])
    for g in (1, 2, 3):
        assert centralizer(group, g).members == tuple(group.elements())
        theta, _, _ = shuffle_transgression(group, phi, g)
        assert coboundary_solve(theta) is None
    ctx = make_context(group, phi)
    basis = basis_bundles(ctx)
    assert len(basis) == 86
    # all six irreducibles over each central sector have dimension 2
    for g in (1, 2, 3):
        assert sorted(v.dims[g] for v in basis if v.dims[g]) == [2] * 6
    rng = random.Random("nonabelian-centralizer")
    for _ in range(10):
        a, b = rng.choice(basis), rng.choice(basis)
        prod = star(a, b)
        assert bundle_violation(prod) is None
        want = kclass_star(KClass(ctx, a.traces), KClass(ctx, b.traces))
        assert trace_table(prod) == want.table
