from __future__ import annotations

import itertools

import pytest

from transfusion.groups import (
    GroupValidationError,
    all_subgroups,
    centralizer,
    conjugacy_classes,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    from_table,
    load_group_lines,
    parse_group_spec,
    subgroup_as_group,
    subgroup_generated,
    symmetric,
)

from support_groupoids import groups_isomorphic


def _perm_index(*images):
    """The index of a permutation in symmetric(n): its lex rank."""
    return sorted(itertools.permutations(range(len(images)))).index(images)


def _check_axioms(g):
    for a in g.elements():
        assert g.mult[0][a] == a
        assert g.mult[a][0] == a
        assert g.mult[a][g.inv[a]] == 0
        assert g.mult[g.inv[a]][a] == 0
    for a in g.elements():
        for b in g.elements():
            for c in g.elements():
                assert g.mult[g.mult[a][b]][c] == g.mult[a][g.mult[b][c]]


def test_cyclic_structure():
    g = cyclic(6)
    _check_axioms(g)
    assert g.order == 6
    assert g.mult[4][5] == 3
    assert g.inv[2] == 4
    assert g.element_order(2) == 3
    assert g.element_order(1) == 6
    assert g.is_abelian()


def test_elementary_abelian_digits():
    g = elementary_abelian(2, 3)
    _check_axioms(g)
    assert g.order == 8
    # generators sit at indices 1, 2, 4 and xor is the product
    assert g.mult[1][2] == 3
    assert g.mult[3][5] == 6
    assert g.inv[7] == 7
    assert all(g.element_order(x) == 2 for x in range(1, 8))


def test_elementary_abelian_is_digitwise_addition():
    # coordinate i is digit i of the index, little-endian in base p
    for p, n in [(2, k) for k in range(1, 7)] + [
        (3, 1), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (6, 2), (7, 2)
    ]:
        digits = [[a // p**i % p for i in range(n)] for a in range(p**n)]
        mult = [
            [sum((x + y) % p * p**i for i, (x, y) in enumerate(zip(da, db))) for db in digits]
            for da in digits
        ]
        assert elementary_abelian(p, n) == from_table(mult), (p, n)


def test_direct_product_encoding():
    a = cyclic(4)
    b = cyclic(2)
    g = direct_product(a, b)
    _check_axioms(g)
    assert g.order == 8
    # (x, y) encodes as x * |B| + y
    assert g.mult[2 * 2 + 1][3 * 2 + 1] == ((2 + 3) % 4) * 2 + 0
    assert sorted(g.element_order(x) for x in g.elements()) == [1, 2, 2, 2, 4, 4, 4, 4]


def test_symmetric_three_facts():
    g = symmetric(3)
    _check_axioms(g)
    assert g.order == 6
    # frozen facts: three transpositions, two 3-cycles
    orders = sorted(g.element_order(x) for x in g.elements())
    assert orders == [1, 2, 2, 2, 3, 3]
    part = conjugacy_classes(g)
    assert sorted(len(c) for c in part.classes) == [1, 2, 3]
    # centralizer orders by class: 6, 2, 3
    sizes = sorted(len(centralizer(g, c[0])) for c in part.classes)
    assert sizes == [2, 3, 6]
    # composition convention: (sigma then tau)
    i_sigma = _perm_index(1, 0, 2)  # swap first two letters
    i_tau = _perm_index(0, 2, 1)  # swap last two letters
    composed = g.mult[i_sigma][i_tau]
    # sigma then tau: 0 ->1 ->2, 1 ->0 ->0, 2 ->2 ->1
    assert composed == _perm_index(2, 0, 1)


def test_symmetric_four():
    g = symmetric(4)
    _check_axioms(g)
    assert g.order == 24
    part = conjugacy_classes(g)
    assert sorted(len(c) for c in part.classes) == [1, 3, 6, 6, 8]


def test_dihedral_relations():
    g = dihedral(4)
    _check_axioms(g)
    assert g.order == 8
    r, f = 1, 4
    # f r f = r^-1
    assert g.mult[g.mult[f][r]][f] == g.inv[r]
    assert g.element_order(r) == 4
    assert g.element_order(f) == 2
    part = conjugacy_classes(g)
    assert sorted(len(c) for c in part.classes) == [1, 1, 2, 2, 2]
    assert not g.is_abelian()


def test_conjugacy_transporters():
    for g in (symmetric(3), dihedral(4), symmetric(4)):
        part = conjugacy_classes(g)
        for h in g.elements():
            rep = part.classes[part.class_of[h]][0]
            v = part.transporter[h]
            assert g.conjugate(rep, v) == h
        # orbit-stabilizer: |class| * |centralizer| = |G|
        for c in part.classes:
            assert len(c) * len(centralizer(g, c[0])) == g.order


def test_elementary_abelian_classes_singletons():
    g = elementary_abelian(2, 3)
    part = conjugacy_classes(g)
    assert len(part.classes) == 8
    assert all(len(c) == 1 for c in part.classes)


def test_subgroup_generated():
    g = symmetric(3)
    rot = _perm_index(1, 2, 0)
    assert subgroup_generated(g, [rot]) == (0, rot, _perm_index(2, 0, 1))
    swap = _perm_index(1, 0, 2)
    assert subgroup_generated(g, [rot, swap]) == tuple(g.elements())
    assert subgroup_generated(g, []) == (0,)


def test_subgroup_as_group():
    g = dihedral(4)
    h, members = subgroup_as_group(g, subgroup_generated(g, [1]))
    assert h.order == 4
    assert groups_isomorphic(h, cyclic(4))
    # member map respects multiplication
    for i in range(h.order):
        for j in range(h.order):
            assert members[h.mult[i][j]] == g.mult[members[i]][members[j]]


def test_subgroup_as_group_reads_inverses_off_the_parent():
    for g in (dihedral(4), symmetric(4)):
        for sub in all_subgroups(g):
            h, members = subgroup_as_group(g, sub)
            assert members == sub
            assert all(members[h.inv[i]] == g.inv[members[i]] for i in h.elements())
            assert h == from_table(h.mult)


def test_subgroup_as_group_refuses_non_subgroups():
    g = symmetric(3)
    with pytest.raises(GroupValidationError, match="identity"):
        subgroup_as_group(g, [1, 2])
    # {e, (01), (12)}: (01) then (12) is a 3-cycle outside the set
    s01, s12 = _perm_index(1, 0, 2), _perm_index(0, 2, 1)
    with pytest.raises(GroupValidationError, match="not closed") as err:
        subgroup_as_group(g, [0, s01, s12])
    # the first failing product in row-major order of the sorted members
    a, b = min(s01, s12), max(s01, s12)
    assert err.value.witness == (a, b)
    assert g.mult[a][b] not in (0, s01, s12)


def test_all_subgroups_counts():
    # frozen: S3 has 6 subgroups, D4 has 10
    assert len(all_subgroups(symmetric(3))) == 6
    assert len(all_subgroups(dihedral(4))) == 10


def test_validation_rejects_bad_tables():
    with pytest.raises(GroupValidationError):
        from_table([[0, 1], [1, 1]])  # 1 has no inverse
    with pytest.raises(GroupValidationError):
        from_table([[1, 0], [0, 1]])  # 0 not identity
    # commutative but non-associative magma on 3 points
    bad = [[0, 1, 2], [1, 2, 2], [2, 2, 1]]
    with pytest.raises(GroupValidationError):
        from_table(bad)
    with pytest.raises(GroupValidationError):
        cyclic(65)


def test_isomorphism_detection():
    assert groups_isomorphic(cyclic(4), cyclic(4))
    assert not groups_isomorphic(cyclic(4), elementary_abelian(2, 2))
    assert groups_isomorphic(
        direct_product(cyclic(2), cyclic(2)), elementary_abelian(2, 2)
    )
    assert groups_isomorphic(symmetric(3), dihedral(3))
    assert not groups_isomorphic(dihedral(4), cyclic(8))
    # both nonabelian order 8: D4 vs Q8 differ in involution count
    q8 = [
        [0, 1, 2, 3, 4, 5, 6, 7],
        [1, 0, 3, 2, 5, 4, 7, 6],
        [2, 3, 1, 0, 6, 7, 5, 4],
        [3, 2, 0, 1, 7, 6, 4, 5],
        [4, 5, 7, 6, 1, 0, 2, 3],
        [5, 4, 6, 7, 0, 1, 3, 2],
        [6, 7, 4, 5, 3, 2, 1, 0],
        [7, 6, 5, 4, 2, 3, 0, 1],
    ]
    quat = from_table(q8)
    assert not groups_isomorphic(dihedral(4), quat)
    assert groups_isomorphic(quat, quat)


def test_parse_group_spec():
    assert parse_group_spec("cyclic:4").order == 4
    assert parse_group_spec("elemab:2,3").order == 8
    assert parse_group_spec("symmetric:3").order == 6
    g = parse_group_spec("product:cyclic:4,cyclic:2")
    assert g.order == 8
    assert groups_isomorphic(g, direct_product(cyclic(4), cyclic(2)))
    assert groups_isomorphic(parse_group_spec("dihedral:4"), dihedral(4))
    with pytest.raises(GroupValidationError):
        parse_group_spec("cyclic")
    with pytest.raises(GroupValidationError):
        parse_group_spec("cyclic:100000")  # refused before any table is built
    with pytest.raises(GroupValidationError):
        parse_group_spec("product:cyclic:64,cyclic:64")
    with pytest.raises(GroupValidationError):
        parse_group_spec("frobnicate:3")
    with pytest.raises(GroupValidationError):
        parse_group_spec("cyclic:4,cyclic:2")


def test_load_group_lines():
    g = load_group_lines(["# comment", "order 2", "0 1", "1 0"])
    assert g.order == 2
    assert groups_isomorphic(g, cyclic(2))
    h = load_group_lines(["product cyclic:2 cyclic:3"])
    assert groups_isomorphic(h, cyclic(6))
    assert groups_isomorphic(load_group_lines(["dihedral 4"]), dihedral(4))
    # one grammar: a shorthand line is a compact spec with spaces
    assert load_group_lines(["elemab 2 3"]) == elementary_abelian(2, 3)
    assert load_group_lines(["product elemab:2,2 cyclic:3"]) == direct_product(
        elementary_abelian(2, 2), cyclic(3)
    )
    with pytest.raises(GroupValidationError, match="unknown group spec head"):
        load_group_lines(["frobnicate 3"])
    with pytest.raises(GroupValidationError):
        load_group_lines(["order 2", "0 1"])
