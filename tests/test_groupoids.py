from __future__ import annotations

import hashlib
import itertools
import random
import re

import pytest

from transfusion import groupoids
from transfusion.cli import main
from transfusion.cochains import inverse_transgression, product_homotopy, random_cochain
from transfusion.groups import (
    construct_group,
    cyclic,
    dihedral,
    elementary_abelian,
    symmetric,
)
from transfusion.groupoids import (
    GroupoidValidationError,
    action_groupoid,
    connected_components,
    discrete_groupoid,
    evaluation_hom,
    fibered_product,
    full_subgroupoid,
    groupoids_isomorphic,
    hom_compose,
    homs_equal,
    identity_middle_component,
    inertia,
    k_sectors,
    make_groupoid,
    make_hom,
    nerve,
    nerve_size,
    point_groupoid,
    sector_decomposition,
    sector_rotation,
    sector_triple_product,
    unit_embedding,
    vertex_group,
)


def test_point_groupoid_shape():
    g = point_groupoid(cyclic(4))
    assert g.n_objects == 1
    assert g.n_arrows == 4
    assert g.compose[(1, 2)] == 3
    assert g.inverse[3] == 1
    assert g.identity == (0,)


def test_point_groupoid_cached_by_value():
    assert point_groupoid(cyclic(4)) is point_groupoid(cyclic(4))


def test_free_action_two_points():
    z2 = cyclic(2)
    g = action_groupoid(z2, 2, [[0, 1], [1, 0]])
    assert g.n_objects == 2
    assert g.n_arrows == 4
    # free transitive action: one component
    assert len(connected_components(g)) == 1


def test_discrete_groupoid():
    g = discrete_groupoid(3)
    assert g.n_objects == 3
    assert g.n_arrows == 3
    assert all(g.is_identity_arrow(a) for a in range(3))
    assert len(connected_components(g)) == 3


def test_action_validation():
    z2 = cyclic(2)
    with pytest.raises(GroupoidValidationError):
        action_groupoid(z2, 2, [[1, 1], [0, 0]])  # identity moves points
    with pytest.raises(GroupoidValidationError):
        action_groupoid(z2, 2, [[0, 1], [1, 1]])  # generator is not involutive


def test_make_groupoid_rejects_bad_compose():
    g = point_groupoid(cyclic(2))
    bad = dict(g.compose)
    bad[(1, 1)] = 1  # should be 0
    with pytest.raises(GroupoidValidationError):
        make_groupoid(1, g.source, g.target, g.identity, g.inverse, bad)


def test_inertia_of_z2():
    sect = inertia(point_groupoid(cyclic(2)))
    assert sect.groupoid.n_objects == 2
    assert sect.groupoid.n_arrows == 4
    # unit embedding picks the identity loop object
    assert sect.unit.object_map == (sect.obj_index[(0, (0,))],)


def test_inertia_orbits_match_classes():
    for grp in (symmetric(3), dihedral(4), elementary_abelian(2, 3)):
        sect = inertia(point_groupoid(grp))
        comps = connected_components(sect.groupoid)
        decomp = sector_decomposition(grp)
        assert len(comps) == len(decomp)
        # centralizer appears as the vertex group of the matching component
        sizes_a = sorted(len(c.members) for _, c in decomp)
        sizes_b = sorted(
            vertex_group(sect.groupoid, comp[0])[0].order for comp in comps
        )
        assert sizes_a == sizes_b


def test_k_sector_counts():
    # for one-object groupoids: |G|^k objects, |G|^(k+1) arrows
    for grp, k in ((symmetric(3), 2), (elementary_abelian(2, 2), 2), (cyclic(4), 3)):
        sect = k_sectors(point_groupoid(grp), k)
        assert sect.groupoid.n_objects == grp.order**k
        assert sect.groupoid.n_arrows == grp.order ** (k + 1)


def test_sector_compose_is_simultaneous_conjugation():
    grp = symmetric(3)
    base = point_groupoid(grp)
    sect = k_sectors(base, 2)
    for i, (_, (a, b)) in enumerate(sect.objects):
        for v in range(grp.order):
            j = sect.groupoid.target[sect.arrow_index[(i, v)]]
            _, (ca, cb) = sect.objects[j]
            assert ca == grp.conjugate(a, v)
            assert cb == grp.conjugate(b, v)
    # (A, v) then (A^v, w) = (A, vw)
    for i in range(0, sect.groupoid.n_objects, 7):
        for v in range(grp.order):
            av = sect.arrow_index[(i, v)]
            j = sect.groupoid.target[av]
            for w in range(grp.order):
                aw = sect.arrow_index[(j, w)]
                assert sect.groupoid.compose[(av, aw)] == sect.arrow_index[
                    (i, grp.mul(v, w))
                ]


def test_nerve_counts_and_order():
    base = point_groupoid(cyclic(3))
    tuples = list(nerve(base, 2))
    assert len(tuples) == 9
    assert tuples == sorted(tuples)
    assert nerve_size(base, 2) == 9
    sect = inertia(point_groupoid(cyclic(2)))
    assert nerve_size(sect.groupoid, 2) == 8
    assert len(list(nerve(sect.groupoid, 2))) == 8
    assert nerve_size(discrete_groupoid(5), 3) == 5
    for grp in (symmetric(3),):
        assert nerve_size(point_groupoid(grp), 3) == grp.order**3


def test_evaluation_homs():
    grp = symmetric(3)
    base = point_groupoid(grp)
    two = k_sectors(base, 2)
    one = k_sectors(base, 1)
    e1 = evaluation_hom(two, "e1")
    e2 = evaluation_hom(two, "e2")
    e12 = evaluation_hom(two, "e12")
    assert e1.target is one.groupoid
    for i, (_, (a, b)) in enumerate(two.objects):
        assert one.objects[e1.object_map[i]][1] == (a,)
        assert one.objects[e2.object_map[i]][1] == (b,)
        assert one.objects[e12.object_map[i]][1] == (grp.mul(a, b),)
    # plain e projects to the base groupoid
    e = evaluation_hom(two, "e")
    assert e.target is base
    assert all(x == 0 for x in e.object_map)
    for name in ("e3", "e21", "twist", "e0", "e01"):
        with pytest.raises(ValueError):
            evaluation_hom(two, name)


def test_evaluation_e12_of_involution_pair():
    base = point_groupoid(cyclic(2))
    two = k_sectors(base, 2)
    e12 = evaluation_hom(two, "e12")
    one = k_sectors(base, 1)
    i = two.obj_index[(0, (1, 1))]
    assert one.objects[e12.object_map[i]][1] == (0,)


def test_unit_embedding_compositions():
    grp = symmetric(3)
    base = point_groupoid(grp)
    two = k_sectors(base, 2)
    lam = unit_embedding(two)
    e = unit_embedding(k_sectors(base, 1))
    for which in ("e1", "e2", "e12"):
        assert homs_equal(hom_compose(lam, evaluation_hom(two, which)), e)


def test_unit_embedding_from_sectors():
    base = point_groupoid(symmetric(3))
    one = k_sectors(base, 1)
    two = k_sectors(base, 2)
    lam = unit_embedding(two, one)
    # every object lands on a pair of identity loops
    for j in lam.object_map:
        _, tup = two.objects[j]
        assert all(base.is_identity_arrow(a) for a in tup)


def test_sector_rotation_formula():
    for grp in (symmetric(3), elementary_abelian(2, 2)):
        base = point_groupoid(grp)
        three = k_sectors(base, 3)
        rot = sector_rotation(three)
        for i, (_, (a, b, c)) in enumerate(three.objects):
            _, (p, q, r) = three.objects[rot.object_map[i]]
            bc = grp.mul(b, c)
            assert (p, q, r) == (b, c, grp.conjugate(a, bc))
        # cube of the rotation conjugates by the product of the loops
        for i, (_, (a, b, c)) in enumerate(three.objects):
            j = rot.object_map[rot.object_map[rot.object_map[i]]]
            d = grp.mul(grp.mul(a, b), c)
            _, tup = three.objects[j]
            assert tup == tuple(grp.conjugate(x, d) for x in (a, b, c))
        # invertible on objects
        assert sorted(rot.object_map) == list(range(three.groupoid.n_objects))


def test_sector_rotation_on_abelian_is_cyclic_shift():
    base = point_groupoid(elementary_abelian(2, 3))
    three = k_sectors(base, 3)
    rot = sector_rotation(three)
    for i, (_, (a, b, c)) in enumerate(three.objects):
        assert three.objects[rot.object_map[i]][1] == (b, c, a)


def test_fibered_product_identity_cospan():
    grp = cyclic(2)
    base = point_groupoid(grp)
    ident = make_hom(base, base, list(range(base.n_objects)), list(range(base.n_arrows)))
    fp = fibered_product(ident, ident)
    # objects: (single object, any arrow u, single object): 2 of them
    assert fp.groupoid.n_objects == 2
    mid, _, _ = identity_middle_component(fp)
    assert groupoids_isomorphic(mid, base)


def test_fibered_product_empty_overlap():
    grp = cyclic(2)
    base2 = discrete_groupoid(2)
    # two maps of a point into different components
    pt = discrete_groupoid(1)
    f = make_hom(pt, base2, [0], [base2.identity[0]])
    g = make_hom(pt, base2, [1], [base2.identity[1]])
    fp = fibered_product(f, g)
    assert fp.groupoid.n_objects == 0
    assert fp.groupoid.n_arrows == 0


def test_triple_product_small_groups():
    for grp in (cyclic(4), elementary_abelian(2, 2)):
        base = point_groupoid(grp)
        two = k_sectors(base, 2)
        three = k_sectors(base, 3)
        fp = fibered_product(evaluation_hom(two, "e12"), evaluation_hom(two, "e1"))
        mid, keep_obj, _ = identity_middle_component(fp)
        assert mid.n_objects == grp.order**3
        assert groupoids_isomorphic(mid, three.groupoid)
        # direct strict construction agrees
        direct, iso = sector_triple_product(base)
        assert direct.n_objects == mid.n_objects
        assert direct.n_arrows == mid.n_arrows
        assert groupoids_isomorphic(direct, three.groupoid)
        assert iso.target is three.groupoid


def test_triple_product_nonabelian():
    for grp in (symmetric(3), dihedral(4)):
        base = point_groupoid(grp)
        direct, iso = sector_triple_product(base)
        three = k_sectors(base, 3)
        assert direct.n_objects == grp.order**3
        # iso validated as a functor and bijective on objects and arrows
        assert sorted(iso.object_map) == list(range(three.groupoid.n_objects))
        assert sorted(iso.arrow_map) == list(range(three.groupoid.n_arrows))
        assert groupoids_isomorphic(direct, three.groupoid)


def test_full_subgroupoid():
    base = point_groupoid(symmetric(3))
    sect = inertia(base)
    comps = connected_components(sect.groupoid)
    sub, kept, _ = full_subgroupoid(sect.groupoid, comps[1])
    assert sub.n_objects == len(comps[1])
    assert len(connected_components(sub)) == 1


def test_groupoids_isomorphic_examples():
    assert groupoids_isomorphic(
        point_groupoid(symmetric(3)), point_groupoid(dihedral(3))
    )
    assert not groupoids_isomorphic(
        point_groupoid(cyclic(4)), point_groupoid(elementary_abelian(2, 2))
    )
    assert not groupoids_isomorphic(discrete_groupoid(2), point_groupoid(cyclic(2)))
    z2 = cyclic(2)
    free = action_groupoid(z2, 2, [[0, 1], [1, 0]])
    # free orbit of 2 points is a pair groupoid, not two copies of [*/Z2]
    assert not groupoids_isomorphic(
        free, inertia(point_groupoid(z2)).groupoid
    )


def test_ab_ba_conjugate():
    grp = symmetric(3)
    part_class = __import__(
        "transfusion.groups", fromlist=["conjugacy_classes"]
    ).conjugacy_classes(grp)
    for a in grp.elements():
        for b in grp.elements():
            assert (
                part_class.class_of[grp.mul(a, b)]
                == part_class.class_of[grp.mul(b, a)]
            )


def test_sector_cap():
    with pytest.raises(GroupoidValidationError):
        k_sectors(point_groupoid(elementary_abelian(2, 4)), 4, arrow_cap=10**5)


def _explicit_sectors(base, k):
    """The k-sector groupoid assembled arrow by arrow from the base's
    composition, with no validation: a reference independent of the group
    table and of action_groupoid."""
    objects = []
    for x in range(base.n_objects):
        for tup in itertools.product(base.loops[x], repeat=k):
            objects.append((x, tup))
    obj_index = {ob: i for i, ob in enumerate(objects)}
    arrows = [(i, v) for i, (x, _) in enumerate(objects) for v in base.out_arrows[x]]
    arrow_index = {ar: j for j, ar in enumerate(arrows)}

    def conj(a, v):
        return base.compose[(base.compose[(base.inverse[v], a)], v)]

    source, target, inverse = [], [], []
    for i, v in arrows:
        _, tup = objects[i]
        j = obj_index[(base.target[v], tuple(conj(a, v) for a in tup))]
        source.append(i)
        target.append(j)
        inverse.append(arrow_index[(j, base.inverse[v])])
    identity = [arrow_index[(i, base.identity[x])] for i, (x, _) in enumerate(objects)]
    compose = {}
    for idx, (i, v) in enumerate(arrows):
        j = target[idx]
        for w in base.out_arrows[objects[j][0]]:
            compose[(idx, arrow_index[(j, w)])] = arrow_index[(i, base.compose[(v, w)])]
    out_arrows = [[] for _ in objects]
    loops = [[] for _ in objects]
    for a, (s, t) in enumerate(zip(source, target)):
        out_arrows[s].append(a)
        if s == t:
            loops[s].append(a)
    unit_om = [obj_index[(x, (base.identity[x],) * k)] for x in range(base.n_objects)]
    unit_am = [arrow_index[(unit_om[base.source[v]], v)] for v in range(base.n_arrows)]
    return {
        "objects": tuple(objects),
        "obj_index": obj_index,
        "arrows": tuple(arrows),
        "arrow_index": arrow_index,
        "source": tuple(source),
        "target": tuple(target),
        "identity": tuple(identity),
        "inverse": tuple(inverse),
        "compose": list(compose.items()),
        "out_arrows": tuple(map(tuple, out_arrows)),
        "loops": tuple(map(tuple, loops)),
        "unit": (tuple(unit_om), tuple(unit_am)),
    }


SECTOR_CASES = [
    (spec, k)
    for spec in ("cyclic:4", "elemab:2,2", "symmetric:3", "dihedral:4", "elemab:2,3")
    for k in (1, 2, 3)
] + [("symmetric:4", 1), ("symmetric:4", 2)]


@pytest.mark.parametrize("spec,k", SECTOR_CASES)
def test_sector_groupoids_are_the_conjugation_action_groupoids(spec, k):
    base = point_groupoid(construct_group(spec))
    sect = k_sectors(base, k)
    gpd = sect.groupoid
    built = {
        "objects": sect.objects,
        "obj_index": sect.obj_index,
        "arrows": sect.arrows,
        "arrow_index": sect.arrow_index,
        "source": gpd.source,
        "target": gpd.target,
        "identity": gpd.identity,
        "inverse": gpd.inverse,
        "compose": list(gpd.compose.items()),
        "out_arrows": gpd.out_arrows,
        "loops": gpd.loops,
        "unit": (sect.unit.object_map, sect.unit.arrow_map),
    }
    for name, value in _explicit_sectors(base, k).items():
        assert built[name] == value, name
    # the generic validator accepts the tables as built
    again = make_groupoid(
        gpd.n_objects, gpd.source, gpd.target, gpd.identity, gpd.inverse, gpd.compose
    )
    assert again.out_arrows == gpd.out_arrows and again.loops == gpd.loops


def test_sector_groupoids_never_call_make_groupoid(monkeypatch):
    calls = []
    real = groupoids.make_groupoid

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(groupoids, "make_groupoid", counted)
    grp = dihedral(4)
    # a fresh one-object groupoid, so that no sector groupoid is cached on it
    base = action_groupoid(grp, 1, [[0] * grp.order])
    for k in (1, 2, 3):
        assert k_sectors(base, k).groupoid.n_arrows == grp.order ** (k + 1)
    assert calls == []


def test_action_axiom_refuses_planted_defects_in_a_conjugation_table():
    grp = symmetric(3)
    n = grp.order
    gpd = k_sectors(point_groupoid(grp), 2).groupoid
    act = [list(gpd.target[i * n : (i + 1) * n]) for i in range(gpd.n_objects)]
    assert action_groupoid(grp, len(act), act).compose == gpd.compose
    rng = random.Random(5)
    for _ in range(20):
        bad = [row[:] for row in act]
        x, g = rng.randrange(len(bad)), rng.randrange(1, n)
        bad[x][g] = (bad[x][g] + rng.randrange(1, len(bad))) % len(bad)
        with pytest.raises(GroupoidValidationError):
            action_groupoid(grp, len(bad), bad)


def test_sectors_of_a_base_whose_identity_is_not_arrow_zero():
    # cyclic(3) with its arrows numbered so that the identity is arrow 2
    label = [2, 0, 1]
    grp = cyclic(3)
    compose = {
        (label[g], label[h]): label[grp.mul(g, h)] for g in range(3) for h in range(3)
    }
    inverse = [0] * 3
    for g in range(3):
        inverse[label[g]] = label[grp.inverse(g)]
    base = make_groupoid(1, [0] * 3, [0] * 3, [2], inverse, compose)
    two = k_sectors(base, 2)
    assert two.objects[0] == (0, (2, 2))
    assert two.unit.object_map == (0,)
    assert sorted(ob for _, ob in two.objects) == sorted(
        itertools.product(range(3), repeat=2)
    )
    gpd = two.groupoid
    make_groupoid(gpd.n_objects, gpd.source, gpd.target, gpd.identity, gpd.inverse, gpd.compose)
    # abelian: every arrow is a loop, and e12 multiplies the two loops
    assert all(s == t for s, t in zip(gpd.source, gpd.target))
    e12 = evaluation_hom(two, "e12")
    one = k_sectors(base, 1)
    for i, (_, (a, b)) in enumerate(two.objects):
        assert one.objects[e12.object_map[i]][1] == (base.compose[(a, b)],)


def test_sectors_refuse_a_base_with_two_objects():
    with pytest.raises(ValueError):
        k_sectors(discrete_groupoid(2), 1)
    z2 = cyclic(2)
    with pytest.raises(ValueError):
        k_sectors(action_groupoid(z2, 2, [[0, 1], [1, 0]]), 2)


def _digest(c):
    return hashlib.sha256(repr((c.modulus, sorted(c.table.items()))).encode()).hexdigest()


def test_sector_numbering_pinned_by_cochains_and_replays(capsys):
    # frozen from the arrow-by-arrow construction; verify witnesses and
    # --check-tuple replays name sector arrows by these indices
    frozen = {
        "symmetric:3": (
            3,
            "1ab114ca6f6e8522ff86a12012132e3eea8736aa9a262c68e34903f142a6e080",
            "2a93c00bd90e8ba86e3977d7a12098e1b153d8eb366fade372def8d05d9d6e07",
        ),
        "dihedral:4": (
            4,
            "031d572229725a464d0ce5cc3f6ff5f9c75ef35d8a512504f4105945e97e5868",
            "3d1e995414a79d45b2246c12de5e63759b419283a7f3bb7a53a6b2352fe201cf",
        ),
    }
    for spec, (seed, lam_hash, two_hash) in frozen.items():
        base = point_groupoid(construct_group(spec))
        phi = random_cochain(base, 3, random.Random(seed))
        assert _digest(inverse_transgression(phi, inertia(base))) == lam_hash, spec
        assert _digest(product_homotopy(phi, k_sectors(base, 2))) == two_hash, spec
    argv = ["verify", "--group", "symmetric:3", "--degree", "3", "--trials", "2"]
    code = main(argv + ["--seed", "7", "--debug-flip-transgression-sign"])
    replays = re.findall(r'--check-tuple "([^"]+)"', capsys.readouterr().out)
    assert code == 1
    assert replays == ["product-identity:0:0,0", "unit-pullback-triviality:0:1,1"]
