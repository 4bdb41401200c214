from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
import tracemalloc

import pytest

from transfusion import cli, groupoids
from transfusion.cli import main
from transfusion.cochains import inverse_transgression, product_homotopy, random_cochain
from transfusion.groups import (
    centralizer,
    conjugacy_classes,
    construct_group,
    cyclic,
    dihedral,
    elementary_abelian,
    symmetric,
)
from transfusion.groupoids import (
    ActionCompose,
    FiniteGroupoid,
    GroupoidValidationError,
    action_groupoid,
    connected_components,
    evaluation_hom,
    fibered_product,
    full_subgroupoid,
    groupoids_isomorphic,
    identity_middle_component,
    inertia,
    k_sectors,
    make_groupoid,
    make_hom,
    nerve,
    nerve_size,
    point_groupoid,
    sector_triple_product,
    vertex_group,
)


def discrete_groupoid(n_points):
    """n objects and their identity arrows: the trivial group acting on n points."""
    return action_groupoid(cyclic(1), n_points, [[x] for x in range(n_points)])


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
    assert sect.unit.object_map == (sect.obj_index((0, (0,))),)


def test_inertia_orbits_match_classes():
    for grp in (symmetric(3), dihedral(4), elementary_abelian(2, 3)):
        sect = inertia(point_groupoid(grp))
        comps = connected_components(sect.groupoid)
        reps = conjugacy_classes(grp).representatives
        assert len(comps) == len(reps)
        # centralizer appears as the vertex group of the matching component
        sizes_a = sorted(len(centralizer(grp, rep).members) for rep in reps)
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
            j = sect.groupoid.target[sect.arrow_index(i, v)]
            _, (ca, cb) = sect.objects[j]
            assert ca == grp.conjugate(a, v)
            assert cb == grp.conjugate(b, v)
    # (A, v) then (A^v, w) = (A, vw)
    for i in range(0, sect.groupoid.n_objects, 7):
        for v in range(grp.order):
            av = sect.arrow_index(i, v)
            j = sect.groupoid.target[av]
            for w in range(grp.order):
                aw = sect.arrow_index(j, w)
                assert sect.groupoid.compose[(av, aw)] == sect.arrow_index(
                    i, grp.mul(v, w)
                )


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
    for name in ("e", "e3", "e21", "twist", "e0", "e01"):
        with pytest.raises(ValueError):
            evaluation_hom(two, name)


def test_evaluation_maps_match_index_lookups():
    # the object and arrow maps read through obj_index and arrow_index, as
    # evaluation_hom built them before it computed them from the digits
    def by_lookup(sectors, which):
        base, one = sectors.base, k_sectors(sectors.base, 1)
        om = []
        for x, tup in sectors.objects:
            prod = base.identity[x]
            for d in which[1:]:
                prod = base.compose[(prod, tup[int(d) - 1])]
            om.append(one.obj_index((x, (prod,))))
        return tuple(om), tuple(
            one.arrow_index(om[i], v)
            for i, v in map(sectors.arrow, range(sectors.groupoid.n_arrows))
        )

    label = [2, 0, 1]
    grp = cyclic(3)
    compose = {
        (label[g], label[h]): label[grp.mul(g, h)] for g in range(3) for h in range(3)
    }
    inverse = [0] * 3
    for g in range(3):
        inverse[label[g]] = label[grp.inverse(g)]
    bases = [point_groupoid(g) for g in (cyclic(5), symmetric(3), dihedral(4))]
    bases.append(make_groupoid(1, [0] * 3, [0] * 3, [2], inverse, compose))
    for base in bases:
        for k, names in ((1, ("e1",)), (2, ("e1", "e2", "e12")), (3, ("e13", "e123"))):
            sectors = k_sectors(base, k)
            for which in names:
                ev = evaluation_hom(sectors, which)
                assert (ev.object_map, ev.arrow_map) == by_lookup(sectors, which)


def test_evaluation_e12_of_involution_pair():
    base = point_groupoid(cyclic(2))
    two = k_sectors(base, 2)
    e12 = evaluation_hom(two, "e12")
    one = k_sectors(base, 1)
    i = two.obj_index((0, (1, 1)))
    assert one.objects[e12.object_map[i]][1] == (0,)


def test_unit_embedding_compositions():
    # padding with identity loops, then evaluating, is the unit of the loops
    grp = symmetric(3)
    base = point_groupoid(grp)
    two = k_sectors(base, 2)
    one = k_sectors(base, 1)
    for which in ("e1", "e2", "e12"):
        ev = evaluation_hom(two, which)
        assert tuple(ev.object_map[x] for x in two.unit.object_map) == one.unit.object_map
        assert tuple(ev.arrow_map[a] for a in two.unit.arrow_map) == one.unit.arrow_map


def test_evaluation_homs_are_built_once(monkeypatch, capsys):
    two = k_sectors(point_groupoid(symmetric(3)), 2)
    for which in ("e1", "e2", "e12"):
        assert evaluation_hom(two, which) is evaluation_hom(two, which)
    calls = []
    real = groupoids.make_hom

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(groupoids, "make_hom", counted)
    # a fresh base per run, so that no hom is cached from an earlier one
    monkeypatch.setattr(
        cli, "point_groupoid", lambda grp: action_groupoid(grp, 1, [[0] * grp.order])
    )
    counts = []
    for trials in ("1", "4"):
        calls.clear()
        argv = ["verify", "--group", "symmetric:3", "--degree", "2", "--trials", trials]
        assert main(argv) == 0
        counts.append(len(calls))
    capsys.readouterr()
    # the unit homs of the 1- and 2-sectors, then e1, e2 and e12
    assert counts == [5, 5]


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
    # the numberings are computed; materialise them to compare every entry
    arrows = tuple(map(sect.arrow, range(gpd.n_arrows)))
    built = {
        "objects": sect.objects,
        "obj_index": {ob: sect.obj_index(ob) for ob in sect.objects},
        "arrows": arrows,
        "arrow_index": {ar: sect.arrow_index(*ar) for ar in arrows},
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
        # the first (point, g, h), in loop order, with x.g.h != x.(gh)
        want = next(
            (x, g, h)
            for x in range(len(bad))
            for g in range(n)
            for h in range(n)
            if bad[bad[x][g]][h] != bad[x][grp.mul(g, h)]
        )
        with pytest.raises(GroupoidValidationError) as exc:
            action_groupoid(grp, len(bad), bad)
        assert str(exc.value) == "action axiom fails at point {}, elements ({},{})".format(*want)


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
    # the computed numberings read loops by their places, identity first,
    # invert each other, and refuse keys outside the tables
    assert [two.obj_index(ob) for ob in two.objects] == list(range(9))
    assert two.arrow(1) == (0, 0) and two.arrow_index(0, 2) == 0
    for j in range(gpd.n_arrows):
        i, v = two.arrow(j)
        assert two.arrow_index(i, v) == j and gpd.source[j] == i
    for ob in ((1, (2, 2)), (0, (2,)), (0, (2, 3)), (0, (-1, 2)), (0, (2, 2, 2))):
        with pytest.raises(KeyError):
            two.obj_index(ob)
    for i, v in ((-1, 0), (9, 0), (0, 3), (0, -1)):
        with pytest.raises(KeyError):
            two.arrow_index(i, v)
    for j in (-1, 27):
        with pytest.raises(IndexError):
            two.arrow(j)


def test_sectors_refuse_a_base_with_two_objects():
    with pytest.raises(ValueError):
        k_sectors(discrete_groupoid(2), 1)
    z2 = cyclic(2)
    with pytest.raises(ValueError):
        k_sectors(action_groupoid(z2, 2, [[0, 1], [1, 0]]), 2)


def test_make_hom_refuses_out_of_range_indices():
    base = point_groupoid(cyclic(3))
    for bad in (-1, 3, 5):
        with pytest.raises(GroupoidValidationError, match=f"sends arrow 2 to {bad},"):
            make_hom(base, base, [0], [0, 1, bad])
    for bad in (-1, 1, 5):
        with pytest.raises(GroupoidValidationError, match=f"sends object 0 to {bad},"):
            make_hom(base, base, [bad], [0, 1, 2])
    # the first bad entry is the one named
    with pytest.raises(GroupoidValidationError, match="sends arrow 1 to 7,"):
        make_hom(base, base, [0], [0, 7, -2])
    # a target built by make_groupoid is checked the same way
    disc = discrete_groupoid(2)
    with pytest.raises(GroupoidValidationError, match="sends arrow 0 to -1,"):
        make_hom(discrete_groupoid(1), full_subgroupoid(disc, [0, 1])[0], [0], [-1])


def test_make_hom_names_the_first_arrow_that_breaks_an_endpoint():
    # the identity hom of the S3 inertia groupoid and of a fibered product,
    # with arrows replanted; the first arrow, in index order, whose image
    # leaves from or lands on the wrong object is named, source first
    lam = inertia(point_groupoid(symmetric(3)))
    fp = fibered_product(lam.unit, lam.unit).groupoid
    assert fp.n_objects > 1 and not isinstance(fp.compose, ActionCompose)
    rng = random.Random("endpoints")
    for gpd in (lam.groupoid, fp):
        om, am = list(range(gpd.n_objects)), list(range(gpd.n_arrows))
        make_hom(gpd, gpd, om, am)
        for _ in range(30):
            bad = am[:]
            for a in rng.sample(range(gpd.n_arrows), rng.randrange(1, 4)):
                bad[a] = rng.randrange(gpd.n_arrows)
            first = next(
                (
                    (a, "source" if gpd.source[b] != gpd.source[a] else "target")
                    for a, b in enumerate(bad)
                    if (gpd.source[b], gpd.target[b]) != (gpd.source[a], gpd.target[a])
                ),
                None,
            )
            if first is None:
                continue
            with pytest.raises(GroupoidValidationError) as exc:
                make_hom(gpd, gpd, om, bad)
            assert str(exc.value) == "hom breaks {1} at arrow {0}".format(*first)


def test_make_groupoid_refuses_out_of_range_identity():
    g = point_groupoid(cyclic(2))
    for bad in (-1, 2):
        match = f"identity arrow {bad} of object 0"
        with pytest.raises(GroupoidValidationError, match=match):
            make_groupoid(1, g.source, g.target, [bad], g.inverse, dict(g.compose))


def _dict_action_groupoid(group, n_points, act):
    """The action groupoid with its composition stored as a dict, one entry
    per composable pair, built as action_groupoid once built it: the oracle
    for ActionCompose and for the arithmetic composition sweep of make_hom."""
    order = group.order
    elements = group.elements()
    out_arrows = tuple(
        tuple(range(x * order, (x + 1) * order)) for x in range(n_points)
    )
    source, target, inverse, compose = [], [], [], {}
    for x, row in enumerate(act):
        xout = out_arrows[x]
        for g in elements:
            y = row[g]
            mg = group.mult[g]
            a = xout[g]
            yout = out_arrows[y]
            source.append(x)
            target.append(y)
            inverse.append(yout[group.inv[g]])
            for h in elements:
                compose[(a, yout[h])] = xout[mg[h]]
    return FiniteGroupoid(
        n_objects=n_points,
        source=tuple(source),
        target=tuple(target),
        identity=tuple(xout[0] for xout in out_arrows),
        inverse=tuple(inverse),
        compose=compose,
        out_arrows=out_arrows,
        loops=tuple(
            tuple(xout[g] for g in elements if row[g] == x)
            for x, (row, xout) in enumerate(zip(act, out_arrows))
        ),
    )


def _action_table(gpd, order):
    return [list(gpd.target[x * order : (x + 1) * order]) for x in range(gpd.n_objects)]


def _composition_cases():
    """(name, group, action table, homs into or out of it) for the view
    tests; a hom is (source key, target key, object map, arrow map), the key
    "self" naming the case's own groupoid and "base" its group's point."""
    grp = cyclic(5)
    yield "cyclic:5", grp, [[0] * 5], [("self", "self", [0], list(range(5)))]
    for spec in ("symmetric:3", "dihedral:4"):
        grp = construct_group(spec)
        base = point_groupoid(grp)
        for k in (1, 2, 3):
            sect = k_sectors(base, k)
            homs = [("base", "self", sect.unit.object_map, sect.unit.arrow_map)]
            if k == 1:
                homs.append(("self", "self", range(grp.order), range(grp.order**2)))
            else:
                e1 = evaluation_hom(sect, "e1")
                homs.append(("self", "one", e1.object_map, e1.arrow_map))
            yield f"{spec}:{k}", grp, _action_table(sect.groupoid, grp.order), homs
    # the swap of two points, and its map onto the point groupoid of C2
    yield "swap", cyclic(2), [[0, 1], [1, 0]], [("self", "base", [0, 0], [0, 1, 0, 1])]


@pytest.mark.parametrize("case", list(_composition_cases()), ids=lambda c: c[0])
def test_action_compose_reads_like_the_dict_it_replaces(case):
    _, grp, act, _ = case
    view = action_groupoid(grp, len(act), act).compose
    oracle = _dict_action_groupoid(grp, len(act), act).compose
    assert isinstance(view, ActionCompose)
    assert len(view) == len(oracle)
    assert list(view) == list(oracle)
    assert list(view.items()) == list(oracle.items())
    assert view == oracle and oracle == view
    for (a, b), c in oracle.items():
        assert view[(a, b)] == c and view.get((a, b)) == c and (a, b) in view
    n = len(act) * grp.order
    rng = random.Random(n)
    pairs = [(a, b) for a in range(min(n, 40)) for b in range(min(n, 40))]
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(2000)]
    pairs += [(-1, 0), (0, -1), (n, 0), (0, n), (n - 1, n)]
    for pair in pairs:
        assert view.get(pair) == oracle.get(pair)
        assert (pair in view) == (pair in oracle)
        if pair not in oracle:
            with pytest.raises(KeyError):
                view[pair]
    assert sum(pair not in oracle for pair in pairs) > 0


@pytest.mark.parametrize("case", list(_composition_cases()), ids=lambda c: c[0])
def test_make_hom_composition_sweep_matches_the_dict_sweep(case):
    """Arrow maps planted with a wrong arrow that keeps its endpoints pass
    the source, target and identity checks; the arithmetic sweeps must
    refuse each at the same pair as the dict sweep."""
    name, grp, act, homs = case
    base_act = [[0] * grp.order]
    one_act = _action_table(k_sectors(point_groupoid(grp), 1).groupoid, grp.order)
    tables = {"self": act, "base": base_act, "one": one_act}
    computed = {key: action_groupoid(grp, len(t), t) for key, t in tables.items()}
    stored = {key: _dict_action_groupoid(grp, len(t), t) for key, t in tables.items()}
    rng = random.Random(name)
    planted = 0
    for src, tgt, om, am in homs:
        am = list(am)
        make_hom(computed[src], computed[tgt], om, am)
        make_hom(stored[src], stored[tgt], om, am)
        s_gpd, t_gpd = computed[src], computed[tgt]
        candidates = [
            a for a in range(s_gpd.n_arrows) if not s_gpd.is_identity_arrow(a)
        ]
        for a in rng.sample(candidates, min(6, len(candidates))):
            img = am[a]
            # another arrow with the endpoints of img: img followed by a loop
            others = [
                t_gpd.compose[(img, u)]
                for u in t_gpd.loops[t_gpd.target[img]]
                if not t_gpd.is_identity_arrow(u)
            ]
            if not others:
                continue
            bad = am[:]
            bad[a] = rng.choice(others)
            with pytest.raises(GroupoidValidationError, match="composition") as want:
                make_hom(stored[src], stored[tgt], om, bad)
            # both ends computed, then a dict-composed source into a
            # computed target, read through the view
            for hom_source in (s_gpd, stored[src]):
                with pytest.raises(GroupoidValidationError) as got:
                    make_hom(hom_source, t_gpd, om, bad)
                assert str(got.value) == str(want.value)
            planted += 1
    assert planted > 0


def _same_verdict_as_the_dict_sweep(source, target, om, am):
    """make_hom between action groupoids given as (group, action table)
    pairs: both ends computed, and each end in turn dict-composed, accept
    or refuse om, am with the same text as both ends dict-composed. Returns
    that text, or None if the hom is accepted."""
    computed = [action_groupoid(grp, len(act), act) for grp, act in (source, target)]
    stored = [_dict_action_groupoid(grp, len(act), act) for grp, act in (source, target)]
    try:
        make_hom(stored[0], stored[1], om, am)
        want = None
    except GroupoidValidationError as e:
        want = str(e)
    for s_gpd, t_gpd in (computed, (stored[0], computed[1]), (computed[0], stored[1])):
        if want is None:
            make_hom(s_gpd, t_gpd, om, am)
        else:
            with pytest.raises(GroupoidValidationError) as got:
                make_hom(s_gpd, t_gpd, om, am)
            assert str(got.value) == want
    return want


def test_make_hom_refuses_planted_maps_like_the_dict_sweep():
    """Maps whose element map f is the same at every point, whether or not
    f is a homomorphism, maps whose f varies with the point, and maps
    between action groupoids of two different groups."""
    verdicts = []
    # f the same at every point: the S3 2-sectors onto C2 acting trivially
    # on two points, the pair (a, b) going to the sign of ab
    s3, c2 = symmetric(3), cyclic(2)
    two_act = _action_table(k_sectors(point_groupoid(s3), 2).groupoid, s3.order)
    even = {s3.mul(h, h) for h in s3.elements()}
    sign = [0 if g in even else 1 for g in s3.elements()]
    om = [sign[s3.mul(a, b)] for a in s3.elements() for b in s3.elements()]
    inertia_c2 = (c2, [[0, 0], [1, 1]])
    rng = random.Random("uniform f")
    maps = [sign] + [[0] + [rng.randrange(2) for _ in range(5)] for _ in range(12)]
    for f in maps:
        am = [y * 2 + f[g] for y in om for g in s3.elements()]
        verdicts.append(_same_verdict_as_the_dict_sweep((s3, two_act), inertia_c2, om, am))
    assert verdicts[0] is None
    # f varying with the point: the S3 inertia onto the S3 point groupoid,
    # (x, g) going to c[x]^-1 g c[x.g], a hom for every choice of c; then
    # one arrow replanted
    one_act = _action_table(k_sectors(point_groupoid(s3), 1).groupoid, s3.order)
    s3_point = (s3, [[0] * s3.order])
    for seed in range(6):
        rng = random.Random(seed)
        c = [rng.randrange(s3.order) for _ in one_act]
        am = [
            s3.mul(s3.mul(s3.inverse(c[x]), g), c[y])
            for x, row in enumerate(one_act)
            for g, y in enumerate(row)
        ]
        assert len({tuple(am[x * 6 : x * 6 + 6]) for x in range(6)}) > 1
        verdicts.append(_same_verdict_as_the_dict_sweep((s3, one_act), s3_point, [0] * 6, am))
        assert verdicts[-1] is None
        bad = am[:]
        a = rng.choice([a for a in range(36) if a % 6])
        bad[a] = rng.choice([h for h in range(1, 6) if h != am[a]])
        verdicts.append(_same_verdict_as_the_dict_sweep((s3, one_act), s3_point, [0] * 6, bad))
        assert verdicts[-1] is not None
    # C4 onto C2: every element map fixing the identity, on the point
    # groupoids and on the inertia groupoids, point x going to x mod 2
    c4 = cyclic(4)
    for f in itertools.product(range(2), repeat=3):
        f = (0,) + f
        verdicts.append(
            _same_verdict_as_the_dict_sweep((c4, [[0] * 4]), (c2, [[0, 0]]), [0], f)
        )
        assert (verdicts[-1] is None) == (f in ((0, 0, 0, 0), (0, 1, 0, 1)))
        am = [(x % 2) * 2 + f[g] for x in range(4) for g in range(4)]
        inertia_c4 = (c4, [[x] * 4 for x in range(4)])
        verdict = _same_verdict_as_the_dict_sweep(inertia_c4, inertia_c2, [0, 1, 0, 1], am)
        assert verdict == verdicts[-1]
    refused = [v for v in verdicts if v is not None]
    assert len(refused) > 12 and all("breaks composition" in v for v in refused)


def test_two_sectors_of_s4_allocate_under_2_5_mb():
    grp = symmetric(4)
    # equal to point_groupoid(grp), but fresh, so no sectors are cached on it
    base = action_groupoid(grp, 1, [[0] * grp.order])
    tracemalloc.start()
    try:
        two = k_sectors(base, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert two.groupoid.n_arrows == grp.order**3
    # a composition dict of 24^4 entries took 32 MB, and the stored arrow
    # tables about 1.7 MB more than the 1.8 MB the groupoid peaks at now
    assert peak < 2.5 * 2**20


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
    argv += ["--seed", "7", "--debug-flip-transgression-sign"]
    code = main(argv)
    replays = re.findall(r'--check-tuple "([^"]+)"', capsys.readouterr().out)
    assert code == 1
    assert replays == ["product-identity:0:0,0", "unit-pullback-triviality:0:1,1"]
    assert main(argv + ["--json"]) == 1
    assert json.loads(capsys.readouterr().out) == FLIP_REPORT_S3
    frozen_sides = {
        "product-identity:0:0,0": ["lhs: 3/4", "rhs: 1/4"],
        "unit-pullback-triviality:0:1,1": ["lhs: 2/3", "rhs: 1/3"],
    }
    for replay, sides in frozen_sides.items():
        assert main(argv + ["--check-tuple", replay]) == 1
        out = capsys.readouterr().out
        assert re.findall(r"^(?:lhs|rhs): .*$", out, re.M) == sides, replay


# the --json report of the flipped symmetric:3 run above, frozen before the
# identities moved into cochains.py
FLIP_REPORT_S3 = {
    "checks": [
        {"detail": "2 trials", "name": "coboundary-squares-to-zero", "status": "pass"},
        {"detail": "2 trials", "name": "transgression-chain-map", "status": "pass"},
        {
            "detail": "2 of 2 trials failed",
            "name": "product-identity",
            "replay": "product-identity:0:0,0",
            "status": "fail",
            "witness": {"key": [0, 0], "trial": 0},
        },
        {
            "detail": "2 of 2 trials failed",
            "name": "unit-pullback-triviality",
            "replay": "unit-pullback-triviality:0:1,1",
            "status": "fail",
            "witness": {"key": [1, 1], "trial": 0},
        },
    ],
    "command": "verify --group symmetric:3 --degree 3 --trials 2 --seed 7"
    " --debug-flip-transgression-sign",
    "group": {"order": 6, "spec": "symmetric:3"},
    "result": "fail",
    "trials": 2,
}
