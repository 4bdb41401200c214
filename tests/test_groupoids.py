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
    cyclic,
    dihedral,
    elementary_abelian,
    parse_group_spec,
    symmetric,
)
from transfusion.groupoids import (
    GroupoidValidationError,
    action_groupoid,
    face_hom,
    inertia,
    k_sectors,
    make_hom,
    nerve,
    nerve_index,
    nerve_size,
    point_groupoid,
)

from support_groupoids import (
    DictGroupoid,
    as_dict_groupoid,
    connected_components,
    dict_action_groupoid,
    dict_make_hom,
    explicit_sectors,
    fibered_product,
    full_subgroupoid,
    groupoids_isomorphic,
    identity_middle_component,
    make_groupoid,
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
    assert g.act == ((0, 0, 0, 0),)
    assert g.source == g.target == (0, 0, 0, 0)
    # arrow 1 then arrow 2 is arrow 3, whose inverse is arrow 1
    assert g.mult[1][2] == 3
    assert g.group.inv[3] == 1


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
    # one arrow per point, arrow x*|G| = x: each is its point's identity
    assert g.order == 1 and g.source == g.target == (0, 1, 2)
    assert len(connected_components(g)) == 3


def test_action_validation():
    z2 = cyclic(2)
    with pytest.raises(GroupoidValidationError):
        action_groupoid(z2, 2, [[1, 1], [0, 0]])  # identity moves points
    with pytest.raises(GroupoidValidationError):
        action_groupoid(z2, 2, [[0, 1], [1, 1]])  # generator is not involutive


def test_make_groupoid_rejects_bad_compose():
    g = as_dict_groupoid(point_groupoid(cyclic(2)))
    bad = dict(g.compose)
    bad[(1, 1)] = 1  # should be 0
    with pytest.raises(GroupoidValidationError):
        make_groupoid(1, g.source, g.target, g.identity, g.inverse, bad)


def test_inertia_of_z2():
    sect = inertia(point_groupoid(cyclic(2)))
    assert sect.groupoid.n_objects == 2
    assert sect.groupoid.n_arrows == 4
    # unit embedding picks the identity loop, object 0 (its digit is 0)
    assert sect.unit.object_map == (0,)


def test_inertia_orbits_match_classes():
    for grp in (symmetric(3), dihedral(4), elementary_abelian(2, 3)):
        sect = inertia(point_groupoid(grp))
        comps = connected_components(sect.groupoid)
        reps = [c[0] for c in conjugacy_classes(grp).classes]
        assert len(comps) == len(reps)
        # centralizer appears as the vertex group of the matching component
        sizes_a = sorted(len(centralizer(grp, rep)) for rep in reps)
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
    n = grp.order
    base = point_groupoid(grp)
    sect = k_sectors(base, 2)
    compose = as_dict_groupoid(sect.groupoid).compose
    # object i is the pair of base-|G| digits of i, arrow (i, v) is i*|G| + v
    for i, (a, b) in enumerate(itertools.product(range(n), repeat=2)):
        for v in range(n):
            j = sect.groupoid.target[i * n + v]
            assert divmod(j, n) == (grp.conjugate(a, v), grp.conjugate(b, v))
    # (A, v) then (A^v, w) = (A, vw)
    for i in range(0, sect.groupoid.n_objects, 7):
        for v in range(n):
            av = i * n + v
            j = sect.groupoid.target[av]
            for w in range(n):
                assert compose[(av, j * n + w)] == i * n + grp.mult[v][w]


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


def _number(digits, n):
    """The base-n number with these digits, most significant first."""
    x = 0
    for d in digits:
        x = x * n + d
    return x


FACE_BASES = ("cyclic:5", "symmetric:3", "dihedral:4")


@pytest.mark.parametrize("spec", FACE_BASES)
def test_faces_match_a_digit_oracle(spec):
    grp = parse_group_spec(spec)
    n, base = grp.order, point_groupoid(grp)
    for k in (1, 2, 3):
        sectors = k_sectors(base, k)
        target = base if k == 1 else k_sectors(base, k - 1).groupoid
        for i in range(k + 1):
            face = face_hom(sectors, i)
            assert face.source is sectors.groupoid and face.target is target
            # object x is the tuple of its k base-|G| digits
            om = []
            for loops in itertools.product(range(n), repeat=k):
                if i == 0:
                    image = loops[1:]
                elif i == k:
                    image = loops[:-1]
                else:
                    a, b = loops[i - 1], loops[i]
                    image = loops[: i - 1] + (grp.mult[a][b],) + loops[i + 1 :]
                om.append(_number(image, n))
            assert face.object_map == tuple(om)
            # arrow (x, e) goes to (d_i(x), e)
            assert face.arrow_map == tuple(y * n + e for y in om for e in range(n))
        for i in (-1, k + 1):
            with pytest.raises(ValueError, match=f"face {i} out of range"):
                face_hom(sectors, i)


def test_the_two_faces_of_the_inertia_groupoid_are_one_map():
    for spec in FACE_BASES:
        base = point_groupoid(parse_group_spec(spec))
        lam = inertia(base)
        assert face_hom(lam, 0) is face_hom(lam, 1)
        assert face_hom(lam, 0).target is base


def _compose(f, g):
    """f then g, as (object map, arrow map)."""
    return (
        tuple(g.object_map[y] for y in f.object_map),
        tuple(g.arrow_map[b] for b in f.arrow_map),
    )


@pytest.mark.parametrize("spec", FACE_BASES)
def test_faces_satisfy_the_simplicial_identities(spec):
    base = point_groupoid(parse_group_spec(spec))
    for k in (2, 3):
        top, below = k_sectors(base, k), k_sectors(base, k - 1)
        # d_i d_j = d_(j-1) d_i for i < j: d_j then d_i is d_i then d_(j-1)
        for j in range(k + 1):
            for i in range(j):
                assert _compose(face_hom(top, j), face_hom(below, i)) == _compose(
                    face_hom(top, i), face_hom(below, j - 1)
                ), (k, i, j)


@pytest.mark.parametrize("spec", FACE_BASES)
def test_faces_of_the_unit_are_the_unit(spec):
    # padding with identity loops, then dropping or multiplying two, pads
    # with one identity loop fewer; with none left it is the identity
    base = point_groupoid(parse_group_spec(spec))
    identity = (tuple(range(base.n_objects)), tuple(range(base.n_arrows)))
    for k in (1, 2, 3):
        sectors = k_sectors(base, k)
        if k == 1:
            below = identity
        else:
            unit = k_sectors(base, k - 1).unit
            below = (unit.object_map, unit.arrow_map)
        for i in range(k + 1):
            assert _compose(sectors.unit, face_hom(sectors, i)) == below, (k, i)


def test_faces_are_built_once(monkeypatch, capsys):
    two = k_sectors(point_groupoid(symmetric(3)), 2)
    for i in range(3):
        assert face_hom(two, i) is face_hom(two, i)
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
    # the unit homs of the 1- and 2-sectors, the one face of the 1-sectors,
    # then the three faces of the 2-sectors
    assert counts == [6, 6]


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
    # two maps of a point into different components; arrow x is the
    # identity of point x
    pt = discrete_groupoid(1)
    f = make_hom(pt, base2, [0], [0])
    g = make_hom(pt, base2, [1], [1])
    fp = fibered_product(f, g)
    assert fp.groupoid.n_objects == 0
    assert fp.groupoid.n_arrows == 0


def test_triple_product_small_groups():
    for grp in (cyclic(4), elementary_abelian(2, 2)):
        base = point_groupoid(grp)
        two = k_sectors(base, 2)
        three = k_sectors(base, 3)
        fp = fibered_product(face_hom(two, 1), face_hom(two, 2))
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
                part_class.class_of[grp.mult[a][b]]
                == part_class.class_of[grp.mult[b][a]]
            )


def test_sector_cap():
    with pytest.raises(GroupoidValidationError):
        k_sectors(point_groupoid(elementary_abelian(2, 4)), 4)


SECTOR_CASES = [
    (spec, k)
    for spec in ("cyclic:4", "elemab:2,2", "symmetric:3", "dihedral:4", "elemab:2,3")
    for k in (1, 2, 3)
] + [("symmetric:4", 1), ("symmetric:4", 2)]


@pytest.mark.parametrize("spec,k", SECTOR_CASES)
def test_sector_groupoids_are_the_conjugation_action_groupoids(spec, k):
    base = point_groupoid(parse_group_spec(spec))
    sect = k_sectors(base, k)
    gpd = sect.groupoid
    # the numberings are computed: object i is the tuple of the k base-|G|
    # digits of i and arrow j is (i, v) = divmod(j, |G|). The identities,
    # inverses and composites follow from (group, act): materialise them
    # all to compare every entry
    n = base.order
    tables = as_dict_groupoid(gpd)
    built = {
        "objects": tuple((0, tup) for tup in itertools.product(range(n), repeat=k)),
        "arrows": tuple(divmod(j, n) for j in range(gpd.n_arrows)),
        "source": gpd.source,
        "target": gpd.target,
        "identity": tables.identity,
        "inverse": tables.inverse,
        "compose": list(tables.compose.items()),
        "out_arrows": tables.out_arrows,
        "loops": tables.loops,
        "unit": (sect.unit.object_map, sect.unit.arrow_map),
    }
    for name, value in explicit_sectors(base, k).items():
        assert built[name] == value, name
    # the generic validator accepts the tables as built
    again = make_groupoid(
        gpd.n_objects, gpd.source, gpd.target, tables.identity, tables.inverse, tables.compose
    )
    assert again.out_arrows == tables.out_arrows and again.loops == tables.loops


def test_action_axiom_refuses_planted_defects_in_a_conjugation_table():
    grp = symmetric(3)
    n = grp.order
    gpd = k_sectors(point_groupoid(grp), 2).groupoid
    act = [list(gpd.target[i * n : (i + 1) * n]) for i in range(gpd.n_objects)]
    assert action_groupoid(grp, len(act), act).act == gpd.act
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
            if bad[bad[x][g]][h] != bad[x][grp.mult[g][h]]
        )
        with pytest.raises(GroupoidValidationError) as exc:
            action_groupoid(grp, len(bad), bad)
        assert str(exc.value) == "action axiom fails at point {}, elements ({},{})".format(*want)


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
    # the dict sweep, on a target built by make_groupoid, names it alike
    disc = discrete_groupoid(2)
    with pytest.raises(GroupoidValidationError, match="sends arrow 0 to -1,"):
        dict_make_hom(discrete_groupoid(1), full_subgroupoid(disc, [0, 1])[0], [0], [-1])


def test_make_hom_names_the_first_arrow_that_breaks_an_endpoint():
    # the identity hom of the S3 inertia groupoid, and through the dict
    # sweep of a fibered product, with arrows replanted; the first arrow, in
    # index order, whose image leaves from or lands on the wrong object is
    # named, source first
    lam = inertia(point_groupoid(symmetric(3)))
    fp = fibered_product(lam.unit, lam.unit).groupoid
    assert fp.n_objects > 1 and isinstance(fp, DictGroupoid)
    rng = random.Random("endpoints")
    for gpd, check in ((lam.groupoid, make_hom), (fp, dict_make_hom)):
        om, am = list(range(gpd.n_objects)), list(range(gpd.n_arrows))
        check(gpd, gpd, om, am)
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
                check(gpd, gpd, om, bad)
            assert str(exc.value) == "hom breaks {1} at arrow {0}".format(*first)


def test_make_groupoid_refuses_out_of_range_identity():
    g = as_dict_groupoid(point_groupoid(cyclic(2)))
    for bad in (-1, 2):
        match = f"identity arrow {bad} of object 0"
        with pytest.raises(GroupoidValidationError, match=match):
            make_groupoid(1, g.source, g.target, [bad], g.inverse, dict(g.compose))


def _composition_cases():
    """(name, group, action table, homs into or out of it) for the tests
    against the dict-composed record; a hom is (source key, target key,
    object map, arrow map), the key "self" naming the case's own groupoid
    and "base" its group's point."""
    grp = cyclic(5)
    yield "cyclic:5", grp, [[0] * 5], [("self", "self", [0], list(range(5)))]
    for spec in ("symmetric:3", "dihedral:4"):
        grp = parse_group_spec(spec)
        base = point_groupoid(grp)
        for k in (1, 2, 3):
            sect = k_sectors(base, k)
            homs = [("base", "self", sect.unit.object_map, sect.unit.arrow_map)]
            if k == 1:
                homs.append(("self", "self", range(grp.order), range(grp.order**2)))
            else:
                # the first loop: the last face, taken until one loop is left
                om, am = range(sect.groupoid.n_objects), range(sect.groupoid.n_arrows)
                for j in range(k, 1, -1):
                    last = face_hom(k_sectors(base, j), j)
                    om = [last.object_map[x] for x in om]
                    am = [last.arrow_map[a] for a in am]
                homs.append(("self", "one", om, am))
            yield f"{spec}:{k}", grp, sect.groupoid.act, homs
    # the swap of two points, and its map onto the point groupoid of C2
    yield "swap", cyclic(2), [[0, 1], [1, 0]], [("self", "base", [0, 0], [0, 1, 0, 1])]


@pytest.mark.parametrize("case", list(_composition_cases()), ids=lambda c: c[0])
def test_action_compose_reads_like_the_dict_it_replaces(case):
    """The record's conventions against the dict-composed groupoid built
    arrow by arrow: the endpoint tables, the composable pairs as the nerve
    and its positions enumerate and refuse them, and the composite
    x*|G| + gh of every pair, as delta merges it."""
    _, grp, act, _ = case
    gpd = action_groupoid(grp, len(act), act)
    oracle = dict_action_groupoid(grp, len(act), act)
    m, n = gpd.order, gpd.n_arrows
    assert (gpd.n_objects, n) == (oracle.n_objects, oracle.n_arrows)
    assert (gpd.source, gpd.target) == (oracle.source, oracle.target)
    assert oracle.identity == tuple(range(0, n, m))
    assert oracle.out_arrows == tuple(tuple(range(x, x + m)) for x in range(0, n, m))
    assert list(nerve(gpd, 2)) == list(oracle.compose)
    index = nerve_index(gpd, 2)
    assert [index.position(pair) for pair in oracle.compose] == list(range(index.size))
    for (a, b), c in oracle.compose.items():
        assert c == a - a % m + gpd.mult[a % m][b % m]
    rng = random.Random(n)
    pairs = [(a, b) for a in range(min(n, 40)) for b in range(min(n, 40))]
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(2000)]
    pairs += [(-1, 0), (0, -1), (n, 0), (0, n), (n - 1, n)]
    for pair in pairs:
        if pair in oracle.compose:
            index.position(pair)
        else:
            with pytest.raises(ValueError):
                index.position(pair)
    assert sum(pair not in oracle.compose for pair in pairs) > 0


@pytest.mark.parametrize("case", list(_composition_cases()), ids=lambda c: c[0])
def test_make_hom_composition_sweep_matches_the_dict_sweep(case):
    """Arrow maps planted with a wrong arrow that keeps its endpoints pass
    the source, target and identity checks; the point-by-point sweep of
    make_hom must refuse each at the same pair as the dict sweep."""
    name, grp, act, homs = case
    base_act = [[0] * grp.order]
    one_act = k_sectors(point_groupoid(grp), 1).groupoid.act
    tables = {"self": act, "base": base_act, "one": one_act}
    computed = {key: action_groupoid(grp, len(t), t) for key, t in tables.items()}
    stored = {key: dict_action_groupoid(grp, len(t), t) for key, t in tables.items()}
    rng = random.Random(name)
    planted = 0
    for src, tgt, om, am in homs:
        am = list(am)
        make_hom(computed[src], computed[tgt], om, am)
        dict_make_hom(stored[src], stored[tgt], om, am)
        s_gpd, t_gpd = stored[src], stored[tgt]
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
                dict_make_hom(s_gpd, t_gpd, om, bad)
            with pytest.raises(GroupoidValidationError) as got:
                make_hom(computed[src], computed[tgt], om, bad)
            assert str(got.value) == str(want.value)
            planted += 1
    assert planted > 0


def _same_verdict_as_the_dict_sweep(source, target, om, am):
    """make_hom between action groupoids given as (group, action table)
    pairs accepts or refuses om, am with the same text as the dict sweep
    between their dict-composed records. Returns that text, or None if the
    hom is accepted."""
    computed = [action_groupoid(grp, len(act), act) for grp, act in (source, target)]
    stored = [dict_action_groupoid(grp, len(act), act) for grp, act in (source, target)]
    try:
        dict_make_hom(*stored, om, am)
        want = None
    except GroupoidValidationError as e:
        want = str(e)
    if want is None:
        make_hom(*computed, om, am)
    else:
        with pytest.raises(GroupoidValidationError) as got:
            make_hom(*computed, om, am)
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
    two_act = k_sectors(point_groupoid(s3), 2).groupoid.act
    even = {s3.mult[h][h] for h in s3.elements()}
    sign = [0 if g in even else 1 for g in s3.elements()]
    om = [sign[s3.mult[a][b]] for a in s3.elements() for b in s3.elements()]
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
    one_act = k_sectors(point_groupoid(s3), 1).groupoid.act
    s3_point = (s3, [[0] * s3.order])
    for seed in range(6):
        rng = random.Random(seed)
        c = [rng.randrange(s3.order) for _ in one_act]
        am = [
            s3.mult[s3.mult[s3.inv[c[x]]][g]][c[y]]
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
        # an identity arrow sent to another loop is named as such, first
        x = seed % 6
        bad = am[:]
        bad[x * 6] = rng.randrange(1, 6)
        verdict = _same_verdict_as_the_dict_sweep((s3, one_act), s3_point, [0] * 6, bad)
        assert verdict == f"hom breaks identity at object {x}"
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
    # a composition dict of 24^4 entries took 32 MB, and stored identity,
    # inverse, out-arrow and loop tables 1.8 MB; (group, act) with its
    # source and target tables peaks at 0.8 MB
    assert peak < 1.25 * 2**20


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
        base = point_groupoid(parse_group_spec(spec))
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
        "transgression-chain-map:0:0,0,1": ["lhs: 1/2", "rhs: 1/2"],
    }
    for replay, sides in frozen_sides.items():
        # a replay exits 1 iff its two sides differ
        assert main(argv + ["--check-tuple", replay]) == int(sides[0][5:] != sides[1][5:])
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
