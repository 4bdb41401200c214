import random
import tracemalloc
from fractions import Fraction

import pytest

from transfusion import cochains
from transfusion.cochains import (
    Cochain,
    Cocycle,
    CocycleError,
    InconsistencyError,
    bockstein_lift,
    coboundary_solve,
    cocycle,
    commutator_pairing,
    cup_one_cochains,
    delta,
    dual_cochains,
    group_cochain,
    inverse_transgression,
    is_cocycle,
    parse_poly,
    poly_to_cocycle,
    product_homotopy,
    product_identity_sides,
    pullback,
    random_cochain,
    read_cochain,
    shuffle_transgression,
    sq1,
    sq1_preimage,
    unit_pullback_sides,
    write_cochain,
    zero_cochain,
)
from transfusion.groups import cyclic, dihedral, elementary_abelian, symmetric
from transfusion.groupoids import (
    action_groupoid,
    evaluation_hom,
    fibered_product,
    full_subgroupoid,
    inertia,
    k_sectors,
    make_groupoid,
    make_hom,
    point_groupoid,
    nerve,
    nerve_index,
)

F = Fraction
H = F(1, 2)


def test_delta_on_order_two_group():
    z2 = cyclic(2)
    phi = group_cochain(z2, 1, {(1,): F(1, 4)})
    d = delta(phi)
    # d(g1,g2) = phi(g2) - phi(g1 g2) + phi(g1); only (sigma, sigma) survives
    assert {key: d.value(key) for key in d.table} == {(1, 1): H}


def test_values_compare_and_combine_across_moduli():
    z2 = cyclic(2)
    # 1/2 stored as 2 mod 4 by delta, and as 1 mod 2 by the constructor
    d = delta(group_cochain(z2, 1, {(1,): F(1, 4)}))
    half = group_cochain(z2, 2, {(1, 1): H})
    assert (d.modulus, half.modulus) == (4, 2)
    assert d == half and half == d
    assert (d - half).is_zero() and (half - d).is_zero()
    assert d != group_cochain(z2, 2, {(1, 1): F(1, 4)})

    gpd = point_groupoid(symmetric(3))
    for t in range(5):
        x = random_cochain(gpd, 2, random.Random(f"mod-x{t}"), denominator=6)
        w = random_cochain(gpd, 2, random.Random(f"mod-w{t}"), denominator=4)
        y = (x + w) - w
        assert (x.modulus, y.modulus) == (6, 12)
        assert x == y and y == x
        assert (x - y).is_zero() and (y - x).is_zero()
        assert all(x.value(key) == y.value(key) for key in nerve(gpd, 2))
        assert x + w == w + y
        assert -(x - w) == w - y


def test_delta_degree_zero():
    z2 = cyclic(2)
    swap = action_groupoid(z2, 2, [[0, 1], [1, 0]])
    phi = Cochain(swap, 0, {(0,): F(1, 3)})
    d = delta(phi)
    # arrow x * 2 + g; the two crossing arrows pick up -1/3 and +1/3
    assert d.value((1,)) == F(2, 3)
    assert d.value((3,)) == F(1, 3)
    assert d.value((0,)) == 0 and d.value((2,)) == 0


def _generic_delta(c):
    """The generic face loop: (modulus, table) of the coboundary of c."""
    g, k, n, get = c.groupoid, c.degree, c.modulus, c.table.get
    out = {}
    if k == 0:
        for a in range(g.n_arrows):
            v = (get((g.target[a],), 0) - get((g.source[a],), 0)) % n
            if v:
                out[(a,)] = v
        return n, out
    for tup in nerve(g, k + 1):
        v = get(tup[1:], 0)
        sign = -1
        for i in range(k):
            v += sign * get(tup[:i] + (g.compose[tup[i], tup[i + 1]],) + tup[i + 2 :], 0)
            sign = -sign
        v = (v + sign * get(tup[:-1], 0)) % n
        if v:
            out[tup] = v
    return n, out


def _sparse_cochain(gpd, degree, rng, denominator):
    keys = [(x,) for x in range(gpd.n_objects)] if degree == 0 else nerve(gpd, degree)
    table = {}
    for key in keys:
        if rng.random() < 0.1:
            table[key] = F(rng.randrange(1, denominator), denominator)
    return Cochain(gpd, degree, table)


def _delta_spots():
    """Groupoids of every construction, and the S3 2-sectors among them."""
    s3_base = point_groupoid(symmetric(3))
    s3_two = k_sectors(s3_base, 2).groupoid
    c2_two = k_sectors(point_groupoid(cyclic(2)), 2)
    spots = [
        point_groupoid(cyclic(5)),
        s3_base,
        point_groupoid(elementary_abelian(2, 3)),
        inertia(s3_base).groupoid,
        s3_two,
        action_groupoid(cyclic(2), 2, [[0, 1], [1, 0]]),
        # built by make_groupoid, so delta runs its generic face loop
        fibered_product(evaluation_hom(c2_two, "e12"), evaluation_hom(c2_two, "e1")).groupoid,
        full_subgroupoid(s3_two, range(0, s3_two.n_objects, 3))[0],
    ]
    return spots, s3_two


def test_delta_matches_generic_face_loop():
    rng = random.Random("unrolled-delta")
    spots, s3_two = _delta_spots()

    def check(c):
        d = delta(c)
        n, table = _generic_delta(c)
        assert d.degree == c.degree + 1 and d.groupoid is c.groupoid
        assert d.modulus == n
        assert d.table == table
        assert list(d.table) == list(table)

    for gpd in spots:
        for k in range(4):
            for den in (2, 4, 6, 12):
                check(random_cochain(gpd, k, rng, den))
                check(_sparse_cochain(gpd, k, rng, den))
        # degree 4: one cochain per groupoid, and none on the 2-sector
        # groupoid, whose 5-tuples number 279,936
        if gpd is not s3_two:
            check(random_cochain(gpd, 4, rng, 12))
    # degree 5, where the face tables have four merged digits
    c3 = point_groupoid(cyclic(3))
    check(random_cochain(c3, 5, rng, 12))
    check(_sparse_cochain(c3, 5, rng, 12))


def _nerve_transgression(phi, sectors):
    """The nerve loop of inverse_transgression: (modulus, table), k >= 1."""
    k, lam, n, get = phi.degree - 1, sectors.groupoid, phi.modulus, phi.table.get
    lead_sign = 1 if k % 2 == 0 else -1
    out = {}
    for tup in nerve(lam, k):
        a0 = sectors.objects[sectors.arrow(tup[0])[0]][1][0]
        us = tuple(sectors.arrow(t)[1] for t in tup)
        dragged = tuple(sectors.objects[lam.target[t]][1][0] for t in tup)
        total = lead_sign * get((a0,) + us, 0)
        s = lead_sign
        for i in range(1, k + 1):
            s = -s
            total += s * get(us[:i] + (dragged[i - 1],) + us[i:], 0)
        total %= n
        if total:
            out[tup] = total
    return n, out


def _nerve_product_homotopy(phi, two):
    """The nerve loop of product_homotopy: (modulus, table), k >= 1."""
    k, gpd2, n, get = phi.degree - 2, two.groupoid, phi.modulus, phi.table.get
    parity = -1 if k % 2 else 1
    out = {}
    for tup in nerve(gpd2, k):
        us = tuple(two.arrow(t)[1] for t in tup)
        a_at = [two.objects[two.arrow(tup[0])[0]][1][0]]
        b_at = [two.objects[two.arrow(tup[0])[0]][1][1]]
        for t in tup:
            _, (aj, bj) = two.objects[gpd2.target[t]]
            a_at.append(aj)
            b_at.append(bj)
        total = 0
        for i in range(k + 1):
            for j in range(i, k + 1):
                key = us[:i] + (a_at[i],) + us[i:j] + (b_at[j],) + us[j:]
                if (i + j) % 2:
                    total -= get(key, 0)
                else:
                    total += get(key, 0)
        total = parity * total % n
        if total:
            out[tup] = total
    return n, out


def _nerve_pullback(h, c):
    """The nerve loop of pullback: (modulus, table), degree >= 1."""
    amap, get = h.arrow_map, c.table.get
    out = {}
    for tup in nerve(h.source, c.degree):
        v = get(tuple(amap[a] for a in tup))
        if v:
            out[tup] = v
    return c.modulus, out


def _relabeled_point_groupoid(group, shift):
    """The group's one-object groupoid built by make_groupoid, element g at
    arrow (g + shift) mod |G|, so the identity is arrow shift."""
    n = group.order
    label = [(g + shift) % n for g in range(n)]
    compose = {
        (label[g], label[h]): label[group.mul(g, h)] for g in range(n) for h in range(n)
    }
    inverse = [0] * n
    for g in range(n):
        inverse[label[g]] = label[group.inverse(g)]
    return make_groupoid(1, [0] * n, [0] * n, [shift], inverse, compose)


def _check_sweep(got, want, gpd, degree):
    n, table = want
    assert got.groupoid is gpd and got.degree == degree
    assert got.modulus == n
    assert got.table == table
    assert list(got.table) == list(table)


def test_positions_enumerate_the_nerve_in_order():
    spots, s3_two = _delta_spots()
    spots.append(_relabeled_point_groupoid(symmetric(3), 2))
    for gpd in spots:
        # degree 4 on the S3 2-sectors has 279,936 tuples
        for k in range(4 if gpd is s3_two else 5):
            index = nerve_index(gpd, k)
            keys = [(x,) for x in range(gpd.n_objects)] if k == 0 else nerve(gpd, k)
            p = -1
            for p, key in enumerate(keys):
                assert index.position(key) == p
                assert index.key(p) == key
            assert index.size == p + 1


def test_constructor_refuses_keys_outside_the_nerve():
    # arrow x*2 + g runs from point x to x.g; arrow 1 runs from 0 to 1
    swap = action_groupoid(cyclic(2), 2, [[0, 1], [1, 0]])
    assert Cochain(swap, 2, {(1, 3): H}).value((1, 3)) == H
    refused = [
        (2, (1, 1)),  # arrow 1 ends at point 1, arrow 1 starts at 0
        (2, (3, 2)),
        (2, (1, 4)),  # out of range
        (1, (-1,)),
        (0, (2,)),
        (2, (1,)),  # wrong length
        (2, (1, 3, 2)),
        (0, (0, 1)),
        (1, ()),
    ]
    for degree, key in refused:
        with pytest.raises(ValueError):
            Cochain(swap, degree, {key: H})
        with pytest.raises(ValueError):
            zero_cochain(swap, degree).value(key)


def test_sector_sweeps_match_nerve_loops():
    rng = random.Random("unrolled-sweeps")
    # each base with the highest degree k swept against the nerve loops
    bases = [
        (point_groupoid(cyclic(5)), 4),
        (point_groupoid(symmetric(3)), 4),
        (point_groupoid(elementary_abelian(2, 3)), 3),
        (point_groupoid(dihedral(4)), 3),
        (_relabeled_point_groupoid(symmetric(3), 2), 3),
    ]
    for base, top in bases:
        lam, two = inertia(base), k_sectors(base, 2)
        homs = [evaluation_hom(two, w) for w in ("e1", "e2", "e12")]
        homs += [lam.unit, two.unit]
        for den in (2, 4, 6, 12):
            for make in (random_cochain, _sparse_cochain):
                for k in (1, 2):
                    phi = make(base, k + 1, rng, den)
                    _check_sweep(
                        inverse_transgression(phi, lam),
                        _nerve_transgression(phi, lam),
                        lam.groupoid,
                        k,
                    )
                    phi = make(base, k + 2, rng, den)
                    _check_sweep(
                        product_homotopy(phi, two),
                        _nerve_product_homotopy(phi, two),
                        two.groupoid,
                        k,
                    )
                    c = make(lam.groupoid, k, rng, den)
                    for h in homs:
                        if h.target is lam.groupoid:
                            _check_sweep(pullback(h, c), _nerve_pullback(h, c), h.source, k)
                    c = make(two.groupoid, k, rng, den)
                    _check_sweep(
                        pullback(two.unit, c), _nerve_pullback(two.unit, c), base, k
                    )
        # the same sweep in every degree, a dense and a sparse cochain each
        for k in range(3, top + 1):
            for make in (random_cochain, _sparse_cochain):
                phi = make(base, k + 1, rng, 12)
                _check_sweep(
                    inverse_transgression(phi, lam), _nerve_transgression(phi, lam), lam.groupoid, k
                )
                phi = make(base, k + 2, rng, 12)
                _check_sweep(
                    product_homotopy(phi, two), _nerve_product_homotopy(phi, two), two.groupoid, k
                )
    base = point_groupoid(symmetric(3))
    two = k_sectors(base, 2)
    e12 = evaluation_hom(two, "e12")
    c = random_cochain(inertia(base).groupoid, 3, rng, 12)
    _check_sweep(pullback(e12, c), _nerve_pullback(e12, c), two.groupoid, 3)


def test_pullback_along_a_subgroupoid_inclusion_matches_the_nerve_loop():
    # the arrows kept at each object of a full subgroupoid sit at different
    # places among the parent's arrows, unlike any sector hom's
    rng = random.Random("inclusion")
    two = k_sectors(point_groupoid(symmetric(3)), 2).groupoid
    sub, objects, arrows = full_subgroupoid(two, range(0, two.n_objects, 3))
    inclusion = make_hom(sub, two, objects, arrows)
    for k in range(4):
        c = random_cochain(two, k, rng, 12)
        want = (c.modulus, {(x,): c.table[(y,)] for x, y in enumerate(objects) if (y,) in c.table})
        _check_sweep(
            pullback(inclusion, c), want if k == 0 else _nerve_pullback(inclusion, c), sub, k
        )


def test_cochain_sweeps_walk_the_nerve_only_in_pullback_above_degree_two(monkeypatch):
    rng = random.Random("nerve-guard")
    base = point_groupoid(symmetric(3))
    lam, two = inertia(base), k_sectors(base, 2)
    e12 = evaluation_hom(two, "e12")
    # inputs first: output degree k
    inputs = [
        (
            random_cochain(base, k + 1, rng),
            random_cochain(base, k + 2, rng),
            random_cochain(lam.groupoid, k, rng),
            [random_cochain(g, k, rng) for g in (base, lam.groupoid, two.groupoid)],
        )
        for k in (0, 1, 2, 3)
    ]
    calls = []
    real = cochains.nerve

    def counted(gpd, r):
        calls.append(r)
        return real(gpd, r)

    monkeypatch.setattr(cochains, "nerve", counted)
    for phi, psi, c, cs in inputs:
        inverse_transgression(phi, lam)
        product_homotopy(psi, two)
        for x in cs:
            delta(x)
    assert calls == []
    for _, _, c, _ in inputs[:3]:
        pullback(e12, c)
        pullback(lam.unit, c)
    assert calls == []
    pullback(e12, inputs[3][2])
    assert calls == [3]


def test_loop_sweep_caches_tables_the_size_of_the_action_table():
    grp = symmetric(4)
    # equal to point_groupoid(grp), but fresh, so nothing is cached on it
    base = action_groupoid(grp, 1, [[0] * grp.order])
    two = k_sectors(base, 2)
    rng = random.Random("sweep-memory")
    phis = [random_cochain(base, k + 2, rng) for k in (1, 2)]
    tracemalloc.start()
    try:
        product_homotopy(phis[0], two)
        kept, peak = tracemalloc.get_traced_memory()
        # k = 2: 331,776 outputs, and no table sized by them
        product_homotopy(phis[1], two)
        kept_after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the act table holds 13,824 entries (576 points, 24 each), and so
    # does the table of both dragged loops the sweep keeps, beside 576 for
    # one loop: 0.58 MiB measured, 0.85 MiB at the peak of the k = 1 call,
    # which writes 13,824 outputs
    assert kept < 0.75 * 2**20
    assert peak < 1.25 * 2**20
    # a table sized by the k = 2 outputs would keep 2.5 MiB; the 50 KiB
    # measured are freed tuples that Python keeps for reuse
    assert kept_after - kept < 0.25 * 2**20


def test_delta_squared_is_zero():
    rng = random.Random("ddzero")
    spots = [
        (point_groupoid(cyclic(4)), [0, 1, 2, 3]),
        (inertia(point_groupoid(elementary_abelian(2, 2))).groupoid, [0, 1, 2]),
        (point_groupoid(symmetric(3)), [0, 1, 2, 3]),
    ]
    for gpd, degrees in spots:
        for k in degrees:
            c = random_cochain(gpd, k, rng)
            assert delta(delta(c)).is_zero()


def test_cocycle_detection():
    g22 = elementary_abelian(2, 2)
    fx, fy = dual_cochains(g22, 2)
    assert is_cocycle(cup_one_cochains(g22, [fx, fy]))
    rng = random.Random("noncocycle")
    c = random_cochain(point_groupoid(symmetric(3)), 2, rng)
    assert not is_cocycle(c)


def test_transgression_degree_and_sector_guards():
    z4 = cyclic(4)
    gpd = point_groupoid(z4)
    lam = inertia(gpd)
    two = k_sectors(gpd, 2)
    with pytest.raises(ValueError):
        inverse_transgression(Cochain(gpd, 0, {}), lam)
    with pytest.raises(ValueError):
        inverse_transgression(random_cochain(gpd, 2, random.Random(0)), two)
    with pytest.raises(ValueError):
        product_homotopy(random_cochain(gpd, 2, random.Random(0)), lam)
    with pytest.raises(ValueError):
        product_homotopy(random_cochain(gpd, 1, random.Random(0)), two)


def test_transgression_degree_one_input():
    z4 = cyclic(4)
    gpd = point_groupoid(z4)
    lam = inertia(gpd)
    phi = random_cochain(gpd, 1, random.Random("deg1"))
    th = inverse_transgression(phi, lam)
    assert th.degree == 0
    for i, (_, (a,)) in enumerate(lam.objects):
        assert th.value((i,)) == phi.value((a,))


def test_transgression_abelian_two_term_form():
    g22 = elementary_abelian(2, 2)
    gpd = point_groupoid(g22)
    lam = inertia(gpd)
    phi = random_cochain(gpd, 2, random.Random("ab2"))
    th = inverse_transgression(phi, lam)
    for t in nerve(lam.groupoid, 1):
        obj, u = lam.arrow(t[0])
        a = lam.objects[obj][1][0]
        assert th.value(t) == (phi.value((u, a)) - phi.value((a, u))) % 1


def test_transgression_matches_hand_expansion_degree_three():
    s3 = symmetric(3)
    gpd = point_groupoid(s3)
    lam = inertia(gpd)
    phi = random_cochain(gpd, 3, random.Random("hand3"))
    th = inverse_transgression(phi, lam)
    for tup in nerve(lam.groupoid, 2):
        obj, u1 = lam.arrow(tup[0])
        a = lam.objects[obj][1][0]
        u2 = lam.arrow(tup[1])[1]
        a1 = s3.conjugate(a, u1)
        a2 = s3.conjugate(a, s3.mul(u1, u2))
        want = (
            phi.value((a, u1, u2))
            - phi.value((u1, a1, u2))
            + phi.value((u1, u2, a2))
        ) % 1
        assert th.value(tup) == want


def test_transgression_is_chain_map():
    rng = random.Random("chainmap")
    for grp in (cyclic(4), symmetric(3)):
        gpd = point_groupoid(grp)
        lam = inertia(gpd)
        for deg in (1, 2, 3):
            phi = random_cochain(gpd, deg, rng)
            lhs = delta(inverse_transgression(phi, lam))
            rhs = inverse_transgression(delta(phi), lam)
            assert lhs == rhs


def test_product_homotopy_small_expansions():
    for grp in (elementary_abelian(2, 2), symmetric(3)):
        gpd = point_groupoid(grp)
        two = k_sectors(gpd, 2)
        phi2 = random_cochain(gpd, 2, random.Random("mu0"))
        m0 = product_homotopy(phi2, two)
        assert m0.degree == 0
        for i, (_, (a, b)) in enumerate(two.objects):
            assert m0.value((i,)) == phi2.value((a, b))
        phi3 = random_cochain(gpd, 3, random.Random("mu1"))
        m1 = product_homotopy(phi3, two)
        for t in nerve(two.groupoid, 1):
            obj, u = two.arrow(t[0])
            a, b = two.objects[obj][1]
            a1 = grp.conjugate(a, u)
            b1 = grp.conjugate(b, u)
            # insertion sum at k=1, times the odd-k global sign
            want = -(
                phi3.value((a, b, u))
                - phi3.value((a, u, b1))
                + phi3.value((u, a1, b1))
            ) % 1
            assert m1.value(t) == want


def test_product_identity_for_transgression():
    # coboundary of the homotopy plus homotopy of the coboundary equals the
    # three evaluation pullbacks of the transgression
    for grp, seed in ((elementary_abelian(2, 2), "pid-a"), (symmetric(3), "pid-b")):
        gpd = point_groupoid(grp)
        lam = inertia(gpd)
        two = k_sectors(gpd, 2)
        phi = random_cochain(gpd, 3, random.Random(seed))
        th = inverse_transgression(phi, lam)
        mu = product_homotopy(phi, two)
        mu_d = product_homotopy(delta(phi), two)
        lhs, rhs = product_identity_sides(th, mu, two, mu_d=mu_d)
        assert lhs == rhs
        assert lhs == delta(mu) + mu_d
        # the right side, read pointwise through the evaluation maps
        e1, e2, e12 = (evaluation_hom(two, w).arrow_map for w in ("e1", "e2", "e12"))
        for s1, s2 in nerve(two.groupoid, 2):
            want = (
                th.value((e1[s1], e1[s2]))
                + th.value((e2[s1], e2[s2]))
                - th.value((e12[s1], e12[s2]))
            ) % 1
            assert rhs.value((s1, s2)) == want


def test_unit_pullback_identity_for_cocycles():
    # for a 3-cocycle, the transgression pulled back along the unit section
    # is exactly the coboundary of the pulled-back homotopy
    g22 = elementary_abelian(2, 2)
    s3 = symmetric(3)
    cocycles = [
        (g22, bockstein_lift(parse_poly("x4", 2), g22)),
        (g22, poly_to_cocycle(parse_poly("x2y|y3"), g22)),
        (s3, delta(random_cochain(point_groupoid(s3), 2, random.Random("c44")))),
    ]
    for grp, phi in cocycles:
        assert is_cocycle(phi)
        gpd = point_groupoid(grp)
        lam = inertia(gpd)
        two = k_sectors(gpd, 2)
        th = inverse_transgression(phi, lam)
        mu = product_homotopy(phi, two)
        lhs, rhs = unit_pullback_sides(th, mu, lam, two)
        assert lhs == rhs
        assert rhs == delta(pullback(two.unit, mu))
        # the pullback along the unit section reads off values at the
        # identity loop
        unit_obj = lam.obj_index((0, (0,)))
        for u in grp.elements():
            for v in grp.elements():
                a1 = lam.arrow_index(unit_obj, u)
                next_obj = lam.groupoid.target[a1]
                a2 = lam.arrow_index(next_obj, v)
                assert lhs.value((u, v)) == th.value((a1, a2))


def test_shuffle_matches_loop_transgression_on_centralizer_words():
    s3 = symmetric(3)
    gpd = point_groupoid(s3)
    lam = inertia(gpd)
    for deg, seed in ((2, "sh2"), (3, "sh3")):
        phi = random_cochain(gpd, deg, random.Random(seed))
        th = inverse_transgression(phi, lam)
        k = deg - 1
        for g in s3.elements():
            shuffled, zgrp, members = shuffle_transgression(s3, phi, g)
            if k == 1:
                words = [(t,) for t in range(zgrp.order)]
            else:
                words = [
                    (t1, t2)
                    for t1 in range(zgrp.order)
                    for t2 in range(zgrp.order)
                ]
            for word in words:
                obj = lam.obj_index((0, (g,)))
                sector_word = []
                for t in word:
                    arrow = lam.arrow_index(obj, members[t])
                    sector_word.append(arrow)
                    obj = lam.groupoid.target[arrow]
                assert shuffled.value(word) == th.value(tuple(sector_word))


def test_shuffle_frozen_values_on_rank_three_cube():
    grp = elementary_abelian(2, 3)
    phi = poly_to_cocycle(parse_poly("xyz"), grp)
    planes = {
        0: lambda u, v: ((u >> 1) & 1) * ((v >> 2) & 1),  # yz
        1: lambda u, v: ((u >> 0) & 1) * ((v >> 2) & 1),  # xz
        2: lambda u, v: ((u >> 0) & 1) * ((v >> 1) & 1),  # xy
    }
    results = {}
    for g in grp.elements():
        th, zgrp, members = shuffle_transgression(grp, phi, g)
        assert zgrp.order == 8 and members == tuple(range(8))
        table = {}
        for u in grp.elements():
            for v in grp.elements():
                bits = sum(((g >> i) & 1) * planes[i](u, v) for i in range(3))
                if bits % 2:
                    table[(u, v)] = H
        assert th == group_cochain(grp, 2, table)
        results[g] = th
    assert results[0].is_zero()
    # additive in the twisting element, on the nose for this cocycle
    for g in grp.elements():
        for h in grp.elements():
            gh = grp.mul(g, h)
            assert (results[g] + results[h] - results[gh]).is_zero()


def test_coboundary_solve_roundtrip_and_refinement():
    s3 = symmetric(3)
    gpd = point_groupoid(s3)
    b = random_cochain(gpd, 1, random.Random("witness"))
    c = delta(b)
    w = coboundary_solve(c)
    assert w is not None and delta(w) == c

    z2 = cyclic(2)
    f = dual_cochains(z2, 1)[0]
    tau = cup_one_cochains(z2, [f, f])
    w = coboundary_solve(tau)
    # the witness needs denominator 4 even though the input lives in (1/2)Z
    assert w is not None and delta(w) == tau
    assert w.value((1,)).denominator == 4


def test_coboundary_solve_refuses_and_detects():
    g22 = elementary_abelian(2, 2)
    fx, fy = dual_cochains(g22, 2)
    schur = cup_one_cochains(g22, [fx, fy])
    assert coboundary_solve(schur) is None

    grp = elementary_abelian(2, 3)
    phi = poly_to_cocycle(parse_poly("xyz"), grp)
    th, _, _ = shuffle_transgression(grp, phi, 1)
    assert coboundary_solve(th) is None
    th0, _, _ = shuffle_transgression(grp, phi, 0)
    assert th0.is_zero() and coboundary_solve(th0) is not None

    s3 = symmetric(3)
    bad = random_cochain(point_groupoid(s3), 2, random.Random("bad"))
    # a non-cocycle is a caller's inconsistency, not bad input
    with pytest.raises(InconsistencyError, match="requires a cocycle"):
        coboundary_solve(bad)
    with pytest.raises(ValueError):
        coboundary_solve(Cochain(point_groupoid(s3), 0, {(0,): H}))
    # and so is arithmetic across groupoids or degrees
    other = random_cochain(point_groupoid(cyclic(6)), 2, random.Random("bad"))
    for wrong in (other, random_cochain(point_groupoid(s3), 3, random.Random("bad"))):
        for op in (bad.__add__, bad.__sub__):
            with pytest.raises(InconsistencyError, match="cochain mismatch"):
                op(wrong)
    assert not issubclass(InconsistencyError, ValueError)


def test_cup_validation():
    z4 = cyclic(4)
    good = [F(0), H, F(0), H]
    assert is_cocycle(cup_one_cochains(z4, [good, good]))
    with pytest.raises(ValueError):
        cup_one_cochains(z4, [[F(0), H, F(0), F(0)]])
    with pytest.raises(ValueError):
        cup_one_cochains(z4, [[F(0), F(1, 3), F(2, 3), F(0)]])
    with pytest.raises(ValueError):
        cup_one_cochains(z4, [])


def test_squaring_derivation():
    assert sq1(parse_poly("xyz")) == parse_poly("x2yz|xy2z|xyz2")
    assert sq1(parse_poly("x2", 1)).is_zero()
    assert sq1(parse_poly("xy2")) == parse_poly("x2y2")
    p = parse_poly("x3|xy2")
    assert sq1(p) == sq1(parse_poly("x3", 2)) + sq1(parse_poly("xy2"))


def test_squaring_preimages():
    for spec in ("x4", "y4", "x2y2", "x4|y4|x2y2"):
        p = parse_poly(spec, 2)
        q = sq1_preimage(p)
        assert q is not None and sq1(q) == p
    assert sq1_preimage(parse_poly("xy")) is None
    assert sq1_preimage(parse_poly("x3y")) is None


def test_poly_parsing():
    p = parse_poly("x2yz|xy2z|xyz2")
    assert p.n == 3 and len(p.terms) == 3 and (2, 1, 1) in p.terms
    assert parse_poly("x|x", 1).is_zero()
    assert parse_poly("xyz").terms == {(1, 1, 1)}
    # monomial order, letter order and repeated letters do not matter
    assert parse_poly("xyz2|x2yz|xy2z") == p
    assert parse_poly("zyxx|yzyx|zxzy") == p
    with pytest.raises(ValueError):
        parse_poly("q2")
    with pytest.raises(ValueError):
        parse_poly("x||y")
    with pytest.raises(ValueError):
        parse_poly("xyz", 2)
    with pytest.raises(ValueError):
        parse_poly("x0y")
    with pytest.raises(ValueError):
        parse_poly("")


def test_poly_realization():
    g8 = elementary_abelian(2, 3)
    c = poly_to_cocycle(parse_poly("xyz"), g8)
    assert c.degree == 3 and is_cocycle(c)
    assert c.value((1, 2, 4)) == H
    assert c.value((2, 1, 4)) == 0
    g4 = elementary_abelian(2, 2)
    c2 = poly_to_cocycle(parse_poly("x2y"), g4)
    assert c2.value((1, 1, 2)) == H and is_cocycle(c2)
    with pytest.raises(ValueError):
        poly_to_cocycle(parse_poly("x|xy", 2), g4)
    with pytest.raises(ValueError):
        poly_to_cocycle(parse_poly("xyz"), g4)


def test_bockstein_lift():
    g4 = elementary_abelian(2, 2)
    direct = bockstein_lift(parse_poly("x2y", 2), g4)
    assert direct == poly_to_cocycle(parse_poly("x2y", 2), g4)
    lifted = bockstein_lift(parse_poly("x4", 2), g4)
    assert lifted == poly_to_cocycle(parse_poly("x3", 2), g4)
    assert is_cocycle(bockstein_lift(parse_poly("x4|y4|x2y2", 2), g4))
    with pytest.raises(ValueError):
        bockstein_lift(parse_poly("x3y", 2), g4)
    with pytest.raises(ValueError):
        bockstein_lift(parse_poly("xy", 2), g4)


def test_commutator_pairing():
    g4 = elementary_abelian(2, 2)
    fx, fy = dual_cochains(g4, 2)
    tau = cup_one_cochains(g4, [fx, fy])
    beta = commutator_pairing(g4, tau)
    assert beta[(1, 2)] == H and beta[(2, 1)] == H
    assert all(beta[(g, g)] == 0 for g in g4.elements())
    shift = delta(random_cochain(point_groupoid(g4), 1, random.Random("pairing")))
    assert commutator_pairing(g4, tau + shift) == beta
    with pytest.raises(ValueError):
        commutator_pairing(symmetric(3), random_cochain(point_groupoid(symmetric(3)), 2, random.Random(1)))
    with pytest.raises(ValueError):
        commutator_pairing(g4, Cochain(point_groupoid(g4), 2, {(1, 2): F(1, 3)}))


def test_file_roundtrip():
    lam = inertia(point_groupoid(cyclic(4))).groupoid
    c = random_cochain(lam, 2, random.Random("file"), denominator=6)
    lines = write_cochain(c)
    assert lines[0] == "degree 2"
    assert read_cochain(lines, lam) == c
    z = zero_cochain(lam, 0)
    assert read_cochain(write_cochain(z), lam) == z


def test_file_roundtrip_seeded():
    rng = random.Random("file-seeded")
    spots = [
        point_groupoid(cyclic(4)),
        point_groupoid(symmetric(3)),
        inertia(point_groupoid(elementary_abelian(2, 2))).groupoid,
    ]
    for gpd in spots:
        for degree in (0, 1, 2, 3):
            for denominator in (2, 6, 12, 35):
                c = random_cochain(gpd, degree, rng, denominator=denominator)
                back = read_cochain(write_cochain(c), gpd)
                assert back == c
                assert all(back.value(k) == c.value(k) for k in c.table)


def test_file_rejections():
    z2 = cyclic(2)
    swap = action_groupoid(z2, 2, [[0, 1], [1, 0]])
    ok = ["degree 2", "1 3 1/2"]
    assert read_cochain(ok, swap).value((1, 3)) == H
    with pytest.raises(ValueError):
        read_cochain(["1 3 1/2"], swap)
    with pytest.raises(ValueError):
        read_cochain(["degree 2", "1 1 1/2"], swap)  # not composable
    with pytest.raises(ValueError):
        read_cochain(["degree 2", "1 9 1/2"], swap)
    with pytest.raises(ValueError):
        read_cochain(["degree 2", "1 3 0.5"], swap)
    with pytest.raises(ValueError):
        read_cochain(["degree 2", "1 3 1/2", "1 3 1/2"], swap)
    with pytest.raises(ValueError):
        read_cochain(["degree 1", "1 3 1/2"], swap)


def _first_failing_triple(group, values):
    """Lexicographic scan of the 2-cocycle identity on a G x G table."""
    n = group.order
    for g in range(n):
        for h in range(n):
            gh = group.mult[g][h]
            for k in range(n):
                total = (
                    values[h][k] - values[gh][k] + values[g][group.mult[h][k]] - values[g][h]
                )
                if total % 1:
                    return (g, h, k)
    return None


def test_cocycle_names_the_first_failing_triple():
    # frozen witnesses of the former hand-written table check
    planted = [
        (elementary_abelian(2, 2), (1, 2), F(1, 3), (1, 1, 2)),
        (symmetric(3), (4, 5), H, (1, 4, 5)),
        (cyclic(4), (0, 0), F(1, 4), (0, 0, 1)),
    ]
    for grp, (g, h), v, want in planted:
        c = group_cochain(grp, 2, {(g, h): v})
        with pytest.raises(CocycleError) as exc:
            cocycle(c)
        assert exc.value.witness == want
        assert str(exc.value) == f"cocycle identity fails at ({','.join(map(str, want))})"
    # one planted defect on top of a nontrivial cocycle, seeded
    rng = random.Random("planted")
    g8 = elementary_abelian(2, 3)
    fx, fy, _ = dual_cochains(g8, 3)
    base = cup_one_cochains(g8, [fx, fy])
    for _ in range(20):
        key = (rng.randrange(8), rng.randrange(8))
        bad = base + group_cochain(g8, 2, {key: F(rng.randrange(1, 6), 6)})
        values = [[bad.value((a, b)) for b in range(8)] for a in range(8)]
        with pytest.raises(CocycleError) as exc:
            cocycle(bad)
        assert exc.value.witness == _first_failing_triple(g8, values)


def _first_failing_quadruple(group, c):
    """Lexicographic scan of the 3-cocycle identity on a group cochain."""
    n, m, val = group.order, group.mult, c.value
    for t0 in range(n):
        for t1 in range(n):
            for t2 in range(n):
                for t3 in range(n):
                    total = (
                        val((t1, t2, t3))
                        - val((m[t0][t1], t2, t3))
                        + val((t0, m[t1][t2], t3))
                        - val((t0, t1, m[t2][t3]))
                        + val((t0, t1, t2))
                    )
                    if total % 1:
                        return (t0, t1, t2, t3)
    return None


def test_cocycle_names_the_first_failing_quadruple():
    rng = random.Random("planted-3")
    g8 = elementary_abelian(2, 3)
    s3 = symmetric(3)
    bases = [
        (g8, poly_to_cocycle(parse_poly("xyz"), g8)),
        (s3, delta(random_cochain(point_groupoid(s3), 2, rng))),
    ]
    for grp, base in bases:
        assert is_cocycle(base)
        n = grp.order
        for _ in range(20):
            key = (rng.randrange(n), rng.randrange(n), rng.randrange(n))
            bad = base + group_cochain(grp, 3, {key: F(rng.randrange(1, 6), 6)})
            want = _first_failing_quadruple(grp, bad)
            assert want is not None
            with pytest.raises(CocycleError) as exc:
                cocycle(bad)
            assert exc.value.witness == want


def test_cocycle_type_carries_one_sweep(monkeypatch):
    s3 = symmetric(3)
    c = delta(random_cochain(point_groupoid(s3), 1, random.Random("one-sweep")))
    closed = cocycle(c)
    assert isinstance(closed, Cocycle) and closed == c
    assert cocycle(closed) is closed
    assert not isinstance(closed + closed, Cocycle)
    with pytest.raises(TypeError):
        Cocycle(point_groupoid(s3), 2, {})

    sweeps = []
    real_delta = cochains.delta

    def counting_delta(x):
        sweeps.append(x.degree)
        return real_delta(x)

    monkeypatch.setattr(cochains, "delta", counting_delta)
    # a Cocycle skips the closedness sweep; the witness check stays
    assert coboundary_solve(closed) is not None
    assert sweeps == [1]
    sweeps.clear()
    assert coboundary_solve(c) is not None
    assert sweeps == [2, 1]
    sweeps.clear()
    g4 = elementary_abelian(2, 2)
    fx, fy = dual_cochains(g4, 2)
    tau = cup_one_cochains(g4, [fx, fy])
    assert commutator_pairing(g4, cocycle(tau)) == commutator_pairing(g4, tau)
    assert sweeps == [2, 2]


def test_trivial_group_edge():
    one = cyclic(1)
    gpd = point_groupoid(one)
    lam = inertia(gpd)
    phi = random_cochain(gpd, 3, random.Random("one"))
    th = inverse_transgression(phi, lam)
    assert th.is_zero() or th.degree == 2
    assert delta(th) == inverse_transgression(delta(phi), lam)
