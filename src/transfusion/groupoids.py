"""Finite groupoids as dense arrow tables with validated composition.

Conventions used throughout:
  - compose(a, b) means "a then b" and is defined iff target(a) == source(b)
  - loops at an object are arrows with source == target; they form the
    vertex group of the object
  - the k-sector groupoid of a one-object groupoid with vertex group G is
    the action groupoid of G acting on G^k by simultaneous conjugation;
    action_groupoid builds it from the group table, and the action axiom,
    swept once, stands in for the groupoid laws
  - make_groupoid is the generic validator, for tables assembled arrow by
    arrow (fibered products, subgroupoids)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterator, List, Sequence, Tuple, Union

from .groups import FiniteGroup, from_table, groups_isomorphic

DEFAULT_ARROW_CAP = 10**6
# full associativity sweeps are capped; beyond this a deterministic stride
# sample is checked instead
ASSOC_CHECK_BUDGET = 400_000


class GroupoidValidationError(ValueError):
    pass


@dataclass(eq=False)
class FiniteGroupoid:
    n_objects: int
    source: Tuple[int, ...]
    target: Tuple[int, ...]
    identity: Tuple[int, ...]
    inverse: Tuple[int, ...]
    compose: Dict[Tuple[int, int], int] = field(repr=False, default_factory=dict)
    out_arrows: Tuple[Tuple[int, ...], ...] = field(repr=False, default=())
    loops: Tuple[Tuple[int, ...], ...] = field(repr=False, default=())
    cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_arrows(self) -> int:
        return len(self.source)

    def is_identity_arrow(self, a: int) -> bool:
        return self.identity[self.source[a]] == a


@dataclass(eq=False)
class GroupoidHom:
    source: FiniteGroupoid
    target: FiniteGroupoid
    object_map: Tuple[int, ...]
    arrow_map: Tuple[int, ...]


def make_groupoid(
    n_objects: int,
    source: Sequence[int],
    target: Sequence[int],
    identity: Sequence[int],
    inverse: Sequence[int],
    compose: Dict[Tuple[int, int], int],
    arrow_cap: int = DEFAULT_ARROW_CAP,
) -> FiniteGroupoid:
    source = tuple(source)
    target = tuple(target)
    identity = tuple(identity)
    inverse = tuple(inverse)
    n = len(source)
    if n > arrow_cap:
        raise GroupoidValidationError(f"arrow count {n} exceeds cap {arrow_cap}")
    if len(target) != n or len(inverse) != n:
        raise GroupoidValidationError("arrow table lengths disagree")
    if len(identity) != n_objects:
        raise GroupoidValidationError("identity table length is not the object count")
    for a in range(n):
        if not (0 <= source[a] < n_objects and 0 <= target[a] < n_objects):
            raise GroupoidValidationError(f"arrow {a} has endpoint out of range")
        if not 0 <= inverse[a] < n:
            raise GroupoidValidationError(f"inverse of arrow {a} out of range")

    out: List[List[int]] = [[] for _ in range(n_objects)]
    loops: List[List[int]] = [[] for _ in range(n_objects)]
    for a in range(n):
        out[source[a]].append(a)
        if source[a] == target[a]:
            loops[source[a]].append(a)

    for x in range(n_objects):
        e = identity[x]
        if source[e] != x or target[e] != x:
            raise GroupoidValidationError(f"identity arrow of object {x} is not a loop there")
    for a in range(n):
        if compose.get((identity[source[a]], a)) != a:
            raise GroupoidValidationError(f"left unit law fails at arrow {a}")
        if compose.get((a, identity[target[a]])) != a:
            raise GroupoidValidationError(f"right unit law fails at arrow {a}")
        ia = inverse[a]
        if source[ia] != target[a] or target[ia] != source[a]:
            raise GroupoidValidationError(f"inverse of arrow {a} has wrong endpoints")
        if compose.get((a, ia)) != identity[source[a]]:
            raise GroupoidValidationError(f"arrow {a} times its inverse is not an identity")
        if compose.get((ia, a)) != identity[target[a]]:
            raise GroupoidValidationError(f"inverse of {a} times {a} is not an identity")

    for (a, b), c in compose.items():
        if target[a] != source[b]:
            raise GroupoidValidationError(f"compose defined on non-composable pair ({a},{b})")
        if source[c] != source[a] or target[c] != target[b]:
            raise GroupoidValidationError(f"compose({a},{b}) has wrong endpoints")
    for a in range(n):
        for b in out[target[a]]:
            if (a, b) not in compose:
                raise GroupoidValidationError(f"compose missing composable pair ({a},{b})")

    total = sum(len(out[target[b]]) for (_, b) in compose)
    stride = total // ASSOC_CHECK_BUDGET + 1 if total > ASSOC_CHECK_BUDGET else 1
    counter = 0
    for (a, b), ab in compose.items():
        for c in out[target[b]]:
            counter += 1
            if counter % stride:
                continue
            if compose[(ab, c)] != compose[(a, compose[(b, c)])]:
                raise GroupoidValidationError(
                    f"associativity fails at arrows ({a},{b},{c})"
                )

    return FiniteGroupoid(
        n_objects=n_objects,
        source=source,
        target=target,
        identity=identity,
        inverse=inverse,
        compose=compose,
        out_arrows=tuple(tuple(o) for o in out),
        loops=tuple(tuple(l) for l in loops),
    )


def make_hom(
    source: FiniteGroupoid,
    target: FiniteGroupoid,
    object_map: Sequence[int],
    arrow_map: Sequence[int],
) -> GroupoidHom:
    om = tuple(object_map)
    am = tuple(arrow_map)
    if len(om) != source.n_objects or len(am) != source.n_arrows:
        raise GroupoidValidationError("hom table lengths disagree with source")
    for a in range(source.n_arrows):
        if target.source[am[a]] != om[source.source[a]]:
            raise GroupoidValidationError(f"hom breaks source at arrow {a}")
        if target.target[am[a]] != om[source.target[a]]:
            raise GroupoidValidationError(f"hom breaks target at arrow {a}")
    for x in range(source.n_objects):
        if am[source.identity[x]] != target.identity[om[x]]:
            raise GroupoidValidationError(f"hom breaks identity at object {x}")
    for (a, b), c in source.compose.items():
        if target.compose[(am[a], am[b])] != am[c]:
            raise GroupoidValidationError(f"hom breaks composition at ({a},{b})")
    return GroupoidHom(source=source, target=target, object_map=om, arrow_map=am)


# constructions


def action_groupoid(
    group: FiniteGroup,
    n_points: int,
    act: Sequence[Sequence[int]],
    arrow_cap: int = DEFAULT_ARROW_CAP,
) -> FiniteGroupoid:
    """Right action: arrow (x, g) runs from x to x.g; index is x*|G| + g.

    The group table is validated already, so the action axiom, swept here
    over every point and pair, implies every law make_groupoid would check:
    composition is the group product, closed, unital and associative.
    """
    if len(act) != n_points:
        raise GroupoidValidationError("action table has wrong number of rows")
    order = group.order
    n_arrows = n_points * order
    if n_arrows > arrow_cap:
        raise GroupoidValidationError(f"arrow count {n_arrows} exceeds cap {arrow_cap}")
    for x, row in enumerate(act):
        if len(row) != order:
            raise GroupoidValidationError(f"action row {x} has wrong length")
        if row[0] != x:
            raise GroupoidValidationError(f"identity moves point {x}")
        for y in row:
            if not 0 <= y < n_points:
                raise GroupoidValidationError("action lands outside the point set")

    elements = group.elements()
    # every table below refers to these int objects rather than new equal
    # ones: the compose dict of a 2-sector groupoid has |G|^4 entries
    out_arrows = tuple(
        tuple(range(x * order, (x + 1) * order)) for x in range(n_points)
    )
    source: List[int] = []
    target: List[int] = []
    inverse: List[int] = []
    compose: Dict[Tuple[int, int], int] = {}
    for x, row in enumerate(act):
        xout = out_arrows[x]
        for g in elements:
            y = row[g]
            yrow = act[y]
            mg = group.mult[g]
            if list(yrow) != [row[m] for m in mg]:
                h = next(h for h in elements if yrow[h] != row[mg[h]])
                raise GroupoidValidationError(
                    f"action axiom fails at point {x}, elements ({g},{h})"
                )
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


@lru_cache(maxsize=None)
def point_groupoid(group: FiniteGroup) -> FiniteGroupoid:
    """One object, arrows the group elements."""
    return action_groupoid(group, 1, [[0] * group.order])


@dataclass(eq=False)
class SectorGroupoid:
    """k-tuples of loops at a common object, conjugated simultaneously.

    objects[i] = (base object x, k-tuple of loop arrows at x)
    arrows[j] = (sector object index, base arrow out of x); the arrow lands
    on the tuple conjugated by the base arrow.
    """

    base: FiniteGroupoid
    k: int
    groupoid: FiniteGroupoid
    objects: Tuple[Tuple[int, Tuple[int, ...]], ...]
    obj_index: Dict[Tuple[int, Tuple[int, ...]], int] = field(repr=False)
    arrows: Tuple[Tuple[int, int], ...] = field(repr=False)
    arrow_index: Dict[Tuple[int, int], int] = field(repr=False)
    unit: GroupoidHom = field(repr=False)


def k_sectors(
    base: FiniteGroupoid,
    k: int,
    arrow_cap: int = DEFAULT_ARROW_CAP,
) -> SectorGroupoid:
    """The action groupoid of the base's vertex group G on G^k by conjugation.

    The base has one object. Object i is the i-th k-tuple in lexicographic
    order and arrow (i, v) has index i*|G| + v, with elements numbered as in
    vertex_group: the base's own arrow numbering when its identity is arrow 0.
    """
    if isinstance(base, SectorGroupoid):
        raise TypeError(
            "pass a FiniteGroupoid; for sectors of a sector groupoid use .groupoid"
        )
    if k < 1:
        raise ValueError("sector count k must be at least 1")
    if base.n_objects != 1:
        raise ValueError(f"k-sectors need a one-object base, not {base.n_objects} objects")
    key = ("sectors", k)
    if key in base.cache:
        return base.cache[key]

    n = base.n_arrows
    if n ** (k + 1) > arrow_cap:
        raise GroupoidValidationError(
            f"sector groupoid would have {n ** (k + 1)} arrows, over cap {arrow_cap}"
        )
    group, members = vertex_group(base, 0)
    # conj[g][v] = v^-1 g v; point i*|G| + g of G^(j+1) extends point i of G^j by g
    conj = [[group.conjugate(g, v) for v in range(n)] for g in range(n)]
    act = conj
    for _ in range(k - 1):
        act = [[p * n + c for p, c in zip(row, crow)] for row in act for crow in conj]
    gpd = action_groupoid(group, len(act), act, arrow_cap=arrow_cap)

    objects = tuple(
        (0, tuple(members[g] for g in tup))
        for tup in itertools.product(range(n), repeat=k)
    )
    arrows = tuple((i, v) for i in range(len(objects)) for v in members)
    arrow_index = {ar: j for j, ar in enumerate(arrows)}
    # the tuple of identity loops is point 0
    unit = make_hom(base, gpd, [0], [arrow_index[(0, v)] for v in range(n)])
    sect = SectorGroupoid(
        base=base,
        k=k,
        groupoid=gpd,
        objects=objects,
        obj_index={ob: i for i, ob in enumerate(objects)},
        arrows=arrows,
        arrow_index=arrow_index,
        unit=unit,
    )
    base.cache[key] = sect
    return sect


def inertia(base: FiniteGroupoid) -> SectorGroupoid:
    return k_sectors(base, 1)


def evaluation_hom(sectors: SectorGroupoid, which: str) -> GroupoidHom:
    """Evaluation maps out of a k-sector groupoid.

    "e<digits>" multiplies the loops named by the digit subset (strictly
    increasing, 1-based) and lands in the 1-sector groupoid. Each map is
    validated once and cached on the base, beside the sector groupoids.
    """
    base = sectors.base
    key = ("evaluation", sectors.k, which)
    if key in base.cache:
        return base.cache[key]
    if not which.startswith("e") or not which[1:].isdigit():
        raise ValueError(f"unknown evaluation name {which!r}")
    digits = [int(c) for c in which[1:]]
    if digits != sorted(set(digits)):
        raise ValueError(f"evaluation subset {which!r} must be strictly increasing")
    if digits[0] < 1 or digits[-1] > sectors.k:
        raise ValueError(f"evaluation {which!r} out of range for {sectors.k}-sectors")
    one = k_sectors(base, 1)
    om = []
    for x, tup in sectors.objects:
        prod = base.identity[x]
        for d in digits:
            prod = base.compose[(prod, tup[d - 1])]
        om.append(one.obj_index[(x, (prod,))])
    am = []
    for i, v in sectors.arrows:
        am.append(one.arrow_index[(om[i], v)])
    hom = make_hom(sectors.groupoid, one.groupoid, om, am)
    base.cache[key] = hom
    return hom


# nerve enumeration


def nerve(gpd: FiniteGroupoid, r: int) -> Iterator[Tuple[int, ...]]:
    """All composable r-tuples of arrows, lexicographic by arrow index."""
    if r < 1:
        raise ValueError("nerve degree must be at least 1")
    out_arrows, target = gpd.out_arrows, gpd.target
    # one generator per degree, each extending the tuples of the one below
    level: Iterator[Tuple[int, ...]] = ((a,) for a in range(gpd.n_arrows))
    for _ in range(r - 1):
        level = (p + (b,) for p in level for b in out_arrows[target[p[-1]]])
    yield from level


def nerve_size(gpd: FiniteGroupoid, r: int) -> int:
    if r < 1:
        raise ValueError("nerve degree must be at least 1")
    counts = [1] * gpd.n_arrows
    for _ in range(r - 1):
        nxt = [0] * gpd.n_arrows
        for a in range(gpd.n_arrows):
            nxt[a] = sum(counts[b] for b in gpd.out_arrows[gpd.target[a]])
        counts = nxt
    return sum(counts)


# fibered products


@dataclass(eq=False)
class FiberedProduct:
    """Objects are triples (y, u, z) with u an arrow from f(y) to g(z);
    arrows are pairs of arrows of the two legs."""

    groupoid: FiniteGroupoid
    f: GroupoidHom
    g: GroupoidHom
    objects: Tuple[Tuple[int, int, int], ...]
    arrows: Tuple[Tuple[int, int, int], ...]  # (source object index, alpha, beta)
    proj_left: GroupoidHom
    proj_right: GroupoidHom


def fibered_product(
    f: GroupoidHom, g: GroupoidHom, arrow_cap: int = DEFAULT_ARROW_CAP
) -> FiberedProduct:
    if f.target is not g.target:
        raise GroupoidValidationError("fibered product needs a common target groupoid")
    A, B, C = f.source, g.source, f.target

    by_image: List[List[int]] = [[] for _ in range(C.n_objects)]
    for z in range(B.n_objects):
        by_image[g.object_map[z]].append(z)

    objects: List[Tuple[int, int, int]] = []
    for y in range(A.n_objects):
        for u in C.out_arrows[f.object_map[y]]:
            for z in by_image[C.target[u]]:
                objects.append((y, u, z))
    obj_index = {ob: i for i, ob in enumerate(objects)}

    n_arrows = sum(
        len(A.out_arrows[y]) * len(B.out_arrows[z]) for (y, _, z) in objects
    )
    if n_arrows > arrow_cap:
        raise GroupoidValidationError(
            f"fibered product would have {n_arrows} arrows, over cap {arrow_cap}"
        )

    arrows: List[Tuple[int, int, int]] = []
    source: List[int] = []
    target: List[int] = []
    for i, (y, u, z) in enumerate(objects):
        for alpha in A.out_arrows[y]:
            fa_inv = C.inverse[f.arrow_map[alpha]]
            for beta in B.out_arrows[z]:
                arrows.append((i, alpha, beta))
                source.append(i)
                u2 = C.compose[(C.compose[(fa_inv, u)], g.arrow_map[beta])]
                target.append(obj_index[(A.target[alpha], u2, B.target[beta])])
    arrow_index = {ar: j for j, ar in enumerate(arrows)}

    compose_entries = sum(
        len(A.out_arrows[objects[t][0]]) * len(B.out_arrows[objects[t][2]])
        for t in target
    )
    if compose_entries > arrow_cap:
        raise GroupoidValidationError(
            f"fibered product compose table would have {compose_entries} entries, "
            f"over cap {arrow_cap}"
        )

    identity = []
    for i, (y, u, z) in enumerate(objects):
        identity.append(arrow_index[(i, A.identity[y], B.identity[z])])
    inverse = []
    for j, (i, alpha, beta) in enumerate(arrows):
        inverse.append(arrow_index[(target[j], A.inverse[alpha], B.inverse[beta])])
    compose = {}
    for j, (i, alpha, beta) in enumerate(arrows):
        t = target[j]
        ty, _, tz = objects[t]
        for alpha2 in A.out_arrows[ty]:
            ca = A.compose[(alpha, alpha2)]
            for beta2 in B.out_arrows[tz]:
                compose[(j, arrow_index[(t, alpha2, beta2)])] = arrow_index[
                    (i, ca, B.compose[(beta, beta2)])
                ]

    gpd = make_groupoid(
        len(objects), source, target, identity, inverse, compose, arrow_cap=arrow_cap
    )
    proj_left = make_hom(
        gpd, A, [y for (y, _, _) in objects], [a for (_, a, _) in arrows]
    )
    proj_right = make_hom(
        gpd, B, [z for (_, _, z) in objects], [b for (_, _, b) in arrows]
    )
    return FiberedProduct(
        groupoid=gpd,
        f=f,
        g=g,
        objects=tuple(objects),
        arrows=tuple(arrows),
        proj_left=proj_left,
        proj_right=proj_right,
    )


def full_subgroupoid(
    gpd: FiniteGroupoid, keep_objects: Sequence[int]
) -> Tuple[FiniteGroupoid, Tuple[int, ...], Tuple[int, ...]]:
    """Restrict to a subset of objects and all arrows between them.

    Returns (subgroupoid, kept object ids, kept arrow ids) in the parent's
    numbering.
    """
    keep = sorted(set(keep_objects))
    obj_new = {x: i for i, x in enumerate(keep)}
    arrows = [
        a
        for a in range(gpd.n_arrows)
        if gpd.source[a] in obj_new and gpd.target[a] in obj_new
    ]
    arr_new = {a: j for j, a in enumerate(arrows)}
    source = [obj_new[gpd.source[a]] for a in arrows]
    target = [obj_new[gpd.target[a]] for a in arrows]
    identity = [arr_new[gpd.identity[x]] for x in keep]
    inverse = [arr_new[gpd.inverse[a]] for a in arrows]
    compose = {}
    for a in arrows:
        for b in gpd.out_arrows[gpd.target[a]]:
            if b in arr_new:
                compose[(arr_new[a], arr_new[b])] = arr_new[gpd.compose[(a, b)]]
    sub = make_groupoid(len(keep), source, target, identity, inverse, compose)
    return sub, tuple(keep), tuple(arrows)


def identity_middle_component(
    fp: FiberedProduct,
) -> Tuple[FiniteGroupoid, Tuple[int, ...], Tuple[int, ...]]:
    """The full subgroupoid on objects whose middle arrow is an identity.

    Arrows surviving the restriction are exactly the pairs whose two legs
    map to the same arrow downstairs, so this is the strict matching part.
    """
    C = fp.f.target
    keep = [
        i for i, (_, u, _) in enumerate(fp.objects) if C.is_identity_arrow(u)
    ]
    return full_subgroupoid(fp.groupoid, keep)


def sector_triple_product(
    base: FiniteGroupoid, arrow_cap: int = DEFAULT_ARROW_CAP
) -> Tuple[FiniteGroupoid, GroupoidHom]:
    """Strict matching part of 2-sectors paired over (product map, first
    loop), built directly, with the explicit isomorphism onto 3-sectors.

    An object is a pair of 2-sector objects ((a1,a2), (b1,b2)) with
    a1 a2 = b1; it corresponds to the loop triple (a1, a2, b2).
    """
    two = k_sectors(base, 2)
    three = k_sectors(base, 3)
    e12 = evaluation_hom(two, "e12")
    e1 = evaluation_hom(two, "e1")

    by_first: Dict[int, List[int]] = {}
    for j, _ in enumerate(two.objects):
        by_first.setdefault(e1.object_map[j], []).append(j)

    objects: List[Tuple[int, int]] = []
    for i, _ in enumerate(two.objects):
        for j in by_first.get(e12.object_map[i], ()):
            objects.append((i, j))
    obj_index = {ob: n for n, ob in enumerate(objects)}

    two_g = two.groupoid
    n_arrows = sum(
        len(two_g.out_arrows[i]) for (i, _) in objects
    )  # one mate per left arrow
    if n_arrows > arrow_cap:
        raise GroupoidValidationError(
            f"matching part would have {n_arrows} arrows, over cap {arrow_cap}"
        )

    # arrows: pairs (alpha, beta) of 2-sector arrows with the same underlying
    # base arrow and matching endpoints; beta is determined by alpha's base arrow
    arrows: List[Tuple[int, int, int]] = []
    source: List[int] = []
    target: List[int] = []
    for n, (i, j) in enumerate(objects):
        for v in base.out_arrows[two.objects[i][0]]:
            alpha = two.arrow_index[(i, v)]
            beta = two.arrow_index[(j, v)]
            arrows.append((n, alpha, beta))
            source.append(n)
            target.append(
                obj_index[(two_g.target[alpha], two_g.target[beta])]
            )
    arrow_index = {ar: m for m, ar in enumerate(arrows)}

    identity = []
    for n, (i, j) in enumerate(objects):
        identity.append(arrow_index[(n, two_g.identity[i], two_g.identity[j])])
    inverse = []
    for m, (n, alpha, beta) in enumerate(arrows):
        inverse.append(
            arrow_index[(target[m], two_g.inverse[alpha], two_g.inverse[beta])]
        )
    compose = {}
    for m, (n, alpha, beta) in enumerate(arrows):
        t = target[m]
        ti, tj = objects[t]
        for v in base.out_arrows[two.objects[ti][0]]:
            alpha2 = two.arrow_index[(ti, v)]
            beta2 = two.arrow_index[(tj, v)]
            compose[(m, arrow_index[(t, alpha2, beta2)])] = arrow_index[
                (n, two_g.compose[(alpha, alpha2)], two_g.compose[(beta, beta2)])
            ]
    gpd = make_groupoid(len(objects), source, target, identity, inverse, compose)

    # explicit isomorphism onto 3-sectors: ((a1,a2),(b1,b2)) -> (a1,a2,b2)
    om = []
    for i, j in objects:
        x, (a1, a2) = two.objects[i]
        _, (_, b2) = two.objects[j]
        om.append(three.obj_index[(x, (a1, a2, b2))])
    am = []
    for n, alpha, beta in arrows:
        v = two.arrows[alpha][1]
        am.append(three.arrow_index[(om[n], v)])
    iso = make_hom(gpd, three.groupoid, om, am)
    if sorted(om) != list(range(three.groupoid.n_objects)):
        raise GroupoidValidationError("matching part is not bijective on 3-sector objects")
    if sorted(am) != list(range(three.groupoid.n_arrows)):
        raise GroupoidValidationError("matching part is not bijective on 3-sector arrows")
    return gpd, iso


# isomorphism via the classification of finite groupoids: a connected
# groupoid is determined by its object count and vertex group


def connected_components(gpd: FiniteGroupoid) -> List[List[int]]:
    parent = list(range(gpd.n_objects))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in range(gpd.n_arrows):
        rx, ry = find(gpd.source[a]), find(gpd.target[a])
        if rx != ry:
            parent[ry] = rx
    buckets: Dict[int, List[int]] = {}
    for x in range(gpd.n_objects):
        buckets.setdefault(find(x), []).append(x)
    return sorted(buckets.values())


def vertex_group(gpd: FiniteGroupoid, x: int) -> Tuple[FiniteGroup, Tuple[int, ...]]:
    """Loops at x as a standalone group, identity loop first."""
    members = [gpd.identity[x]] + [
        a for a in gpd.loops[x] if a != gpd.identity[x]
    ]
    pos = {a: i for i, a in enumerate(members)}
    mult = [[pos[gpd.compose[(a, b)]] for b in members] for a in members]
    return from_table(mult, name=f"vertex at {x}"), tuple(members)


def groupoids_isomorphic(
    a: Union[FiniteGroupoid, SectorGroupoid], b: Union[FiniteGroupoid, SectorGroupoid]
) -> bool:
    if isinstance(a, SectorGroupoid):
        a = a.groupoid
    if isinstance(b, SectorGroupoid):
        b = b.groupoid
    if a.n_objects != b.n_objects or a.n_arrows != b.n_arrows:
        return False
    comps_a = connected_components(a)
    comps_b = connected_components(b)
    if sorted(len(c) for c in comps_a) != sorted(len(c) for c in comps_b):
        return False
    sigs_a = [(len(c), vertex_group(a, c[0])[0]) for c in comps_a]
    sigs_b = [(len(c), vertex_group(b, c[0])[0]) for c in comps_b]
    unused = list(range(len(sigs_b)))
    for size_a, grp_a in sigs_a:
        match = None
        for idx in unused:
            size_b, grp_b = sigs_b[idx]
            if size_a == size_b and groups_isomorphic(grp_a, grp_b):
                match = idx
                break
        if match is None:
            return False
        unused.remove(match)
    return True
