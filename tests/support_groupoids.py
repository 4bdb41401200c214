"""Groupoid constructions that only the tests use.

The library's groupoids are action groupoids, stored as (group, act) with
every composite read off the group table. The record here is the one the
library once used for every groupoid: arrow tables and a composition dict
with one entry per composable pair. dict_action_groupoid builds it for an
action arrow by arrow, and as_dict_groupoid adapts a library groupoid to
it. On that record live the oracles: make_groupoid, the generic validator;
dict_make_hom, the hom check that sweeps every composable pair; the
arrow-by-arrow sector tables of explicit_sectors; and the constructions
that assemble a composition dict arrow by arrow: fibered products, full
subgroupoids, and the strict matching part of two copies of the 2-sectors.
Criterion 11 and the groupoid tests check the sector groupoids against
them, and compare groupoids up to isomorphism through the classification
of finite groupoids (object counts and vertex groups per component).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from transfusion.groupoids import (
    DEFAULT_ARROW_CAP,
    FiniteGroupoid,
    GroupoidHom,
    GroupoidValidationError,
    SectorGroupoid,
    face_hom,
    k_sectors,
)
from transfusion.groups import FiniteGroup, conjugacy_classes, from_table, subgroup_generated

# full associativity sweeps are capped; beyond this a deterministic stride
# sample is checked instead
ASSOC_CHECK_BUDGET = 400_000


@dataclass(eq=False)
class DictGroupoid:
    """A finite groupoid as tables: compose maps each composable pair
    (a, b), "a then b", to its composite."""

    n_objects: int
    source: Tuple[int, ...]
    target: Tuple[int, ...]
    identity: Tuple[int, ...]
    inverse: Tuple[int, ...]
    compose: Dict[Tuple[int, int], int] = field(repr=False)
    out_arrows: Tuple[Tuple[int, ...], ...] = field(repr=False)
    loops: Tuple[Tuple[int, ...], ...] = field(repr=False)

    @property
    def n_arrows(self) -> int:
        return len(self.source)

    def is_identity_arrow(self, a: int) -> bool:
        return self.identity[self.source[a]] == a


AnyGroupoid = Union[FiniteGroupoid, DictGroupoid]


def dict_action_groupoid(
    group: FiniteGroup, n_points: int, act: Sequence[Sequence[int]]
) -> DictGroupoid:
    """The action groupoid with its composition stored as a dict, one entry
    per composable pair, built arrow by arrow, unvalidated: arrow
    x*|G| + g runs from x to act[x][g]."""
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
    return DictGroupoid(
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


def as_dict_groupoid(gpd: AnyGroupoid) -> DictGroupoid:
    """A library groupoid as the dict-composed record; a record as itself."""
    if isinstance(gpd, DictGroupoid):
        return gpd
    return dict_action_groupoid(gpd.group, gpd.n_objects, gpd.act)


def make_groupoid(
    n_objects: int,
    source: Sequence[int],
    target: Sequence[int],
    identity: Sequence[int],
    inverse: Sequence[int],
    compose: Dict[Tuple[int, int], int],
    arrow_cap: int = DEFAULT_ARROW_CAP,
) -> DictGroupoid:
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
    for x, e in enumerate(identity):
        if not 0 <= e < n:
            raise GroupoidValidationError(
                f"identity arrow {e} of object {x} out of range"
            )
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

    return DictGroupoid(
        n_objects=n_objects,
        source=source,
        target=target,
        identity=identity,
        inverse=inverse,
        compose=compose,
        out_arrows=tuple(tuple(o) for o in out),
        loops=tuple(tuple(l) for l in loops),
    )


def dict_make_hom(
    source: AnyGroupoid,
    target: AnyGroupoid,
    object_map: Sequence[int],
    arrow_map: Sequence[int],
) -> GroupoidHom:
    """The generic hom check on the dict-composed records of both ends:
    every table entry, then every composable pair in the order of the
    source's composition items. Its verdicts and texts are those of the
    library's make_hom, which checks composition a point at a time."""
    om, am = tuple(object_map), tuple(arrow_map)
    s, t = as_dict_groupoid(source), as_dict_groupoid(target)
    if len(om) != s.n_objects or len(am) != s.n_arrows:
        raise GroupoidValidationError("hom table lengths disagree with source")
    for x, y in enumerate(om):
        if not 0 <= y < t.n_objects:
            raise GroupoidValidationError(f"hom sends object {x} to {y}, out of range")
    for a, b in enumerate(am):
        if not 0 <= b < t.n_arrows:
            raise GroupoidValidationError(f"hom sends arrow {a} to {b}, out of range")
    for a, b in enumerate(am):
        if t.source[b] != om[s.source[a]]:
            raise GroupoidValidationError(f"hom breaks source at arrow {a}")
        if t.target[b] != om[s.target[a]]:
            raise GroupoidValidationError(f"hom breaks target at arrow {a}")
    for x, e in enumerate(s.identity):
        if am[e] != t.identity[om[x]]:
            raise GroupoidValidationError(f"hom breaks identity at object {x}")
    for (a, b), c in s.compose.items():
        if t.compose[(am[a], am[b])] != am[c]:
            raise GroupoidValidationError(f"hom breaks composition at ({a},{b})")
    return GroupoidHom(source=source, target=target, object_map=om, arrow_map=am)


def explicit_sectors(base: AnyGroupoid, k: int) -> Dict[str, object]:
    """The k-sector groupoid's tables assembled arrow by arrow from the
    base's composition dict, with no validation: a reference that builds no
    action table and never calls action_groupoid."""
    base = as_dict_groupoid(base)
    objects = []
    for x in range(base.n_objects):
        for tup in itertools.product(base.loops[x], repeat=k):
            objects.append((x, tup))
    object_number = {ob: i for i, ob in enumerate(objects)}
    arrows = [(i, v) for i, (x, _) in enumerate(objects) for v in base.out_arrows[x]]
    arrow_number = {ar: j for j, ar in enumerate(arrows)}

    def conj(a, v):
        return base.compose[(base.compose[(base.inverse[v], a)], v)]

    source, target, inverse = [], [], []
    for i, v in arrows:
        _, tup = objects[i]
        j = object_number[(base.target[v], tuple(conj(a, v) for a in tup))]
        source.append(i)
        target.append(j)
        inverse.append(arrow_number[(j, base.inverse[v])])
    identity = [arrow_number[(i, base.identity[x])] for i, (x, _) in enumerate(objects)]
    compose = {}
    for idx, (i, v) in enumerate(arrows):
        j = target[idx]
        for w in base.out_arrows[objects[j][0]]:
            compose[(idx, arrow_number[(j, w)])] = arrow_number[(i, base.compose[(v, w)])]
    out_arrows = [[] for _ in objects]
    loops = [[] for _ in objects]
    for a, (s, t) in enumerate(zip(source, target)):
        out_arrows[s].append(a)
        if s == t:
            loops[s].append(a)
    unit_om = [object_number[(x, (base.identity[x],) * k)] for x in range(base.n_objects)]
    unit_am = [arrow_number[(unit_om[base.source[v]], v)] for v in range(base.n_arrows)]
    return {
        "objects": tuple(objects),
        "arrows": tuple(arrows),
        "source": tuple(source),
        "target": tuple(target),
        "identity": tuple(identity),
        "inverse": tuple(inverse),
        "compose": list(compose.items()),
        "out_arrows": tuple(map(tuple, out_arrows)),
        "loops": tuple(map(tuple, loops)),
        "unit": (tuple(unit_om), tuple(unit_am)),
    }


# fibered products


@dataclass(eq=False)
class FiberedProduct:
    """Objects are triples (y, u, z) with u an arrow from f(y) to g(z);
    arrows are pairs of arrows of the two legs."""

    groupoid: DictGroupoid
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
    A, B, C = map(as_dict_groupoid, (f.source, g.source, f.target))

    by_image: List[List[int]] = [[] for _ in range(C.n_objects)]
    for z in range(B.n_objects):
        by_image[g.object_map[z]].append(z)

    objects: List[Tuple[int, int, int]] = []
    for y in range(A.n_objects):
        for u in C.out_arrows[f.object_map[y]]:
            for z in by_image[C.target[u]]:
                objects.append((y, u, z))
    object_number = {ob: i for i, ob in enumerate(objects)}

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
                target.append(object_number[(A.target[alpha], u2, B.target[beta])])
    arrow_number = {ar: j for j, ar in enumerate(arrows)}

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
        identity.append(arrow_number[(i, A.identity[y], B.identity[z])])
    inverse = []
    for j, (i, alpha, beta) in enumerate(arrows):
        inverse.append(arrow_number[(target[j], A.inverse[alpha], B.inverse[beta])])
    compose = {}
    for j, (i, alpha, beta) in enumerate(arrows):
        t = target[j]
        ty, _, tz = objects[t]
        right = [(beta2, B.compose[(beta, beta2)]) for beta2 in B.out_arrows[tz]]
        for alpha2 in A.out_arrows[ty]:
            ca = A.compose[(alpha, alpha2)]
            for beta2, cb in right:
                compose[(j, arrow_number[(t, alpha2, beta2)])] = arrow_number[(i, ca, cb)]

    gpd = make_groupoid(
        len(objects), source, target, identity, inverse, compose, arrow_cap=arrow_cap
    )
    proj_left = dict_make_hom(
        gpd, f.source, [y for (y, _, _) in objects], [a for (_, a, _) in arrows]
    )
    proj_right = dict_make_hom(
        gpd, g.source, [z for (_, _, z) in objects], [b for (_, _, b) in arrows]
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
    gpd: AnyGroupoid, keep_objects: Sequence[int]
) -> Tuple[DictGroupoid, Tuple[int, ...], Tuple[int, ...]]:
    """Restrict to a subset of objects and all arrows between them.

    Returns (subgroupoid, kept object ids, kept arrow ids) in the parent's
    numbering.
    """
    gpd = as_dict_groupoid(gpd)
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
) -> Tuple[DictGroupoid, Tuple[int, ...], Tuple[int, ...]]:
    """The full subgroupoid on objects whose middle arrow is an identity.

    Arrows surviving the restriction are exactly the pairs whose two legs
    map to the same arrow downstairs, so this is the strict matching part.
    """
    C = as_dict_groupoid(fp.f.target)
    keep = [
        i for i, (_, u, _) in enumerate(fp.objects) if C.is_identity_arrow(u)
    ]
    return full_subgroupoid(fp.groupoid, keep)


def sector_triple_product(
    base: FiniteGroupoid, arrow_cap: int = DEFAULT_ARROW_CAP
) -> Tuple[DictGroupoid, GroupoidHom]:
    """Strict matching part of 2-sectors paired over (product map, first
    loop), built directly, with the explicit isomorphism onto 3-sectors.

    An object is a pair of 2-sector objects ((a1,a2), (b1,b2)) with
    a1 a2 = b1; it corresponds to the loop triple (a1, a2, b2).
    """
    two = k_sectors(base, 2)
    three = k_sectors(base, 3)
    # the product of the two loops, and the first loop
    product, first = face_hom(two, 1), face_hom(two, 2)
    # 2-sector object i is the loop pair divmod(i, |G|), and arrow (i, v)
    # is i*|G| + v; the 3-sectors number their loop triples the same way
    order = base.n_arrows

    by_first: Dict[int, List[int]] = {}
    for j in range(two.groupoid.n_objects):
        by_first.setdefault(first.object_map[j], []).append(j)

    objects: List[Tuple[int, int]] = []
    for i in range(two.groupoid.n_objects):
        for j in by_first.get(product.object_map[i], ()):
            objects.append((i, j))
    object_number = {ob: n for n, ob in enumerate(objects)}

    two_g = as_dict_groupoid(two.groupoid)
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
        for v in range(base.n_arrows):
            alpha = i * order + v
            beta = j * order + v
            arrows.append((n, alpha, beta))
            source.append(n)
            target.append(
                object_number[(two_g.target[alpha], two_g.target[beta])]
            )
    arrow_number = {ar: m for m, ar in enumerate(arrows)}

    identity = []
    for n, (i, j) in enumerate(objects):
        identity.append(arrow_number[(n, two_g.identity[i], two_g.identity[j])])
    inverse = []
    for m, (n, alpha, beta) in enumerate(arrows):
        inverse.append(
            arrow_number[(target[m], two_g.inverse[alpha], two_g.inverse[beta])]
        )
    compose = {}
    for m, (n, alpha, beta) in enumerate(arrows):
        t = target[m]
        ti, tj = objects[t]
        for v in range(base.n_arrows):
            alpha2 = ti * order + v
            beta2 = tj * order + v
            compose[(m, arrow_number[(t, alpha2, beta2)])] = arrow_number[
                (n, two_g.compose[(alpha, alpha2)], two_g.compose[(beta, beta2)])
            ]
    gpd = make_groupoid(len(objects), source, target, identity, inverse, compose)

    # explicit isomorphism onto 3-sectors: ((a1,a2),(b1,b2)) -> (a1,a2,b2)
    om = [i * order + j % order for i, j in objects]
    am = [om[n] * order + alpha % order for n, alpha, _ in arrows]
    iso = dict_make_hom(gpd, three.groupoid, om, am)
    if sorted(om) != list(range(three.groupoid.n_objects)):
        raise GroupoidValidationError("matching part is not bijective on 3-sector objects")
    if sorted(am) != list(range(three.groupoid.n_arrows)):
        raise GroupoidValidationError("matching part is not bijective on 3-sector arrows")
    return gpd, iso


# isomorphism via the classification of finite groupoids: a connected
# groupoid is determined by its object count and vertex group


def connected_components(gpd: AnyGroupoid) -> List[List[int]]:
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


def vertex_group(gpd: AnyGroupoid, x: int) -> Tuple[FiniteGroup, Tuple[int, ...]]:
    """Loops at x as a standalone group, identity loop first."""
    gpd = as_dict_groupoid(gpd)
    members = [gpd.identity[x]] + [
        a for a in gpd.loops[x] if a != gpd.identity[x]
    ]
    pos = {a: i for i, a in enumerate(members)}
    mult = [[pos[gpd.compose[(a, b)]] for b in members] for a in members]
    return from_table(mult), tuple(members)


def groupoids_isomorphic(
    a: Union[AnyGroupoid, SectorGroupoid], b: Union[AnyGroupoid, SectorGroupoid]
) -> bool:
    if isinstance(a, SectorGroupoid):
        a = a.groupoid
    if isinstance(b, SectorGroupoid):
        b = b.groupoid
    a, b = as_dict_groupoid(a), as_dict_groupoid(b)
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


def groups_isomorphic(a: FiniteGroup, b: FiniteGroup) -> bool:
    if a.order != b.order:
        return False
    spec_a = sorted(a.element_order(g) for g in a.elements())
    spec_b = sorted(b.element_order(g) for g in b.elements())
    if spec_a != spec_b:
        return False
    if a.is_abelian() != b.is_abelian():
        return False
    if a.is_abelian():
        # abelian groups are classified by their order spectrum
        return True
    ca = sorted(len(c) for c in conjugacy_classes(a).classes)
    cb = sorted(len(c) for c in conjugacy_classes(b).classes)
    if ca != cb:
        return False

    gens: List[int] = []
    span = subgroup_generated(a, gens)
    while len(span) < a.order:
        g = next(x for x in a.elements() if x not in span)
        gens.append(g)
        span = subgroup_generated(a, gens)

    orders_b: Dict[int, List[int]] = {}
    for h in b.elements():
        orders_b.setdefault(b.element_order(h), []).append(h)

    def close(partial: Dict[int, int]) -> Optional[Dict[int, int]]:
        mapping = dict(partial)
        frontier = list(mapping)
        while frontier:
            x = frontier.pop()
            for y in list(mapping):
                for p, q in ((x, y), (y, x)):
                    src = a.mult[p][q]
                    dst = b.mult[mapping[p]][mapping[q]]
                    if src in mapping:
                        if mapping[src] != dst:
                            return None
                    else:
                        mapping[src] = dst
                        frontier.append(src)
        return mapping

    def backtrack(i: int, partial: Dict[int, int]) -> bool:
        if len(partial) == a.order:
            return len(set(partial.values())) == a.order
        if i == len(gens):
            closed = close(partial)
            return (
                closed is not None
                and len(closed) == a.order
                and len(set(closed.values())) == a.order
            )
        g = gens[i]
        for h in orders_b.get(a.element_order(g), []):
            trial = dict(partial)
            trial[g] = h
            closed = close(trial)
            if closed is None:
                continue
            if len(set(closed.values())) != len(closed):
                continue
            if backtrack(i + 1, closed):
                return True
        return False

    return backtrack(0, {0: 0})
