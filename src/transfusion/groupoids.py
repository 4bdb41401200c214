"""Action groupoids of finite groups on points: the only groupoids the
library builds.

Conventions used throughout:
  - a FiniteGroupoid is the action groupoid of a group G acting on the
    right on points 0..n-1, stored as (group, act) with act[x][g] = x.g.
    Arrow x*|G| + g runs from x to x.g; arrow x*|G| is the identity of x,
    and the arrows out of x are range(x*|G|, (x+1)*|G|). Only source and
    target are tabulated, once, on first use
  - arrow x*|G| + g then arrow (x.g)*|G| + h composes to x*|G| + gh:
    callers read composites off the group table. action_groupoid sweeps
    the action axiom once, and it stands in for the groupoid laws
  - the point groupoid of G is the action on one point, so its arrows are
    the elements of G and its identity is arrow 0
  - the k-sector groupoid of the point groupoid of G is the action
    groupoid of G acting on G^k by simultaneous conjugation; its faces
    drop the first or the last loop or multiply two neighbours
  - make_hom checks composition a point at a time: with f_x(g) the element
    of the image of arrow x*|G| + g, a hom preserves it iff
    f_x(gh) = f_x(g) f_(x.g)(h). A hom that maps every point's arrows by
    the same f (the sector faces and unit maps) does iff f is a group
    homomorphism, which is checked at point 0 alone
  - a SectorGroupoid stores no objects: object i is the k-tuple of the
    base-|G| digits of i, and arrow i*|G| + v conjugates it by v
  - nerve_index numbers the composable k-tuples in nerve order by
    arithmetic; cochains store one value per position
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Iterator, Optional, Sequence, Tuple

from .groups import FiniteGroup

DEFAULT_ARROW_CAP = 10**6


class GroupoidValidationError(ValueError):
    pass


@dataclass(eq=False)
class FiniteGroupoid:
    """The action groupoid of group on the points of act; action_groupoid
    builds it and validates act."""

    group: FiniteGroup
    act: Tuple[Tuple[int, ...], ...] = field(repr=False)
    cache: dict = field(default_factory=dict, repr=False)

    @property
    def order(self) -> int:
        return self.group.order

    @property
    def mult(self) -> Tuple[Tuple[int, ...], ...]:
        return self.group.mult

    @property
    def n_objects(self) -> int:
        return len(self.act)

    @property
    def n_arrows(self) -> int:
        return len(self.act) * self.group.order

    @cached_property
    def source(self) -> Tuple[int, ...]:
        order = self.group.order
        points = range(len(self.act))
        return tuple(itertools.chain.from_iterable(itertools.repeat(x, order) for x in points))

    @cached_property
    def target(self) -> Tuple[int, ...]:
        return tuple(itertools.chain.from_iterable(self.act))


@dataclass(eq=False)
class GroupoidHom:
    source: FiniteGroupoid
    target: FiniteGroupoid
    object_map: Tuple[int, ...]
    arrow_map: Tuple[int, ...]


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
    # each sweep is first run whole, as one comparison of tables; only a
    # table that fails is walked entry by entry, to name the first culprit
    n_objects, n_arrows = target.n_objects, target.n_arrows
    if om and not (0 <= min(om) and max(om) < n_objects):
        for x, y in enumerate(om):
            if not 0 <= y < n_objects:
                raise GroupoidValidationError(f"hom sends object {x} to {y}, out of range")
    if am and not (0 <= min(am) and max(am) < n_arrows):
        for a, b in enumerate(am):
            if not 0 <= b < n_arrows:
                raise GroupoidValidationError(f"hom sends arrow {a} to {b}, out of range")
    # f[x][g] is the element of the image of arrow x*|G| + g; the arrow
    # keeps its source iff it lies in the block of om[x], and its target
    # iff that element moves om[x] to om[x.g]. A point's arrows are checked
    # together (an itemgetter of one index returns the item, on both sides)
    m, n = source.order, target.order
    f = [[b % n for b in am[i : i + m]] for i in range(0, len(am), m)]
    for x, (y, fx, row) in enumerate(zip(om, f, source.act)):
        block, ty = am[x * m : x * m + m], target.act[y]
        if not (
            y * n <= min(block) and max(block) < y * n + n
            and itemgetter(*fx)(ty) == itemgetter(*row)(om)
        ):
            for g, (b, e, z) in enumerate(zip(block, fx, row)):
                if b // n != y:
                    raise GroupoidValidationError(f"hom breaks source at arrow {x * m + g}")
                if ty[e] != om[z]:
                    raise GroupoidValidationError(f"hom breaks target at arrow {x * m + g}")
    if list(am[::m]) != [y * n for y in om]:
        for x, y in enumerate(om):
            if am[x * m] != y * n:
                raise GroupoidValidationError(f"hom breaks identity at object {x}")
    bad = _first_broken_pair(source, target, f)
    if bad is not None:
        raise GroupoidValidationError(f"hom breaks composition at ({bad[0]},{bad[1]})")
    return GroupoidHom(source=source, target=target, object_map=om, arrow_map=am)


def _first_broken_pair(
    source: FiniteGroupoid, target: FiniteGroupoid, f: Sequence[Sequence[int]]
) -> Optional[Tuple[int, int]]:
    """The first composable pair (a, b), by a then b, whose images do not
    compose to the image of a.b; None if there is none. The hom must
    preserve endpoints already, so f[x][g] is the element f_x(g) of the
    image of arrow x*|G| + g out of the image of x, and the pair (x, g),
    (x.g, h) holds iff f_x(g) f_(x.g)(h) == f_x(gh)."""
    m, smult, tmult = source.order, source.mult, target.mult
    # if every point maps its arrows by the same f, every point holds iff
    # point 0 does: f must be a group homomorphism
    points = 1 if f and f.count(f[0]) == len(f) else len(f)
    for x, row in zip(range(points), source.act):
        fx = f[x]
        for g, y in enumerate(row):
            tg, fy, sg = tmult[fx[g]], f[y], smult[g]
            if [tg[i] for i in fy] != [fx[i] for i in sg]:
                h = next(h for h in range(m) if tg[fy[h]] != fx[sg[h]])
                return x * m + g, y * m + h
    return None


# constructions


def action_groupoid(
    group: FiniteGroup,
    n_points: int,
    act: Sequence[Sequence[int]],
) -> FiniteGroupoid:
    """Right action: arrow (x, g) runs from x to x.g; index is x*|G| + g.

    The group table is validated already, so the action axiom, swept here
    over every point and pair, implies every groupoid law: composition is
    the group product, closed, unital and associative.
    """
    if len(act) != n_points:
        raise GroupoidValidationError("action table has wrong number of rows")
    order = group.order
    n_arrows = n_points * order
    if n_arrows > DEFAULT_ARROW_CAP:
        raise GroupoidValidationError(
            f"arrow count {n_arrows} exceeds cap {DEFAULT_ARROW_CAP}"
        )
    for x, row in enumerate(act):
        if len(row) != order:
            raise GroupoidValidationError(f"action row {x} has wrong length")
        if row[0] != x:
            raise GroupoidValidationError(f"identity moves point {x}")
        for y in row:
            if not 0 <= y < n_points:
                raise GroupoidValidationError("action lands outside the point set")

    act = tuple(tuple(row) for row in act)
    elements = group.elements()
    # act[y] must equal row read through right multiplication by g; an
    # itemgetter of one index returns the item, not a 1-tuple
    pick = [itemgetter(*mg) for mg in group.mult]
    picked = act if order > 1 else [row[0] for row in act]
    for x, row in enumerate(act):
        for g, y in enumerate(row):
            if pick[g](row) != picked[y]:
                yrow, mg = act[y], group.mult[g]
                h = next(h for h in elements if yrow[h] != row[mg[h]])
                raise GroupoidValidationError(
                    f"action axiom fails at point {x}, elements ({g},{h})"
                )
    return FiniteGroupoid(group, act)


@lru_cache(maxsize=None)
def point_groupoid(group: FiniteGroup) -> FiniteGroupoid:
    """One object, arrows the group elements."""
    return action_groupoid(group, 1, [[0] * group.order])


@dataclass(eq=False)
class SectorGroupoid:
    """k-tuples of loops at the base's one object, conjugated simultaneously.

    The base is the point groupoid of G, so its loops are the elements of G.
    Object i is the k-tuple of the base-|G| digits of i, computed, not
    stored. Arrow (i, v), from object i along base loop v, has index
    i*|G| + v and lands on the tuple conjugated by v.
    """

    base: FiniteGroupoid
    k: int
    groupoid: FiniteGroupoid
    unit: GroupoidHom = field(repr=False)


def k_sectors(base: FiniteGroupoid, k: int) -> SectorGroupoid:
    """The action groupoid of G on G^k by conjugation, for the point
    groupoid of G as base.

    G is the group of the base's action. Object i is the i-th k-tuple in
    lexicographic order and arrow (i, v) has index i*|G| + v.
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

    group = base.group
    n = group.order
    if n ** (k + 1) > DEFAULT_ARROW_CAP:
        raise GroupoidValidationError(
            f"sector groupoid would have {n ** (k + 1)} arrows, over cap {DEFAULT_ARROW_CAP}"
        )
    # conj[g][v] = v^-1 g v; point i*|G| + g of G^(j+1) extends point i of G^j by g
    conj = [[group.conjugate(g, v) for v in range(n)] for g in range(n)]
    act = conj
    for _ in range(k - 1):
        act = [[p * n + c for p, c in zip(row, crow)] for row in act for crow in conj]
    gpd = action_groupoid(group, len(act), act)

    # the tuple of identity loops is point 0, and base loop v is its arrow v
    unit = make_hom(base, gpd, [0], range(n))
    sect = SectorGroupoid(base=base, k=k, groupoid=gpd, unit=unit)
    base.cache[key] = sect
    return sect


def inertia(base: FiniteGroupoid) -> SectorGroupoid:
    return k_sectors(base, 1)


def face_hom(sectors: SectorGroupoid, i: int) -> GroupoidHom:
    """The face d_i out of the k-sectors, 0 <= i <= k, into the
    (k-1)-sectors: d_0 drops the first loop, d_k the last, and d_i for
    0 < i < k multiplies loops i and i+1 (1-based). Arrow (x, e) goes to
    (d_i(x), e). At k = 1 the faces land in the base, where d_0 and d_1 are
    one map. Each face is validated once and cached on the base, beside
    the sector groupoids.
    """
    k, base = sectors.k, sectors.base
    if not 0 <= i <= k:
        raise ValueError(f"face {i} out of range for {k}-sectors")
    key = ("face", k, i if k > 1 else 0)
    if key not in base.cache:
        # point x is the base-|G| number of its loops: d_0 and d_k keep the
        # low and the high k-1 digits, and d_i multiplies digits i and i+1
        n, points = base.order, range(base.order**k)
        if 0 < i < k:
            low, mult = n ** (k - i - 1), base.mult
            om = [
                (x // (n * n * low) * n + mult[x // (n * low) % n][x // low % n]) * low + x % low
                for x in points
            ]
        else:
            om = [x // n if i else x % n ** (k - 1) for x in points]
        target = base if k == 1 else k_sectors(base, k - 1).groupoid
        am = [y * n + e for y in om for e in range(n)]
        base.cache[key] = make_hom(sectors.groupoid, target, om, am)
    return base.cache[key]


# nerve enumeration


def nerve(gpd: FiniteGroupoid, r: int) -> Iterator[Tuple[int, ...]]:
    """All composable r-tuples of arrows, lexicographic by arrow index."""
    if r < 1:
        raise ValueError("nerve degree must be at least 1")
    m, target = gpd.order, gpd.target
    # one generator per degree, each extending the tuples of the one below
    # by the arrows out of the last arrow's target
    level: Iterator[Tuple[int, ...]] = ((a,) for a in range(gpd.n_arrows))
    for _ in range(r - 1):
        level = (
            p + (b,)
            for p in level
            for y in (target[p[-1]] * m,)
            for b in range(y, y + m)
        )
    yield from level


def nerve_size(gpd: FiniteGroupoid, r: int) -> int:
    if r < 1:
        raise ValueError("nerve degree must be at least 1")
    return nerve_index(gpd, r).size


class NerveIndex:
    """Positions of the composable k-tuples of an action groupoid of G in
    nerve order; in degree 0, of its objects (object x at position x).

    The |G|^(k-1) tuples that start with arrow t0 follow those of the arrows
    before t0, and among them (t0, t1..t_{k-1}) sits at the base-|G| number
    whose digits are the elements t_i mod |G|: the position is
    t0*|G|^(k-1) + sum_i (t_i mod |G|)*|G|^(k-1-i).
    """

    __slots__ = ("k", "size", "order", "n_objects", "source", "target")

    def __init__(self, gpd: FiniteGroupoid, k: int):
        if k < 0:
            raise ValueError("nerve degree must be nonnegative")
        self.k = k
        self.order = gpd.order
        self.n_objects = gpd.n_objects
        self.source, self.target = gpd.source, gpd.target
        self.size = gpd.n_objects if k == 0 else gpd.n_arrows * self.order ** (k - 1)

    def at(self, key: Sequence[int]) -> int:
        """Position of a composable k-tuple, k >= 1, unchecked."""
        m, r = self.order, key[0]
        for t in key[1:]:
            r = r * m + t % m
        return r

    def position(self, key: Sequence[int]) -> int:
        """Position of a key; ValueError unless it is a composable k-tuple
        of arrow indices (in degree 0, a 1-tuple holding an object)."""
        key = tuple(key)
        k = self.k
        if len(key) != max(k, 1):
            raise ValueError(f"key {key} has length {len(key)}, degree is {k}")
        bound = self.n_objects if k == 0 else len(self.source)
        for a in key:
            if not (isinstance(a, int) and 0 <= a < bound):
                raise ValueError(f"key {key} has index {a} out of range")
        if k == 0:
            return key[0]
        source, target = self.source, self.target
        for a, b in zip(key, key[1:]):
            if target[a] != source[b]:
                raise ValueError(f"key {key} is not a composable chain")
        return self.at(key)

    def key(self, p: int) -> Tuple[int, ...]:
        """The key at position p: the inverse of position."""
        if not 0 <= p < self.size:
            raise IndexError(f"position {p} out of range")
        if self.k == 0:
            return (p,)
        m, digits = self.order, []
        for _ in range(self.k - 1):
            p, digit = divmod(p, m)
            digits.append(digit)
        key = [p]
        for digit in reversed(digits):
            key.append(self.target[key[-1]] * m + digit)
        return tuple(key)


def nerve_index(gpd: FiniteGroupoid, k: int) -> NerveIndex:
    """The positions of gpd's k-tuples, built once per groupoid and degree."""
    key = ("nerve index", k)
    hit = gpd.cache.get(key)
    if hit is None:
        hit = gpd.cache[key] = NerveIndex(gpd, k)
    return hit
