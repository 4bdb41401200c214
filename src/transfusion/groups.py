"""Finite groups as dense multiplication tables with 0-based element indices.

Index 0 is always the identity. Every constructor funnels through table
validation, so downstream code can trust the axioms instead of rechecking.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

DEFAULT_ORDER_CAP = 64


class GroupValidationError(ValueError):
    """A multiplication table failed the group axioms."""

    def __init__(self, message: str, witness: Optional[tuple] = None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class FiniteGroup:
    order: int
    mult: Tuple[Tuple[int, ...], ...]
    inv: Tuple[int, ...]
    # presentation metadata; two groups with the same table are the same group
    name: str = field(default="group", compare=False)
    labels: Optional[Tuple[str, ...]] = field(default=None, compare=False)

    def mul(self, a: int, b: int) -> int:
        return self.mult[a][b]

    def inverse(self, a: int) -> int:
        return self.inv[a]

    def elements(self) -> range:
        return range(self.order)

    def conjugate(self, g: int, v: int) -> int:
        """v^-1 g v."""
        return self.mult[self.mult[self.inv[v]][g]][v]

    def element_order(self, g: int) -> int:
        n = 1
        x = g
        while x != 0:
            x = self.mult[x][g]
            n += 1
        return n

    def is_abelian(self) -> bool:
        return all(
            self.mult[a][b] == self.mult[b][a]
            for a in range(self.order)
            for b in range(a + 1, self.order)
        )

    def label(self, g: int) -> str:
        if self.labels is not None:
            return self.labels[g]
        return str(g)


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup
    members: Tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ConjugacyPartition:
    group: FiniteGroup
    classes: Tuple[Tuple[int, ...], ...]
    # transporter[h] = v with h = v^-1 * rep * v for the rep of h's class
    transporter: Tuple[int, ...]
    class_of: Tuple[int, ...]

    @property
    def representatives(self) -> Tuple[int, ...]:
        return tuple(c[0] for c in self.classes)


def _check_order(order: int, order_cap: int) -> None:
    """Refuse an order over the cap before any table of that size is built."""
    if order > order_cap:
        raise GroupValidationError(f"group order {order} exceeds cap {order_cap}")


def _validate_table(
    mult: Sequence[Sequence[int]], order_cap: int
) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...]]:
    n = len(mult)
    if n == 0:
        raise GroupValidationError("empty multiplication table")
    _check_order(n, order_cap)
    rows = []
    for i, row in enumerate(mult):
        if len(row) != n:
            raise GroupValidationError(f"row {i} has length {len(row)}, expected {n}")
        r = tuple(int(x) for x in row)
        for x in r:
            if x < 0 or x >= n:
                raise GroupValidationError(f"entry {x} in row {i} out of range")
        rows.append(r)
    table = tuple(rows)
    for g in range(n):
        if table[0][g] != g or table[g][0] != g:
            raise GroupValidationError(
                "index 0 is not a two-sided identity", witness=(0, g)
            )
    inv = [None] * n
    for g in range(n):
        for h in range(n):
            if table[g][h] == 0:
                if inv[g] is not None and inv[g] != h:
                    raise GroupValidationError(f"element {g} has two inverses")
                inv[g] = h
        if inv[g] is None:
            raise GroupValidationError(f"element {g} has no inverse", witness=(g,))
        if table[inv[g]][g] != 0:
            raise GroupValidationError(
                f"inverse of {g} is one-sided", witness=(g, inv[g])
            )
    for a in range(n):
        ta = table[a]
        for b in range(n):
            tab = table[ta[b]]
            tb = table[b]
            for c in range(n):
                if tab[c] != ta[tb[c]]:
                    raise GroupValidationError(
                        f"associativity fails at ({a},{b},{c})", witness=(a, b, c)
                    )
    return table, tuple(inv)


def from_table(
    mult: Sequence[Sequence[int]],
    name: str = "table",
    labels: Optional[Sequence[str]] = None,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> FiniteGroup:
    table, inv = _validate_table(mult, order_cap)
    lab = tuple(labels) if labels is not None else None
    if lab is not None and len(lab) != len(table):
        raise GroupValidationError("labels length does not match order")
    return FiniteGroup(order=len(table), mult=table, inv=inv, name=name, labels=lab)


def cyclic(n: int, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    if n < 1:
        raise GroupValidationError("cyclic order must be positive")
    _check_order(n, order_cap)
    mult = [[(a + b) % n for b in range(n)] for a in range(n)]
    return from_table(mult, name=f"cyclic:{n}", order_cap=order_cap)


def elementary_abelian(p: int, n: int, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """(Z/p)^n with digit i of the element index as coordinate i.

    Generator i is the element with index p**i, so coordinates read off in
    little-endian base p.
    """
    if p < 2 or n < 1:
        raise GroupValidationError("need p >= 2 and n >= 1")
    order = p**n
    _check_order(order, order_cap)

    def add(a: int, b: int) -> int:
        out = 0
        scale = 1
        for _ in range(n):
            out += ((a + b) % p) * scale
            a //= p
            b //= p
            scale *= p
        return out

    mult = [[add(a, b) for b in range(order)] for a in range(order)]
    labels = []
    for g in range(order):
        digs = []
        x = g
        for _ in range(n):
            digs.append(str(x % p))
            x //= p
        labels.append("".join(digs))
    return from_table(mult, name=f"elemab:{p},{n}", labels=labels, order_cap=order_cap)


def direct_product(
    a: FiniteGroup, b: FiniteGroup, order_cap: int = DEFAULT_ORDER_CAP
) -> FiniteGroup:
    order = a.order * b.order
    _check_order(order, order_cap)

    def enc(x: int, y: int) -> int:
        return x * b.order + y

    mult = [
        [
            enc(a.mult[x1][x2], b.mult[y1][y2])
            for x2 in range(a.order)
            for y2 in range(b.order)
        ]
        for x1 in range(a.order)
        for y1 in range(b.order)
    ]
    labels = [
        f"({a.label(x)},{b.label(y)})" for x in range(a.order) for y in range(b.order)
    ]
    return from_table(
        mult, name=f"product:{a.name},{b.name}", labels=labels, order_cap=order_cap
    )


def symmetric(n: int, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Permutations of n letters, composed left to right, in lex order."""
    if n < 1 or n > 4:
        raise GroupValidationError("symmetric group supported for 1 <= n <= 4")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):
        return tuple(q[p[i]] for i in range(n))

    mult = [[index[compose(p, q)] for q in perms] for p in perms]
    labels = ["".join(str(i) for i in p) for p in perms]
    return from_table(mult, name=f"symmetric:{n}", labels=labels, order_cap=order_cap)


def dihedral(n: int, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n.

    Index r for the rotation by r steps, n + r for the reflection r-step
    composite, so the relation f r f = r^-1 holds in the table.
    """
    if n < 1:
        raise GroupValidationError("dihedral parameter must be positive")
    order = 2 * n
    _check_order(order, order_cap)

    def enc(r: int, f: int) -> int:
        return r % n + n * f

    mult = []
    for g in range(order):
        r1, f1 = g % n, g // n
        row = []
        for h in range(order):
            r2, f2 = h % n, h // n
            if f1 == 0:
                row.append(enc(r1 + r2, f2))
            else:
                row.append(enc(r1 - r2, 1 - f2))
        mult.append(row)
    labels = [f"r{g % n}" if g < n else f"fr{g % n}" for g in range(order)]
    return from_table(mult, name=f"dihedral:{n}", labels=labels, order_cap=order_cap)


def centralizer(group: FiniteGroup, g: int) -> Subgroup:
    members = tuple(h for h in group.elements() if group.mult[g][h] == group.mult[h][g])
    return Subgroup(parent=group, members=members)


def conjugacy_classes(group: FiniteGroup) -> ConjugacyPartition:
    """Classes sorted by their minimal element, which is also the
    representative; transporter[h] conjugates the representative to h."""
    n = group.order
    class_of = [-1] * n
    transporter = [0] * n
    classes = []
    for rep in range(n):
        if class_of[rep] != -1:
            continue
        # scanning from 0 upward means rep is minimal in its class
        idx = len(classes)
        orbit = {}
        for v in range(n):
            h = group.conjugate(rep, v)
            if h not in orbit:
                orbit[h] = v
        for h, v in orbit.items():
            class_of[h] = idx
            transporter[h] = v
        classes.append(tuple(sorted(orbit)))
    return ConjugacyPartition(
        group=group,
        classes=tuple(classes),
        transporter=tuple(transporter),
        class_of=tuple(class_of),
    )


def subgroup_generated(group: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    seen = {0}
    frontier = [0]
    gens = [g for g in gens]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = group.mult[x][g]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
            z = group.mult[g][x]
            if z not in seen:
                seen.add(z)
                frontier.append(z)
    return Subgroup(parent=group, members=tuple(sorted(seen)))


def subgroup_as_group(sub: Subgroup, name: str = "") -> Tuple[FiniteGroup, Tuple[int, ...]]:
    """Reindex a subgroup as a standalone group; returns it with the
    member list mapping new indices to parent indices (identity first)."""
    parent = sub.parent
    members = [0] + [m for m in sorted(sub.members) if m != 0]
    if set(members) != set(sub.members):
        raise GroupValidationError("subgroup does not contain the identity")
    pos = {m: i for i, m in enumerate(members)}
    mult = []
    for a in members:
        row = []
        for b in members:
            c = parent.mult[a][b]
            if c not in pos:
                raise GroupValidationError(
                    f"subset not closed under multiplication at ({a},{b})",
                    witness=(a, b),
                )
            row.append(pos[c])
        mult.append(row)
    labels = [parent.label(m) for m in members]
    g = from_table(mult, name=name or f"sub{len(members)}of:{parent.name}", labels=labels)
    return g, tuple(members)


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
    span = subgroup_generated(a, gens).members
    while len(span) < a.order:
        g = next(x for x in a.elements() if x not in span)
        gens.append(g)
        span = subgroup_generated(a, gens).members

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


def all_subgroups(group: FiniteGroup) -> List[Tuple[int, ...]]:
    """Every subgroup as a sorted member tuple, smallest first."""
    found = {(0,)}
    frontier = [(0,)]
    while frontier:
        members = frontier.pop()
        mset = set(members)
        for g in group.elements():
            if g in mset:
                continue
            bigger = subgroup_generated(group, list(members) + [g]).members
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return sorted(found, key=lambda m: (len(m), m))


# group-spec parsing: compact strings for the CLI and a line-based file format


def _parse_tokens(tokens: List[str], order_cap: int) -> FiniteGroup:
    if not tokens:
        raise GroupValidationError("empty group spec")
    head = tokens.pop(0)
    if head == "cyclic":
        return cyclic(_take_int(tokens), order_cap=order_cap)
    if head == "elemab":
        p = _take_int(tokens)
        n = _take_int(tokens)
        return elementary_abelian(p, n, order_cap=order_cap)
    if head == "symmetric":
        return symmetric(_take_int(tokens), order_cap=order_cap)
    if head == "dihedral":
        return dihedral(_take_int(tokens), order_cap=order_cap)
    if head == "product":
        a = _parse_tokens(tokens, order_cap)
        b = _parse_tokens(tokens, order_cap)
        return direct_product(a, b, order_cap=order_cap)
    raise GroupValidationError(f"unknown group spec head {head!r}")


def _take_int(tokens: List[str]) -> int:
    if not tokens:
        raise GroupValidationError("group spec ended early")
    tok = tokens.pop(0)
    try:
        return int(tok)
    except ValueError:
        raise GroupValidationError(f"expected integer in group spec, got {tok!r}")


def parse_group_spec(spec: str, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Parse compact specs like cyclic:4, elemab:2,3, dihedral:4,
    product:cyclic:4,cyclic:2."""
    tokens = [t for t in spec.replace(",", ":").split(":") if t != ""]
    group = _parse_tokens(tokens, order_cap)
    if tokens:
        raise GroupValidationError(f"trailing tokens in group spec: {tokens}")
    return group


def load_group_lines(
    lines: Iterable[str], order_cap: int = DEFAULT_ORDER_CAP
) -> FiniteGroup:
    """Line format: either shorthand (cyclic N, elemab P N, symmetric N,
    dihedral N, product <specA> <specB>) or an explicit table (order N plus
    N rows)."""
    rows = [ln.strip() for ln in lines]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    if not rows:
        raise GroupValidationError("empty group file")
    head = rows[0].split()
    kind = head[0]
    if kind == "order":
        if len(head) != 2:
            raise GroupValidationError("the order header takes one integer")
        n = _take_int(head[1:])
        if len(rows) != n + 1:
            raise GroupValidationError(f"expected {n} table rows, found {len(rows) - 1}")
        mult = [[int(x) for x in row.split()] for row in rows[1:]]
        return from_table(mult, order_cap=order_cap)
    if len(rows) != 1:
        raise GroupValidationError("shorthand group files are a single line")
    if kind == "product":
        if len(head) != 3:
            raise GroupValidationError("product shorthand takes two compact specs")
        a = parse_group_spec(head[1], order_cap=order_cap)
        b = parse_group_spec(head[2], order_cap=order_cap)
        return direct_product(a, b, order_cap=order_cap)
    if kind not in ("cyclic", "elemab", "symmetric", "dihedral"):
        raise GroupValidationError(f"unknown group file kind {kind!r}")
    tokens = list(head)
    group = _parse_tokens(tokens, order_cap)
    if tokens:
        raise GroupValidationError(f"trailing tokens in group file: {tokens}")
    return group


def construct_group(spec, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Accepts a compact spec string, an iterable of file lines, or an
    explicit multiplication table."""
    if isinstance(spec, str):
        if "\n" in spec:
            return load_group_lines(spec.splitlines(), order_cap=order_cap)
        return parse_group_spec(spec, order_cap=order_cap)
    if isinstance(spec, (list, tuple)) and spec and isinstance(spec[0], str):
        return load_group_lines(spec, order_cap=order_cap)
    return from_table(spec, order_cap=order_cap)
