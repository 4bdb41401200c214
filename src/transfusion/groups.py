"""Finite groups as dense multiplication tables with 0-based element indices.

Index 0 is always the identity. Every constructor funnels through table
validation, so downstream code can trust the axioms instead of rechecking.
The one exception is subgroup_as_group, which cuts a subgroup out of an
already validated group: it checks only that the members hold the identity
and are closed, since a closed subset of a finite group is a subgroup and
associativity is inherited from the parent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

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


@dataclass(frozen=True)
class ConjugacyPartition:
    classes: Tuple[Tuple[int, ...], ...]
    # transporter[h] = v with h = v^-1 * rep * v for the rep of h's class
    transporter: Tuple[int, ...]
    class_of: Tuple[int, ...]


def _check_order(order: int) -> None:
    """Refuse an order over the cap before any table of that size is built."""
    if order > DEFAULT_ORDER_CAP:
        raise GroupValidationError(f"group order {order} exceeds cap {DEFAULT_ORDER_CAP}")


def _validate_table(
    mult: Sequence[Sequence[int]],
) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...]]:
    n = len(mult)
    if n == 0:
        raise GroupValidationError("empty multiplication table")
    _check_order(n)
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


def from_table(mult: Sequence[Sequence[int]]) -> FiniteGroup:
    table, inv = _validate_table(mult)
    return FiniteGroup(order=len(table), mult=table, inv=inv)


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupValidationError("cyclic order must be positive")
    _check_order(n)
    mult = [[(a + b) % n for b in range(n)] for a in range(n)]
    return from_table(mult)


def elementary_abelian(p: int, n: int) -> FiniteGroup:
    """(Z/p)^n with digit i of the element index as coordinate i.

    Generator i is the element with index p**i, so coordinates read off in
    little-endian base p; each direct_product adds the highest digit.
    """
    if p < 2 or n < 1:
        raise GroupValidationError("need p >= 2 and n >= 1")
    _check_order(p**n)
    group = factor = cyclic(p)
    for _ in range(n - 1):
        group = direct_product(factor, group)
    return group


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    order = a.order * b.order
    _check_order(order)

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
    return from_table(mult)


def symmetric(n: int) -> FiniteGroup:
    """Permutations of n letters, composed left to right, in lex order."""
    if n < 1 or n > 4:
        raise GroupValidationError("symmetric group supported for 1 <= n <= 4")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):
        return tuple(q[p[i]] for i in range(n))

    mult = [[index[compose(p, q)] for q in perms] for p in perms]
    return from_table(mult)


def dihedral(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n.

    Index r for the rotation by r steps, n + r for the reflection r-step
    composite, so the relation f r f = r^-1 holds in the table.
    """
    if n < 1:
        raise GroupValidationError("dihedral parameter must be positive")
    order = 2 * n
    _check_order(order)

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
    return from_table(mult)


def centralizer(group: FiniteGroup, g: int) -> Tuple[int, ...]:
    """The elements commuting with g, ascending."""
    return tuple(h for h in group.elements() if group.mult[g][h] == group.mult[h][g])


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
        classes=tuple(classes),
        transporter=tuple(transporter),
        class_of=tuple(class_of),
    )


def subgroup_generated(group: FiniteGroup, gens: Iterable[int]) -> Tuple[int, ...]:
    """The members of the subgroup the generators generate, ascending."""
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
    return tuple(sorted(seen))


def subgroup_as_group(
    parent: FiniteGroup, members: Sequence[int]
) -> Tuple[FiniteGroup, Tuple[int, ...]]:
    """Reindex a subgroup, given by its members, as a standalone group;
    returns it with the member list mapping new indices to parent indices
    (identity first).

    Only the identity and closure are checked; the table is not validated
    again. A closed subset of a finite group is a subgroup: the powers of
    each member stay in it and return to the identity, so its inverse is
    one of them and is read off the parent. Associativity is inherited from
    the parent.
    """
    mset = set(members)
    if 0 not in mset:
        raise GroupValidationError("subgroup does not contain the identity")
    ordered = [0] + sorted(mset - {0})
    pos = {m: i for i, m in enumerate(ordered)}
    mult = []
    for a in ordered:
        row = []
        for b in ordered:
            c = parent.mult[a][b]
            if c not in pos:
                raise GroupValidationError(
                    f"subset not closed under multiplication at ({a},{b})",
                    witness=(a, b),
                )
            row.append(pos[c])
        mult.append(tuple(row))
    inv = tuple(pos[parent.inv[m]] for m in ordered)
    return FiniteGroup(order=len(ordered), mult=tuple(mult), inv=inv), tuple(ordered)


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
            bigger = subgroup_generated(group, list(members) + [g])
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return sorted(found, key=lambda m: (len(m), m))


# group-spec parsing: compact strings for the CLI and a line-based file format


def _parse_tokens(tokens: List[str]) -> FiniteGroup:
    if not tokens:
        raise GroupValidationError("empty group spec")
    head = tokens.pop(0)
    if head == "cyclic":
        return cyclic(_take_int(tokens))
    if head == "elemab":
        p = _take_int(tokens)
        n = _take_int(tokens)
        return elementary_abelian(p, n)
    if head == "symmetric":
        return symmetric(_take_int(tokens))
    if head == "dihedral":
        return dihedral(_take_int(tokens))
    if head == "product":
        a = _parse_tokens(tokens)
        b = _parse_tokens(tokens)
        return direct_product(a, b)
    raise GroupValidationError(f"unknown group spec head {head!r}")


def _take_int(tokens: List[str]) -> int:
    if not tokens:
        raise GroupValidationError("group spec ended early")
    tok = tokens.pop(0)
    try:
        return int(tok)
    except ValueError:
        raise GroupValidationError(f"expected integer in group spec, got {tok!r}")


def _table_int(row: int, tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise GroupValidationError(f"expected integer in group table row {row}, got {tok!r}")


def parse_group_spec(spec: str) -> FiniteGroup:
    """Parse compact specs like cyclic:4, elemab:2,3, dihedral:4,
    product:cyclic:4,cyclic:2."""
    tokens = [t for t in spec.replace(",", ":").split(":") if t != ""]
    group = _parse_tokens(tokens)
    if tokens:
        raise GroupValidationError(f"trailing tokens in group spec: {tokens}")
    return group


def load_group_lines(lines: Iterable[str]) -> FiniteGroup:
    """Line format: either one shorthand line, a compact spec as
    parse_group_spec reads it with spaces allowed between its parts
    (cyclic 4, elemab 2 3, product elemab:2,2 cyclic:3), or an explicit
    table (order N plus N rows)."""
    rows = [ln.strip() for ln in lines]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    if not rows:
        raise GroupValidationError("empty group file")
    head = rows[0].split()
    if head[0] == "order":
        if len(head) != 2:
            raise GroupValidationError("the order header takes one integer")
        n = _take_int(head[1:])
        if len(rows) != n + 1:
            raise GroupValidationError(f"expected {n} table rows, found {len(rows) - 1}")
        mult = [[_table_int(i, x) for x in row.split()] for i, row in enumerate(rows[1:])]
        return from_table(mult)
    if len(rows) != 1:
        raise GroupValidationError("shorthand group files are a single line")
    return parse_group_spec(":".join(head))
