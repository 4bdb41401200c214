"""Integer Smith normal form and linear solving modulo 1.

The solver answers "does A x = d have a rational solution x modulo Z^m"
exactly, which is the coboundary-solving primitive: A is the integer
coboundary matrix, d the target angles. Each distinct matrix is eliminated
once: pivots are chosen from A alone, so the elimination records its row
operations, and every right-hand side replays them, one integer column at
a time, instead of building the rows x rows transform.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

Matrix = List[List[int]]
IntRows = Tuple[Tuple[int, ...], ...]
# a row operation (kind, i, j, factor): "swap" rows i and j, "add" factor
# times row i to row j, or "neg" (negate) row i
RowOp = Tuple[str, int, int, int]


def _swap_cols(m: Matrix, i: int, j: int) -> None:
    for row in m:
        row[i], row[j] = row[j], row[i]


def _add_col(m: Matrix, src: int, dst: int, factor: int) -> None:
    for row in m:
        row[dst] += factor * row[src]


def _int_rows(m: Sequence[Sequence[int]]) -> IntRows:
    """m as a tuple of integer row tuples, all as long as its first row.
    Raises ValueError naming the first row that is ragged or holds an entry
    that is not an integer."""
    try:
        rows = tuple(map(tuple, m))
    except TypeError:  # a row that is not iterable: named below
        rows = m
    else:
        entries = itertools.chain.from_iterable(rows)
        if len(set(map(len, rows))) <= 1 and set(map(type, entries)) <= {int}:
            return rows
    out: List[Tuple[int, ...]] = []
    for i, row in enumerate(rows):
        try:
            r = tuple(map(int, row))
        except (TypeError, ValueError):
            r = None
        if r is None or r != tuple(row):
            raise ValueError(f"matrix row {i} holds an entry that is not an integer")
        if out and len(r) != len(out[0]):
            raise ValueError(f"matrix row {i} has {len(r)} entries, row 0 has {len(out[0])}")
        out.append(r)
    return tuple(out)


def _nearest_quotient(e: int, p: int) -> int:
    """q with |e - q*p| <= |p|/2. Remainders at most half the pivot keep
    the entries of a long elimination from growing without bound."""
    q, r = divmod(e, p)
    if 2 * abs(r) > abs(p):
        q += 1
    return q


def _least(s: Matrix, cells) -> Optional[Tuple[int, int]]:
    """First cell (i, j) of s holding a nonzero entry of least absolute
    value, or None when all are zero."""
    best = None
    best_abs = 0
    for i, j in cells:
        e = s[i][j]
        if e and (best is None or abs(e) < best_abs):
            best, best_abs = (i, j), abs(e)
            if best_abs == 1:
                break
    return best


# One memo entry holds the key, s, v and the row operations. Under
# cochains.SOLVE_ENTRY_CAP (rows * cols <= 10**6, and cols <= rows for a
# coboundary matrix, since every chain extends by an identity arrow):
# - key and s: 8 bytes per entry plus 56 per row tuple, at most 128 MB
#   together (their entries are small ints, which CPython shares);
# - v: cols**2 <= 10**6 entries, at most 8 MB;
# - operations: 80 to 136 bytes each. A unit pivot takes at most rows + 1,
#   so all-unit pivots give at most about 10**6 of them, 136 MB; each
#   halving of a non-unit pivot adds at most rows + 1 more.
# So an entry at the cap holds under 300 MB and four entries under 1.2 GB.
# The CLI's order**4 budget keeps its solves far smaller: the largest
# transgress matrix it allows (1369 x 37, cyclic:37) holds 1.4 MB with its
# key in 4,519 operations, and the 256 x 16 one of transgress-e16 0.23 MB
# in 1,623. A right-hand side replays them as one column of integers, one
# Python step per operation: about 0.4 ms and 0.1 ms on a 2-core x86_64
# host. Four entries keep every repeat on the benchmark workloads.
@functools.lru_cache(maxsize=4)
def _eliminate(a: IntRows) -> Tuple[Tuple[RowOp, ...], IntRows, IntRows]:
    """Smith elimination of a as (row operations in order, s, v): replaying
    the operations on the identity gives u with u*a*v = s."""
    s = [list(row) for row in a]
    rows = len(s)
    cols = len(s[0]) if rows else 0
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    ops: List[RowOp] = []

    def row_op(op: RowOp) -> None:
        kind, i, j, factor = op
        if kind == "add":
            s[j] = [x + factor * y for x, y in zip(s[j], s[i])]
        elif kind == "swap":
            s[i], s[j] = s[j], s[i]
        else:
            s[i] = [-e for e in s[i]]
        ops.append(op)

    def move_pivot(t: int, cell: Tuple[int, int]) -> None:
        # swap the entry at cell to position (t, t); column swaps go to v
        i, j = cell
        if i != t:
            row_op(("swap", t, i, 0))
        if j != t:
            _swap_cols(s, t, j)
            _swap_cols(v, t, j)

    t = 0
    while t < min(rows, cols):
        found = _least(s, ((i, j) for i in range(t, rows) for j in range(t, cols)))
        if found is None:
            break
        move_pivot(t, found)
        while True:
            # reduce the whole pivot column and row by the nearest multiple
            # of the pivot; the smallest remainder, if any, is the next pivot
            p = s[t][t]
            for i in range(t + 1, rows):
                if s[i][t]:
                    row_op(("add", t, i, -_nearest_quotient(s[i][t], p)))
            for j in range(t + 1, cols):
                if s[t][j]:
                    q = _nearest_quotient(s[t][j], p)
                    _add_col(s, t, j, -q)
                    _add_col(v, t, j, -q)
            found = _least(
                s,
                itertools.chain(
                    ((i, t) for i in range(t + 1, rows)),
                    ((t, j) for j in range(t + 1, cols)),
                ),
            )
            if found is None:
                break
            move_pivot(t, found)
        # divisibility: fold any non-multiple into the pivot position
        pivot = s[t][t]
        offender = None
        if abs(pivot) != 1:  # a unit pivot divides everything
            for i in range(t + 1, rows):
                if any(e % pivot for e in s[i][t + 1 :]):
                    offender = i
                    break
        if offender is not None:
            row_op(("add", offender, t, 1))
            continue
        if pivot < 0:
            row_op(("neg", t, t, 0))
        t += 1
    return tuple(ops), tuple(map(tuple, s)), tuple(map(tuple, v))


def _replay(ops: Sequence[RowOp], col: List[int]) -> List[int]:
    """Apply the recorded row operations, in order, to one integer column."""
    for kind, i, j, factor in ops:
        if kind == "add":
            col[j] += factor * col[i]
        elif kind == "swap":
            col[i], col[j] = col[j], col[i]
        else:
            col[i] = -col[i]
    return col


def solve_mod1(
    a: Sequence[Sequence[int]], d: Sequence[Fraction]
) -> Optional[List[Fraction]]:
    """Solve a*x = d modulo 1 for rational x, or return None.

    a holds integers, d integers, Fractions or anything Fraction() accepts.
    Solutions are sought over all of Q/Z, so witness denominators may be
    finer than those appearing in d. The right-hand side enters as one
    integer column D*d, D the lcm of its denominators, which replays the
    memoized elimination of a; the back-substitution runs in integers over
    one common denominator, and only the returned values are Fractions.
    """
    rows = len(a)
    if rows != len(d):
        raise ValueError("right-hand side length does not match matrix rows")
    ops, s, v = _eliminate(_int_rows(a))
    d = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in d]
    den = math.lcm(*[x.denominator for x in d])
    col = _replay(ops, [x.numerator * (den // x.denominator) for x in d])
    rank = 0
    while rank < min(rows, len(v)) and s[rank][rank] != 0:
        rank += 1
    if any(e % den for e in col[rank:]):
        return None
    # x = v*y with y_j = col[j] / (den*s_j): integers over their lcm
    scales = [den * s[j][j] for j in range(rank)]
    common = math.lcm(*scales)
    y = [e * (common // c) for e, c in zip(col, scales)]
    return [Fraction(sum(map(operator.mul, row, y)) % common, common) for row in v]
