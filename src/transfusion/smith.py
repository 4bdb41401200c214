"""Integer Smith normal form and linear solving modulo 1.

The solver answers "does A x = d have a rational solution x modulo Z^m"
exactly, which is the coboundary-solving primitive: A is the integer
coboundary matrix, d the target angles. The elimination carries the
right-hand side along as a companion column instead of building the
rows x rows transform.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

Matrix = List[List[int]]


def _swap_rows(m: Matrix, i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]


def _swap_cols(m: Matrix, i: int, j: int) -> None:
    for row in m:
        row[i], row[j] = row[j], row[i]


def _add_row(m: Matrix, src: int, dst: int, factor: int) -> None:
    m[dst] = [x + factor * y for x, y in zip(m[dst], m[src])]


def _add_col(m: Matrix, src: int, dst: int, factor: int) -> None:
    for row in m:
        row[dst] += factor * row[src]


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


def _move_pivot(s: Matrix, w: Matrix, v: Matrix, t: int, cell) -> None:
    """Swap the entry of s at cell (i, j) to position (t, t), carrying the
    row swap to w and the column swap to v."""
    i, j = cell
    if i != t:
        _swap_rows(s, t, i)
        _swap_rows(w, t, i)
    if j != t:
        _swap_cols(s, t, j)
        _swap_cols(v, t, j)


def smith_normal_form(
    a: Sequence[Sequence[int]], companion: Sequence[Sequence[int]]
) -> Tuple[Matrix, Matrix, Matrix]:
    """Return (s, w, v) with u*a*v = s and w = u*companion, for some
    unimodular u that is never built; v is unimodular, s diagonal.

    The companion has one row per row of a and receives every row operation
    applied to a; the identity as companion gives u itself. Diagonal
    entries of s are nonnegative and each divides the next.
    """
    s = [list(map(int, row)) for row in a]
    rows = len(s)
    cols = len(s[0]) if rows else 0
    if len(companion) != rows:
        raise ValueError("companion must have one row per matrix row")
    w = [list(map(int, row)) for row in companion]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    t = 0
    while t < min(rows, cols):
        found = _least(s, ((i, j) for i in range(t, rows) for j in range(t, cols)))
        if found is None:
            break
        _move_pivot(s, w, v, t, found)
        while True:
            # reduce the whole pivot column and row by the nearest multiple
            # of the pivot; the smallest remainder, if any, is the next pivot
            p = s[t][t]
            for i in range(t + 1, rows):
                if s[i][t]:
                    q = _nearest_quotient(s[i][t], p)
                    _add_row(s, t, i, -q)
                    _add_row(w, t, i, -q)
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
            _move_pivot(s, w, v, t, found)
        # divisibility: fold any non-multiple into the pivot position
        pivot = s[t][t]
        offender = None
        if abs(pivot) != 1:  # a unit pivot divides everything
            for i in range(t + 1, rows):
                if any(e % pivot for e in s[i][t + 1 :]):
                    offender = i
                    break
        if offender is not None:
            _add_row(s, offender, t, 1)
            _add_row(w, offender, t, 1)
            continue
        if pivot < 0:
            s[t] = [-e for e in s[t]]
            w[t] = [-e for e in w[t]]
        t += 1
    return s, w, v


def solve_mod1(
    a: Sequence[Sequence[int]], d: Sequence[Fraction]
) -> Optional[List[Fraction]]:
    """Solve a*x = d modulo 1 for rational x, or return None.

    Solutions are sought over all of Q/Z, so witness denominators may be
    finer than those appearing in d. The right-hand side enters the
    elimination as one integer column D*d, D the lcm of its denominators,
    so memory stays at the size of a.
    """
    rows = len(a)
    if rows != len(d):
        raise ValueError("right-hand side length does not match matrix rows")
    cols = len(a[0]) if rows else 0
    if rows == 0:
        return []
    d = [Fraction(x) for x in d]
    den = 1
    for x in d:
        den = math.lcm(den, x.denominator)
    s, ub, v = smith_normal_form(
        a, [[x.numerator * (den // x.denominator)] for x in d]
    )
    rank = 0
    while rank < min(rows, cols) and s[rank][rank] != 0:
        rank += 1
    for i in range(rank, rows):
        if ub[i][0] % den:
            return None
    y = [Fraction(ub[i][0], den * s[i][i]) for i in range(rank)]
    x = []
    for i in range(cols):
        acc = Fraction(0)
        row = v[i]
        for j in range(rank):
            if row[j] and y[j]:
                acc += row[j] * y[j]
        x.append(acc % 1)
    return x
