from __future__ import annotations

import random
from fractions import Fraction

from transfusion.smith import smith_normal_form, solve_mod1


def _mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _solve_through_u(a, d):
    """Reference solve of a*x = d mod 1 that builds U: U*d, divide by the
    diagonal, apply V."""
    rows, cols = len(a), len(a[0])
    s, u, v = smith_normal_form(a, _identity(rows))
    rank = 0
    while rank < min(rows, cols) and s[rank][rank] != 0:
        rank += 1
    ud = [sum((u[i][j] * d[j] for j in range(rows)), Fraction(0)) for i in range(rows)]
    if any(ud[i].denominator != 1 for i in range(rank, rows)):
        return None
    y = [ud[i] / s[i][i] for i in range(rank)] + [Fraction(0)] * (cols - rank)
    return [sum((v[i][j] * y[j] for j in range(cols)), Fraction(0)) % 1 for i in range(cols)]


def _det(m):
    m = [row[:] for row in m]
    n = len(m)
    sign = 1
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return 0
        if p != c:
            m[c], m[p] = m[p], m[c]
            sign = -sign
        while True:
            done = True
            for r in range(c + 1, n):
                if m[r][c] != 0:
                    q = m[r][c] // m[c][c]
                    m[r] = [x - q * y for x, y in zip(m[r], m[c])]
                    if m[r][c] != 0:
                        m[c], m[r] = m[r], m[c]
                        sign = -sign
                        done = False
            if done:
                break
    out = sign
    for i in range(n):
        out *= m[i][i]
    return out


def test_snf_known_matrix():
    # frozen: SNF of [[2,4,4],[-6,6,12],[10,4,16]] has diagonal 2, 2, 156
    s, u, v = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]], _identity(3))
    assert [s[i][i] for i in range(3)] == [2, 2, 156]


def test_snf_transforms_and_divisibility():
    rng = random.Random("snf")
    for _ in range(40):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        a = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        s, u, v = smith_normal_form(a, _identity(rows))
        assert _mat_mul(_mat_mul(u, a), v) == s
        assert abs(_det(u)) == 1
        assert abs(_det(v)) == 1
        diag = [s[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert s[i][j] == 0
        for x, y in zip(diag, diag[1:]):
            if x != 0:
                assert y % x == 0 or y == 0
            else:
                assert y == 0
        for d in diag:
            assert d >= 0


def test_solve_mod1_roundtrip():
    rng = random.Random("solve")
    for _ in range(60):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        a = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        x0 = [Fraction(rng.randrange(0, 12), 12) for _ in range(cols)]
        d = []
        for i in range(rows):
            acc = sum((a[i][j] * x0[j] for j in range(cols)), Fraction(0))
            d.append(acc % 1)
        x = solve_mod1(a, d)
        assert x is not None
        for i in range(rows):
            acc = sum((a[i][j] * x[j] for j in range(cols)), Fraction(0))
            assert (acc - d[i]) % 1 == 0


def test_companion_receives_the_row_operations():
    rng = random.Random("companion")
    for _ in range(20):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 5)
        a = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        b = [[rng.randrange(-9, 10) for _ in range(2)] for _ in range(rows)]
        s, u, v = smith_normal_form(a, _identity(rows))
        s2, w, v2 = smith_normal_form(a, b)
        assert (s2, v2) == (s, v)
        assert w == _mat_mul(u, b)


def test_solve_mod1_matches_a_solve_through_u():
    # systems of this size (the twelfth one is 18 x 8) grew entries to
    # millions of bits under a floor-quotient elimination
    rng = random.Random("solve-through-u")
    solvable = 0
    for t in range(40):
        rows = rng.randrange(1, 31)
        cols = rng.randrange(1, 9)
        a = [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)]
        if t % 2:
            dens = (1, 2, 3, 4, 6, 8, 12)
            d = [Fraction(rng.randrange(24), rng.choice(dens)) % 1 for _ in range(rows)]
        else:
            # consistent right-hand side a * x0
            x0 = [Fraction(rng.randrange(30), 30) for _ in range(cols)]
            d = [sum((a[i][j] * x0[j] for j in range(cols)), Fraction(0)) % 1 for i in range(rows)]
        x = solve_mod1(a, d)
        assert x == _solve_through_u(a, d)
        solvable += x is not None
    # both outcomes occur
    assert 0 < solvable < 40


def test_solve_mod1_unsolvable():
    # 2x = 1/2 is solvable (x = 1/4); 0x = 1/2 is not
    assert solve_mod1([[2]], [Fraction(1, 2)]) == [Fraction(1, 4)]
    assert solve_mod1([[0]], [Fraction(1, 2)]) is None
    # parity obstruction: x + y and x + y must match
    out = solve_mod1([[1, 1], [1, 1]], [Fraction(1, 3), Fraction(2, 3)])
    assert out is None


def test_solve_mod1_needs_finer_denominator():
    # the witness requires denominator 4 while the data only shows 2
    x = solve_mod1([[2]], [Fraction(1, 2)])
    assert x == [Fraction(1, 4)]
