from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from transfusion import cli, smith
from transfusion.cochains import coboundary_solve, cup_one_cochains, shuffle_transgression
from transfusion.groups import all_subgroups, dihedral, symmetric
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


# The elimination loop as it ran before it was memoized: every row operation
# is applied to s and to the companion side by side. It is the oracle for
# the recorded-and-replayed elimination in smith.py.


def _oracle_swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _oracle_swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def _oracle_add_row(m, src, dst, factor):
    m[dst] = [x + factor * y for x, y in zip(m[dst], m[src])]


def _oracle_add_col(m, src, dst, factor):
    for row in m:
        row[dst] += factor * row[src]


def _oracle_nearest_quotient(e, p):
    q, r = divmod(e, p)
    if 2 * abs(r) > abs(p):
        q += 1
    return q


def _oracle_least(s, cells):
    best = None
    best_abs = 0
    for i, j in cells:
        e = s[i][j]
        if e and (best is None or abs(e) < best_abs):
            best, best_abs = (i, j), abs(e)
            if best_abs == 1:
                break
    return best


def _oracle_move_pivot(s, w, v, t, cell):
    i, j = cell
    if i != t:
        _oracle_swap_rows(s, t, i)
        _oracle_swap_rows(w, t, i)
    if j != t:
        _oracle_swap_cols(s, t, j)
        _oracle_swap_cols(v, t, j)


def _oracle_snf(a, companion):
    s = [list(map(int, row)) for row in a]
    rows = len(s)
    cols = len(s[0]) if rows else 0
    w = [list(map(int, row)) for row in companion]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    t = 0
    while t < min(rows, cols):
        found = _oracle_least(s, ((i, j) for i in range(t, rows) for j in range(t, cols)))
        if found is None:
            break
        _oracle_move_pivot(s, w, v, t, found)
        while True:
            p = s[t][t]
            for i in range(t + 1, rows):
                if s[i][t]:
                    q = _oracle_nearest_quotient(s[i][t], p)
                    _oracle_add_row(s, t, i, -q)
                    _oracle_add_row(w, t, i, -q)
            for j in range(t + 1, cols):
                if s[t][j]:
                    q = _oracle_nearest_quotient(s[t][j], p)
                    _oracle_add_col(s, t, j, -q)
                    _oracle_add_col(v, t, j, -q)
            found = _oracle_least(
                s,
                itertools.chain(
                    ((i, t) for i in range(t + 1, rows)),
                    ((t, j) for j in range(t + 1, cols)),
                ),
            )
            if found is None:
                break
            _oracle_move_pivot(s, w, v, t, found)
        pivot = s[t][t]
        offender = None
        if abs(pivot) != 1:
            for i in range(t + 1, rows):
                if any(e % pivot for e in s[i][t + 1 :]):
                    offender = i
                    break
        if offender is not None:
            _oracle_add_row(s, offender, t, 1)
            _oracle_add_row(w, offender, t, 1)
            continue
        if pivot < 0:
            s[t] = [-e for e in s[t]]
            w[t] = [-e for e in w[t]]
        t += 1
    return s, w, v


def _random_matrices(seed, count):
    """Seeded integer matrices with non-unit and negative pivots, zero rows
    and zero columns: entries are drawn without units for half of them."""
    rng = random.Random(seed)
    out = []
    for n in range(count):
        rows = rng.randrange(1, 9)
        cols = rng.randrange(1, 7)
        pool = (0, 0, 2, -2, 3, -3, 4, -6, 9) if n % 2 else (0, 0, 1, -1, 2, -2, 3, -4)
        a = [[rng.choice(pool) for _ in range(cols)] for _ in range(rows)]
        if n % 3 == 0:
            a[rng.randrange(rows)] = [0] * cols
        if n % 4 == 0:
            j = rng.randrange(cols)
            for row in a:
                row[j] = 0
        out.append(a)
    return out


def test_memoized_elimination_matches_the_oracle():
    rng = random.Random("memo-companion")
    non_unit = negative = 0
    for a in _random_matrices("memo", 80):
        rows = len(a)
        b = [[rng.randrange(-9, 10) for _ in range(3)] for _ in range(rows)]
        smith._eliminate.cache_clear()
        assert smith_normal_form(a, _identity(rows)) == _oracle_snf(a, _identity(rows))
        # the repeated call replays the memo on a different companion
        assert smith_normal_form(a, b) == _oracle_snf(a, b)
        assert smith._eliminate.cache_info()[:2] == (1, 1)
        s = _oracle_snf(a, _identity(rows))[0]
        non_unit += any(s[i][i] > 1 for i in range(min(rows, len(a[0]))))
        negative += any(e < 0 for row in a for e in row)
    assert non_unit > 10 and negative > 40


def test_solve_mod1_replays_each_right_hand_side(monkeypatch):
    rng = random.Random("memo-rhs")
    cases = []
    for a in _random_matrices("memo-solve", 30):
        rows, cols = len(a), len(a[0])
        rhs = []
        for _ in range(4):
            x0 = [Fraction(rng.randrange(12), 12) for _ in range(cols)]
            rhs.append([sum((a[i][j] * x0[j] for j in range(cols)), Fraction(0)) % 1 for i in range(rows)])
            rhs.append([Fraction(rng.randrange(12), rng.choice((1, 2, 3, 4, 6))) % 1 for _ in range(rows)])
        cases.append((a, rhs))
    got = [[solve_mod1(a, d) for d in rhs] for a, rhs in cases]
    monkeypatch.setattr(smith, "smith_normal_form", _oracle_snf)
    want = [[solve_mod1(a, d) for d in rhs] for a, rhs in cases]
    assert got == want
    outcomes = [x is None for row in want for x in row]
    assert any(outcomes) and not all(outcomes)


def test_returned_lists_do_not_alias_the_memo():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    want = _oracle_snf(a, _identity(3))
    for _ in range(2):
        s, w, v = smith_normal_form(a, _identity(3))
        assert (s, w, v) == want
        for m in (s, w, v):
            m[0][0] += 100
            m[1].append(7)
            m.append([0])
    # the input is read, not kept: a changed matrix is a new elimination
    a[2][2] = 17
    assert smith_normal_form(a, _identity(3)) == _oracle_snf(a, _identity(3))


def test_malformed_matrices_are_refused():
    i2 = _identity(2)
    with pytest.raises(ValueError, match="matrix row 1 has 2 entries"):
        smith_normal_form([[2], [4, 5]], i2)
    with pytest.raises(ValueError, match="matrix row 1 has 1 entries"):
        smith_normal_form([[2, 3], [4]], i2)
    with pytest.raises(ValueError, match="matrix row 0 holds an entry that is not an integer"):
        smith_normal_form([[Fraction(1, 2)], [1]], i2)
    with pytest.raises(ValueError, match="matrix row 1 holds"):
        smith_normal_form([[1], ["x"]], i2)
    with pytest.raises(ValueError, match="companion row 1 has 1 entries"):
        smith_normal_form([[1], [2]], [[1, 0], [1]])
    with pytest.raises(ValueError, match="companion row 0 holds"):
        smith_normal_form([[1], [2]], [[Fraction(1, 3)], [0]])
    with pytest.raises(ValueError, match="matrix row 1 has 2 entries"):
        solve_mod1([[1], [2, 7]], [Fraction(1, 2), Fraction(1, 3)])
    # an integer-valued entry of another type is that integer
    assert smith_normal_form([[Fraction(4, 2)]], [[1]]) == ([[2]], [[1]], [[1]])


def test_e16_sectors_share_one_elimination(monkeypatch, capsys):
    solved = []

    def counted(c):
        solved.append(c.groupoid)
        return coboundary_solve(c)

    monkeypatch.setattr(cli, "coboundary_solve", counted)
    smith._eliminate.cache_clear()
    assert cli.main(["transgress", "--group", "elemab:2,4", "--poly", "xyz"]) == 0
    capsys.readouterr()
    info = smith._eliminate.cache_info()
    assert len(solved) == 16
    assert (info.misses, info.hits) == (1, 15)


def _half_homs(group):
    """Every homomorphism to {0, 1/2}: one per subgroup of index 2."""
    out = []
    for sub in all_subgroups(group):
        if 2 * len(sub) == group.order:
            inside = set(sub)
            out.append([Fraction(0) if g in inside else Fraction(1, 2) for g in group.elements()])
    return out


@pytest.mark.parametrize("group", [symmetric(4), dihedral(4)], ids=["symmetric:4", "dihedral:4"])
def test_sector_solves_match_the_oracle(group, monkeypatch):
    # the cup twist's sectors and each sector plus a cup of two half-valued
    # characters of its centralizer: dense witnesses and refusals
    fs = _half_homs(group)
    phi = cup_one_cochains(group, [fs[0], fs[-1], fs[0]])
    targets = []
    for g in group.elements():
        tg, zgrp, _ = shuffle_transgression(group, phi, g)
        targets.append(tg)
        for f1, f2 in itertools.combinations(_half_homs(zgrp), 2):
            targets.append(tg + cup_one_cochains(zgrp, [f1, f2]))
    smith._eliminate.cache_clear()
    got = [coboundary_solve(c) for c in targets]
    assert smith._eliminate.cache_info().misses < len(targets)
    monkeypatch.setattr(smith, "smith_normal_form", _oracle_snf)
    want = [coboundary_solve(c) for c in targets]
    for w_got, w_want in zip(got, want):
        if w_want is None:
            assert w_got is None
        else:
            assert (w_got.modulus, w_got.table) == (w_want.modulus, w_want.table)
    assert any(w is None for w in want) and any(w is not None and w.table for w in want)
