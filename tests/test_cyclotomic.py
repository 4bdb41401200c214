from __future__ import annotations

import random
from fractions import Fraction

import pytest

from transfusion.cyclotomic import (
    Cyclotomic,
    MonomialMatrix,
    cyclotomic_polynomial,
    mat_trace,
    matrix_rank,
    phase,
    solve_linear,
)


def _mat_mul(a, b):
    zero = Cyclotomic.from_rational(0)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), zero) for j in range(len(b[0])))
        for i in range(len(a))
    )


def _kron(a, b):
    return tuple(tuple(x * y for x in ra for y in rb) for ra in a for rb in b)


def _random_monomial(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    modulus = rng.choice((1, 2, 3, 4, 6, 8, 12))
    return MonomialMatrix(perm, [rng.randrange(modulus) for _ in range(n)], modulus)


def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_105():
    # first conductor with a coefficient of magnitude 2, at degree 7
    c = cyclotomic_polynomial(105)
    assert len(c) == 49
    assert c[7] == -2
    assert c[0] == 1 and c[-1] == 1


def test_phase_basics():
    assert phase(Fraction(1, 2)) == -1
    assert phase(0) == 1
    assert phase(Fraction(1, 4)) ** 2 == -1
    assert phase(Fraction(1, 3)) ** 3 == 1
    assert phase(Fraction(1, 8)) ** 4 == -1
    assert phase(Fraction(5, 4)) == phase(Fraction(1, 4))
    assert phase(Fraction(-1, 4)) == phase(Fraction(3, 4))


def test_phase_is_multiplicative():
    vals = [Fraction(1, 2), Fraction(1, 3), Fraction(3, 8), Fraction(5, 12)]
    for a in vals:
        for b in vals:
            assert phase(a) * phase(b) == phase(a + b)


def test_roots_of_unity_sum_to_zero():
    for n in (2, 3, 4, 6, 8, 12):
        total = Cyclotomic.from_rational(0)
        for k in range(n):
            total = total + phase(Fraction(k, n))
        assert total.is_zero()


def test_cross_conductor_equality():
    # zeta_6 = -zeta_3^2
    assert phase(Fraction(1, 6)) == -phase(Fraction(2, 3))
    assert phase(Fraction(1, 2)) == phase(Fraction(2, 4))


def test_conj_and_inverse():
    z = phase(Fraction(1, 5))
    assert z.conj() == phase(Fraction(4, 5))
    assert z.inverse() == z.conj()
    assert z * z.conj() == 1
    w = Cyclotomic(8, [3, 2, 0, -1])
    assert w * w.inverse() == 1
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.from_rational(0).inverse()


def test_golden_ratio_relation():
    # zeta_5 + zeta_5^-1 satisfies x^2 + x - 1 = 0
    c = phase(Fraction(1, 5)) + phase(Fraction(4, 5))
    assert c * c + c - 1 == 0


def test_rational_detection():
    assert phase(Fraction(1, 2)).is_rational()
    assert phase(Fraction(1, 2)).rational_value() == -1
    z = phase(Fraction(1, 4))
    assert not z.is_rational()
    assert (z + z.conj()).is_rational()
    assert (z + z.conj()).rational_value() == 0
    assert (z * 3 / 2 - z * Fraction(3, 2)).is_zero()


def test_field_arithmetic():
    a = phase(Fraction(1, 8)) + 2
    b = phase(Fraction(3, 8)) - Fraction(1, 2)
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a - a == 0
    assert 1 / (a / a) == 1
    assert a ** 0 == 1
    assert a ** -2 == 1 / (a * a)


def test_matrix_ops():
    i = phase(Fraction(1, 4))
    w = phase(Fraction(1, 3))
    a = MonomialMatrix.from_dense([[0, i], [1, 0]])
    b = MonomialMatrix.from_dense([[w, 0], [0, i]])
    ab = (a @ b).dense()
    # [[0, i], [1, 0]] @ [[w, 0], [0, i]] = [[0, -1], [w, 0]]
    assert ab[0][0] == 0
    assert ab[0][1] == -1
    assert ab[1][0] == w
    assert a @ MonomialMatrix.identity(2) == a
    assert b.kron(b).trace() == b.trace() * b.trace()
    assert a.kron(b).trace() == a.trace() * b.trace() == 0


def test_monomial_ops_match_dense_reference():
    rng = random.Random("monomial")
    for _ in range(60):
        n, k = rng.randint(1, 4), rng.randint(1, 3)
        a, b = _random_monomial(rng, n), _random_monomial(rng, n)
        c = _random_monomial(rng, k)
        assert (a @ b).dense() == _mat_mul(a.dense(), b.dense())
        assert a.kron(c).dense() == _kron(a.dense(), c.dense())
        assert a.trace() == mat_trace(a.dense())
        angle = Fraction(rng.randrange(12), 12)
        scaled = tuple(tuple(phase(angle) * x for x in row) for row in a.dense())
        assert a.scale(angle).dense() == scaled
        assert MonomialMatrix.from_dense(a.dense()) == a


def test_monomial_equality_across_moduli():
    half = MonomialMatrix([1, 0], [1, 0], 2)
    assert half == MonomialMatrix([1, 0], [2, 4], 4)
    assert half != MonomialMatrix([1, 0], [1, 0], 4)
    assert half != MonomialMatrix([0, 1], [1, 0], 2)
    assert MonomialMatrix.identity(3) == MonomialMatrix([0, 1, 2], [6, 0, 3], 3)
    # -1 and -zeta_3 live at odd conductors but are sixth roots of unity
    minus = MonomialMatrix.from_dense([[0, -1], [-phase(Fraction(1, 3)), 0]])
    assert minus == MonomialMatrix([1, 0], [3, 5], 6)


def test_from_dense_refuses_non_monomial_input():
    i = phase(Fraction(1, 4))
    with pytest.raises(ValueError):
        MonomialMatrix.from_dense([[1, i], [0, 1]])  # two nonzeros in a row
    with pytest.raises(ValueError):
        MonomialMatrix.from_dense([[0, 2], [1, 0]])  # 2 is not a root of unity
    with pytest.raises(ValueError):
        MonomialMatrix.from_dense([[1 + i, 0], [0, 1]])  # nor is 1 + i
    with pytest.raises(ValueError):
        MonomialMatrix.from_dense([[0, 1], [0, i]])  # column 1 twice
    with pytest.raises(ValueError):
        MonomialMatrix([0, 0], [0, 0], 1)


def test_rank_over_cyclotomics():
    i = phase(Fraction(1, 4))
    # second row is i times the first
    assert matrix_rank([[1, i], [i, -1]]) == 1
    assert matrix_rank([[1, i], [i, 1]]) == 2
    assert matrix_rank([[0, 0], [0, 0]]) == 0


def test_solve_linear():
    i = phase(Fraction(1, 4))
    x = solve_linear([[1, i], [i, 1]], [1 + i, 1 + i])
    assert x is not None
    assert x[0] + i * x[1] == 1 + i
    assert i * x[0] + x[1] == 1 + i
    # inconsistent
    assert solve_linear([[1, i], [i, -1]], [1, 0]) is None
    # underdetermined still returns a valid solution
    x = solve_linear([[1, i]], [2])
    assert x is not None and x[0] + i * x[1] == 2
