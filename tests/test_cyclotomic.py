from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from transfusion.cyclotomic import (
    Cyclotomic,
    MonomialMatrix,
    cyclotomic_polynomial,
    mat_trace,
    matrix_rank,
    root,
)
from support_fusion import kron


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


def _int_poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_polynomials_multiply_to_x_n_minus_1():
    for n in range(1, 61):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _int_poly_mul(prod, cyclotomic_polynomial(d))
        assert prod == [-1] + [0] * (n - 1) + [1]


def test_phase_basics():
    assert root(1, 2) == -1
    assert root(0, 1) == 1
    i, w, z8 = root(1, 4), root(1, 3), root(1, 8)
    assert i * i == -1
    assert w * w * w == 1
    assert z8 * z8 * z8 * z8 == -1
    assert root(5, 4) == root(1, 4)
    assert root(-1, 4) == root(3, 4)


def test_phase_is_multiplicative():
    vals = [(1, 2), (1, 3), (3, 8), (5, 12)]
    for ea, ma in vals:
        for eb, mb in vals:
            assert root(ea, ma) * root(eb, mb) == root(ea * mb + eb * ma, ma * mb)


def test_roots_of_unity_sum_to_zero():
    for n in (2, 3, 4, 6, 8, 12):
        total = Cyclotomic.from_rational(0)
        for k in range(n):
            total = total + root(k, n)
        assert total.is_zero()


def test_cross_conductor_equality():
    # zeta_6 = -zeta_3^2
    assert root(1, 6) == -root(2, 3)
    assert root(1, 2) == root(2, 4)


def test_conj_and_inverse():
    z = root(1, 5)
    assert z.conj() == root(4, 5)
    assert z.inverse() == z.conj()
    assert z * z.conj() == 1
    w = Cyclotomic(8, [3, 2, 0, -1])
    assert w * w.inverse() == 1
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.from_rational(0).inverse()


def test_golden_ratio_relation():
    # zeta_5 + zeta_5^-1 satisfies x^2 + x - 1 = 0
    c = root(1, 5) + root(4, 5)
    assert c * c + c - 1 == 0


def test_rational_detection():
    assert root(1, 2).is_rational()
    assert root(1, 2).rational_value() == -1
    z = root(1, 4)
    assert not z.is_rational()
    assert (z + z.conj()).is_rational()
    assert (z + z.conj()).rational_value() == 0
    half = Cyclotomic.from_rational(2).inverse()
    assert (z * 3 * half - z * Fraction(3, 2)).is_zero()


def test_field_arithmetic():
    a = root(1, 8) + 2
    b = root(3, 8) - Fraction(1, 2)
    assert (a + b) - b == a
    assert (a * b) * b.inverse() == a
    assert a - a == 0
    assert (a * a.inverse()).inverse() == 1
    assert a.inverse() * a.inverse() == (a * a).inverse()


def test_matrix_ops():
    i = root(1, 4)
    w = root(1, 3)
    a = MonomialMatrix.from_dense([[0, i], [1, 0]])
    b = MonomialMatrix.from_dense([[w, 0], [0, i]])
    ab = (a @ b).dense()
    # [[0, i], [1, 0]] @ [[w, 0], [0, i]] = [[0, -1], [w, 0]]
    assert ab[0][0] == 0
    assert ab[0][1] == -1
    assert ab[1][0] == w
    assert a @ MonomialMatrix.identity(2) == a
    assert kron(b, b).trace() == b.trace() * b.trace()
    assert kron(a, b).trace() == a.trace() * b.trace() == 0


def test_monomial_ops_match_dense_reference():
    rng = random.Random("monomial")
    for _ in range(60):
        n, k = rng.randint(1, 4), rng.randint(1, 3)
        a, b = _random_monomial(rng, n), _random_monomial(rng, n)
        c = _random_monomial(rng, k)
        assert (a @ b).dense() == _mat_mul(a.dense(), b.dense())
        assert kron(a, c).dense() == _kron(a.dense(), c.dense())
        assert a.trace() == mat_trace(a.dense())
        e = rng.randrange(12)
        scaled = tuple(tuple(root(e, 12) * x for x in row) for row in a.dense())
        assert a.scale(e, 12).dense() == scaled
        assert MonomialMatrix.from_dense(a.dense()) == a


def test_monomial_equality_across_moduli():
    half = MonomialMatrix([1, 0], [1, 0], 2)
    assert half == MonomialMatrix([1, 0], [2, 4], 4)
    assert half != MonomialMatrix([1, 0], [1, 0], 4)
    assert half != MonomialMatrix([0, 1], [1, 0], 2)
    assert MonomialMatrix.identity(3) == MonomialMatrix([0, 1, 2], [6, 0, 3], 3)
    # -1 and -zeta_3 live at odd conductors but are sixth roots of unity
    minus = MonomialMatrix.from_dense([[0, -1], [-root(1, 3), 0]])
    assert minus == MonomialMatrix([1, 0], [3, 5], 6)


def test_scale_takes_the_root_in_lowest_terms():
    # zeta_4^2 is -1, a root of order 2, so the modulus stays 2
    assert MonomialMatrix.identity(2).scale(2, 4).modulus == 2
    assert MonomialMatrix.identity(2).scale(2, 4) == MonomialMatrix([0, 1], [1, 1], 2)
    minus_i = MonomialMatrix.identity(1).scale(-3, 12)
    assert (minus_i.exps, minus_i.modulus) == ((3,), 4)
    assert MonomialMatrix.identity(1).scale(0, 6).modulus == 1


def test_from_dense_refuses_non_monomial_input():
    i = root(1, 4)
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
    i = root(1, 4)
    # second row is i times the first
    assert matrix_rank([[1, i], [i, -1]]) == 1
    assert matrix_rank([[1, i], [i, 1]]) == 2
    assert matrix_rank([[0, 0], [0, 0]]) == 0


# A Fraction-coefficient reference for Cyclotomic: polynomials in zeta_N
# with Fraction coefficients, reduced by Fraction long division.


def _ref_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _ref_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _ref_trim(out)


def _ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_trim(out)


def _ref_divmod(num, den):
    rem = list(num)
    quo = [Fraction(0)] * max(0, len(rem) - len(den) + 1)
    _ref_trim(rem)
    while len(rem) >= len(den):
        c = rem[-1] / den[-1]
        k = len(rem) - len(den)
        quo[k] = c
        for i, d in enumerate(den):
            rem[k + i] -= c * d
        _ref_trim(rem)
    return _ref_trim(quo), rem


class _RefCyc:
    def __init__(self, conductor, coeffs):
        phi = [Fraction(c) for c in cyclotomic_polynomial(conductor)]
        _, rem = _ref_divmod([Fraction(c) for c in coeffs], phi)
        self.conductor = conductor
        self.coeffs = tuple(rem + [Fraction(0)] * (len(phi) - 1 - len(rem)))

    def promote(self, m):
        step = m // self.conductor
        big = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            big[i * step] = c
        return _RefCyc(m, big)

    def _pair(self, other):
        m = math.lcm(self.conductor, other.conductor)
        return self.promote(m), other.promote(m)

    def __add__(self, other):
        a, b = self._pair(other)
        return _RefCyc(a.conductor, _ref_add(a.coeffs, b.coeffs))

    def __neg__(self):
        return _RefCyc(self.conductor, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if other.conductor == 1:
            return _RefCyc(self.conductor, [x * other.coeffs[0] for x in self.coeffs])
        if self.conductor == 1:
            return _RefCyc(other.conductor, [x * self.coeffs[0] for x in other.coeffs])
        a, b = self._pair(other)
        return _RefCyc(a.conductor, _ref_mul(a.coeffs, b.coeffs))

    def inverse(self):
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.conductor)]
        r0, r1 = _ref_trim(list(self.coeffs)), phi
        s0, s1 = [Fraction(1)], []
        while r1:
            q, r = _ref_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _ref_add(s0, [-c for c in _ref_mul(q, s1)])
        assert len(r0) == 1
        return _RefCyc(self.conductor, [c / r0[0] for c in s0])

    def conj(self):
        n = self.conductor
        big = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            big[(n - i) % n] += c
        return _RefCyc(n, big)

    def is_zero(self):
        return not any(self.coeffs)

    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def __eq__(self, other):
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def __repr__(self):
        if self.is_rational():
            return f"Cyc({self.coeffs[0]})"
        return f"Cyc{self.conductor}[{', '.join(str(c) for c in self.coeffs)}]"


def _same(x, ref):
    assert x.conductor == ref.conductor
    # lowest terms over a positive denominator
    assert x.den > 0 and math.gcd(x.den, *x.num) == 1
    assert x.coeffs == ref.coeffs
    assert repr(x) == repr(ref)
    assert x.is_zero() == ref.is_zero() and x.is_rational() == ref.is_rational()
    if ref.is_rational():
        assert x.rational_value() == ref.coeffs[0]
    else:
        with pytest.raises(ValueError):
            x.rational_value()


def _random_rational(rng):
    if rng.random() < 0.3:
        return 0
    if rng.random() < 0.4:
        return rng.randint(-9, 9)
    return Fraction(rng.randint(-40, 40), rng.randint(1, 12))


def test_integer_cyclotomic_matches_fraction_reference():
    rng = random.Random("cyclotomic-reference")
    # a prime (7), prime powers (8, 9, 16) and conductors whose unit group
    # is not cyclic (8, 12, 15, 16, 21, 24) for the Galois-norm inverse
    conductors = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 21, 24)
    pairs = []
    for n in conductors:
        deg = len(cyclotomic_polynomial(n)) - 1
        for _ in range(6):
            # reduced inputs, inputs longer than phi(N) up to degree 2N, and
            # a rational at the conductor (only the constant term set)
            length = rng.choice((deg, deg, rng.randint(deg + 1, 2 * n + 1)))
            coeffs = [_random_rational(rng) for _ in range(length)]
            if rng.random() < 0.15:
                coeffs = [coeffs[0]] + [0] * (length - 1)
            x, ref = Cyclotomic(n, coeffs), _RefCyc(n, coeffs)
            _same(x, ref)
            pairs.append((x, ref))
        q = _random_rational(rng)
        pairs.append((Cyclotomic.from_rational(q), _RefCyc(1, [q])))
    for x, ref in pairs:
        _same(-x, -ref)
        _same(x.conj(), ref.conj())
        if not ref.is_zero():
            _same(x.inverse(), ref.inverse())
        for m in conductors:
            if m % x.conductor == 0:
                _same(x.promote(m), ref.promote(m))
                coeffs = ref.promote(m).coeffs
                den = math.lcm(1, *(c.denominator for c in coeffs))
                assert x.key_at(m) == (tuple(int(c * den) for c in coeffs), den)
    for _ in range(400):
        (x, xr), (y, yr) = rng.choice(pairs), rng.choice(pairs)
        _same(x + y, xr + yr)
        _same(x - y, xr - yr)
        _same(x * y, xr * yr)
        assert (x == y) == (xr == yr)
        assert len(x.coeffs) == len(cyclotomic_polynomial(x.conductor)) - 1
        assert Cyclotomic(x.conductor, x.coeffs) == x
        if rng.random() < 0.2:
            # the same value entered at a multiple conductor is equal
            assert x == x.promote(x.conductor * rng.choice((2, 3, 4)))
