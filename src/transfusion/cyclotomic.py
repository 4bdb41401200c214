"""Exact arithmetic in the cyclotomic fields Q(zeta_N).

An element is a polynomial in zeta_N, reduced modulo the N-th cyclotomic
polynomial and stored as integer numerators over one denominator; since
that polynomial is monic, reduction and the field operations are integer
arithmetic. Fraction appears only at the edges: the constructor's
coefficients, `from_rational`, `coeffs` and the value of a rational that
is not an integer. Roots of unity are integer exponents over a modulus:
`root(e, m)` is zeta_m^e.
Binary operations promote both sides to the lcm conductor. This is enough
field theory for unit-circle phases, characters, and the small exact linear
algebra the fusion checks need.

Bundle maps are monomial matrices of roots of unity and live in
MonomialMatrix: a permutation plus integer exponents mod N, so composing,
scaling and comparing them is integer arithmetic. The fusion product
writes each of its maps' permutation and exponents directly, at one
modulus. Dense tuples of Cyclotomic rows are kept for linear algebra only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Dict, List, Sequence, Tuple, Union

Rat = Union[int, Fraction]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> Tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, low degree
    first. Computed by dividing x^n - 1 by the proper-divisor factors; each
    is monic, so the long division stays in the integers."""
    if n < 1:
        raise ValueError("conductor must be positive")
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            phi_d = cyclotomic_polynomial(d)
            deg = len(phi_d) - 1
            quo = [0] * (len(num) - deg)
            for i in range(len(quo) - 1, -1, -1):
                c = quo[i] = num[i + deg]
                if c:
                    for j, e in enumerate(phi_d):
                        num[i + j] -= c * e
            if any(num):
                raise ArithmeticError(f"cyclotomic division left remainder at {d}")
            num = quo
    return tuple(num)


@lru_cache(maxsize=None)
def _phi_terms(n: int) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
    """phi(n) and the nonzero (degree, coefficient) terms of the monic n-th
    cyclotomic polynomial below its leading term."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    return deg, tuple((j, c) for j, c in enumerate(phi[:deg]) if c)


def _reduce_ints(poly: Sequence[int], n: int) -> List[int]:
    """Remainder of an integer polynomial modulo the n-th cyclotomic
    polynomial, padded to phi(n) coefficients. The divisor is monic, so
    the division stays in the integers."""
    deg, terms = _phi_terms(n)
    rem = list(poly)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            base = i - deg
            for j, d in terms:
                rem[base + j] -= c * d
    del rem[deg:]
    rem.extend([0] * (deg - len(rem)))
    return rem


def _common_denominator(coeffs: Sequence[Rat]) -> Tuple[List[int], int]:
    """Integer numerators over one positive denominator."""
    fr = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
    den = lcm(1, *(c.denominator for c in fr))
    return [c.numerator * (den // c.denominator) for c in fr], den


class Cyclotomic:
    """An element of Q(zeta_N) in the power basis 1, zeta, ..., zeta^(phi(N)-1).

    Stored as phi(N) integer numerators over one positive denominator, in
    lowest terms, so equal values at one conductor have equal fields.
    """

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, coeffs: Sequence[Rat]):
        num, den = _common_denominator(coeffs)
        self._set(conductor, _reduce_ints(num, conductor), den)

    def _set(self, conductor: int, num: Sequence[int], den: int) -> None:
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = [x // g for x in num]
                den //= g
        self.conductor = conductor
        self.num = tuple(num)
        self.den = den

    @staticmethod
    def _make(conductor: int, num: Sequence[int], den: int) -> "Cyclotomic":
        """From reduced numerators over a positive denominator."""
        out = object.__new__(Cyclotomic)
        out._set(conductor, num, den)
        return out

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.num)

    @staticmethod
    def from_rational(x: Rat) -> "Cyclotomic":
        if not isinstance(x, (int, Fraction)):
            x = Fraction(x)
        return Cyclotomic._make(1, (x.numerator,), x.denominator)

    def promote(self, m: int) -> "Cyclotomic":
        n = self.conductor
        if m == n:
            return self
        if m % n != 0:
            raise ValueError(f"cannot promote conductor {n} into {m}")
        step = m // n
        big = [0] * ((len(self.num) - 1) * step + 1)
        for i, c in enumerate(self.num):
            big[i * step] = c
        return Cyclotomic._make(m, _reduce_ints(big, m), self.den)

    def _pair(self, other: "Cyclotomic") -> Tuple["Cyclotomic", "Cyclotomic"]:
        if self.conductor == other.conductor:
            return self, other
        m = lcm(self.conductor, other.conductor)
        return self.promote(m), other.promote(m)

    @staticmethod
    def _coerce(x) -> "Cyclotomic":
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclotomic.from_rational(x)
        return NotImplemented

    def __add__(self, other):
        o = Cyclotomic._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self._pair(o)
        da, db = a.den, b.den
        if da == db:
            return Cyclotomic._make(a.conductor, [x + y for x, y in zip(a.num, b.num)], da)
        return Cyclotomic._make(
            a.conductor, [x * db + y * da for x, y in zip(a.num, b.num)], da * db
        )

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._make(self.conductor, [-x for x in self.num], self.den)

    def __sub__(self, other):
        o = Cyclotomic._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = Cyclotomic._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.conductor == 1:
            c = o.num[0]
            return Cyclotomic._make(self.conductor, [x * c for x in self.num], self.den * o.den)
        if self.conductor == 1:
            c = self.num[0]
            return Cyclotomic._make(o.conductor, [x * c for x in o.num], self.den * o.den)
        a, b = self._pair(o)
        out = [0] * (len(a.num) + len(b.num) - 1)
        for i, x in enumerate(a.num):
            if x:
                for j, y in enumerate(b.num):
                    out[i + j] += x * y
        m = a.conductor
        return Cyclotomic._make(m, _reduce_ints(out, m), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """rest / norm, where rest is the product of the Galois conjugates
        zeta -> zeta^k over the units k != 1 mod N, so norm = self * rest
        is a nonzero rational."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic")
        n = self.conductor
        rest = Cyclotomic(n, (1,))
        for k in range(2, n):
            if gcd(k, n) == 1:
                rest = rest * self._galois(k)
        norm = self * rest
        if not norm.is_rational():
            raise ArithmeticError("norm of a cyclotomic number not rational")
        c = norm.num[0]
        sign = 1 if c > 0 else -1
        return Cyclotomic._make(n, [x * norm.den * sign for x in rest.num], rest.den * abs(c))

    def _galois(self, k: int) -> "Cyclotomic":
        """The Galois conjugate zeta -> zeta^k, for k prime to N."""
        n = self.conductor
        big = [0] * n
        for i, c in enumerate(self.num):
            big[i * k % n] += c
        return Cyclotomic._make(n, _reduce_ints(big, n), self.den)

    def conj(self) -> "Cyclotomic":
        """Complex conjugation, zeta -> zeta^(N-1)."""
        return self._galois(-1)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Rat:
        """The value of a rational element: an int when it is integral,
        else a Fraction."""
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        if self.den == 1:
            return self.num[0]
        return Fraction(self.num[0], self.den)

    def __eq__(self, other):
        o = Cyclotomic._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self._pair(o)
        return a.den == b.den and a.num == b.num

    # no __hash__: equal values can live at different conductors, so dict
    # keys go through key_at with a batch-wide conductor instead
    __hash__ = None

    def key_at(self, m: int) -> Tuple[Tuple[int, ...], int]:
        """Numerators and denominator at conductor m, for dict keys across a
        batch; they are in lowest terms, so equal values give equal keys."""
        x = self.promote(m)
        return x.num, x.den

    def __repr__(self):
        if self.is_rational():
            return f"Cyc({self.coeffs[0]})"
        terms = ", ".join(str(c) for c in self.coeffs)
        return f"Cyc{self.conductor}[{terms}]"


@lru_cache(maxsize=8192)
def root(e: int, m: int) -> Cyclotomic:
    """zeta_m^e, exp(2 pi i e/m), at the conductor of its order,
    m / gcd(e, m)."""
    g = gcd(e, m)
    e, m = e // g % (m // g), m // g
    big = [0] * m
    big[e] = 1
    return Cyclotomic(m, big)


# matrix helpers; a matrix is a tuple of row tuples of Cyclotomic


def as_cyclotomic(x) -> Cyclotomic:
    c = Cyclotomic._coerce(x)
    if c is NotImplemented:
        raise TypeError(f"cannot interpret {x!r} as a cyclotomic number")
    return c


def matrix(rows) -> Tuple[Tuple[Cyclotomic, ...], ...]:
    return tuple(tuple(as_cyclotomic(x) for x in row) for row in rows)


def mat_mul(a, b):
    """Dense product of cyclotomic matrices; only products of two nonzero
    entries are formed."""
    if not a or not b:
        return ()
    inner = len(b)
    assert all(len(row) == inner for row in a)
    cols = [
        [(k, b[k][j]) for k in range(inner) if not b[k][j].is_zero()]
        for j in range(len(b[0]))
    ]
    out = []
    for row in a:
        new = []
        for col in cols:
            acc = Cyclotomic.from_rational(0)
            for k, y in col:
                x = row[k]
                if not x.is_zero():
                    acc = acc + x * y
            new.append(acc)
        out.append(tuple(new))
    return tuple(out)


def mat_trace(a) -> Cyclotomic:
    acc = Cyclotomic.from_rational(0)
    for i, row in enumerate(a):
        acc = acc + row[i]
    return acc


@lru_cache(maxsize=64)
def _root_exponents(m: int) -> Dict[Tuple[Tuple[int, ...], int], int]:
    """The key at conductor m of zeta_m^k, mapped to k."""
    return {root(k, m).key_at(m): k for k in range(m)}


class MonomialMatrix:
    """A square matrix with one root of unity in each row and column.

    Row i holds zeta_N^exps[i] in column perm[i], where N is the modulus.
    Matrices act on row vectors, so a @ b is "a then b". Two matrices with
    different moduli meet at the lcm of the two, as cyclotomic numbers
    meet at the lcm of their conductors.
    """

    __slots__ = ("perm", "exps", "modulus")

    def __init__(self, perm: Sequence[int], exps: Sequence[int], modulus: int):
        perm = tuple(perm)
        if sorted(perm) != list(range(len(perm))):
            raise ValueError(f"{perm} is not a permutation")
        if len(exps) != len(perm) or modulus < 1:
            raise ValueError("need one exponent per row and a positive modulus")
        self.perm = perm
        self.exps = tuple(e % modulus for e in exps)
        self.modulus = modulus

    @staticmethod
    def _derived(
        perm: Tuple[int, ...], exps: Sequence[int], modulus: int
    ) -> "MonomialMatrix":
        """Result of an operation on valid matrices: perm is a permutation
        by construction, so only the exponents are reduced."""
        out = object.__new__(MonomialMatrix)
        out.perm = perm
        out.exps = tuple(e % modulus for e in exps)
        out.modulus = modulus
        return out

    @staticmethod
    def identity(n: int) -> "MonomialMatrix":
        return MonomialMatrix(range(n), (0,) * n, 1)

    @staticmethod
    def from_dense(rows) -> "MonomialMatrix":
        """The monomial form of a dense square matrix; ValueError unless each
        row and column has exactly one nonzero entry and it is a root of
        unity."""
        rows = matrix(rows)
        n = len(rows)
        perm = []
        roots = []
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected {n}")
            cols = [j for j, x in enumerate(row) if not x.is_zero()]
            if len(cols) != 1:
                raise ValueError(f"row {i} has {len(cols)} nonzero entries")
            x = row[cols[0]]
            m = x.conductor if x.conductor % 2 == 0 else 2 * x.conductor
            k = _root_exponents(m).get(x.key_at(m))
            if k is None:
                raise ValueError(f"entry {x!r} in row {i} is not a root of unity")
            perm.append(cols[0])
            g = gcd(k, m)
            roots.append((k // g, m // g))
        if len(set(perm)) != n:
            raise ValueError("two rows have their nonzero entry in the same column")
        # zeta_r^k at the lcm of the rows' root orders r
        modulus = lcm(1, *(r for _, r in roots))
        return MonomialMatrix(perm, [k * (modulus // r) for k, r in roots], modulus)

    def __len__(self) -> int:
        return len(self.perm)

    def exps_at(self, m: int) -> Tuple[int, ...]:
        """Exponents over the modulus m, a multiple of this one."""
        if m == self.modulus:
            return self.exps
        if m % self.modulus:
            raise ValueError(f"cannot lift modulus {self.modulus} into {m}")
        step = m // self.modulus
        return tuple(e * step for e in self.exps)

    def __matmul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        if len(self) != len(other):
            raise ValueError("monomial matrices of different sizes")
        m = lcm(self.modulus, other.modulus)
        ea, eb = self.exps_at(m), other.exps_at(m)
        pb = other.perm
        return MonomialMatrix._derived(
            tuple(pb[p] for p in self.perm),
            [e + eb[p] for e, p in zip(ea, self.perm)],
            m,
        )

    def scale(self, e: int, m: int) -> "MonomialMatrix":
        """This matrix times zeta_m^e. The root is taken at its order, so the
        result's modulus is the lcm of this one and m / gcd(e, m)."""
        g = gcd(e, m)
        r = m // g
        n = lcm(self.modulus, r)
        shift = e // g * (n // r)
        return MonomialMatrix._derived(self.perm, [x + shift for x in self.exps_at(n)], n)

    def __eq__(self, other):
        if not isinstance(other, MonomialMatrix):
            return NotImplemented
        if self.perm != other.perm:
            return False
        m = lcm(self.modulus, other.modulus)
        return self.exps_at(m) == other.exps_at(m)

    __hash__ = None

    def trace(self) -> Cyclotomic:
        """Sum of the diagonal, from a count vector over Z/N."""
        m = self.modulus
        counts = [0] * m
        for i, (p, e) in enumerate(zip(self.perm, self.exps)):
            if p == i:
                counts[e] += 1
        out = Cyclotomic._make(m, _reduce_ints(counts, m), 1)
        return Cyclotomic._make(1, out.num[:1], 1) if out.is_rational() else out

    def dense(self) -> Tuple[Tuple[Cyclotomic, ...], ...]:
        zero = Cyclotomic.from_rational(0)
        n = len(self)
        rows = []
        for p, e in zip(self.perm, self.exps):
            row = [zero] * n
            row[p] = root(e, self.modulus)
            rows.append(tuple(row))
        return tuple(rows)

    def __repr__(self):
        return f"MonomialMatrix(perm={self.perm}, exps={self.exps}, modulus={self.modulus})"


def row_reduce(rows: Sequence[Sequence[Cyclotomic]]):
    """Gaussian elimination over the cyclotomic field.

    Returns (reduced rows as lists, pivot column list)."""
    mat_ = [list(r) for r in rows]
    pivots: List[int] = []
    if not mat_:
        return [], pivots
    ncols = len(mat_[0])
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat_)):
            if not mat_[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        mat_[r], mat_[pivot] = mat_[pivot], mat_[r]
        inv = mat_[r][c].inverse()
        mat_[r] = [inv * x for x in mat_[r]]
        for i in range(len(mat_)):
            if i != r and not mat_[i][c].is_zero():
                f = mat_[i][c]
                mat_[i] = [x - f * y for x, y in zip(mat_[i], mat_[r])]
        pivots.append(c)
        r += 1
        if r == len(mat_):
            break
    return mat_, pivots


def matrix_rank(rows) -> int:
    _, pivots = row_reduce(matrix(rows))
    return len(pivots)
