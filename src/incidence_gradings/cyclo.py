"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Numbers are stored in the power basis 1, zeta, ..., zeta^(phi(N)-1) modulo
the N-th cyclotomic polynomial, as an integer coefficient vector over a
common positive denominator.  Working modulo Phi_N (not x^N - 1) keeps the
representation a genuine field, which the linear-independence checks in
the oracle rely on.  Mixed conductors are aligned lazily to the lcm.

No multiplicative inverse is provided: nothing in the constructions needs
division, and the oracle's linear algebra works coordinate-wise over the
rationals instead.

Phi_n, the power and embedding tables and the roots of unity are memoized
in `functools.lru_cache`s bounded at several times the working sets of
the tests and the benchmark; cached numbers are immutable and equality
never compares identity, so eviction only costs a recomputation.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

_FIELD_MEMO_SIZE = 64  # conductors, or pairs for embeddings; up to 20
_ROOT_MEMO_SIZE = 256  # distinct roots of unity; working sets up to 40


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_divexact(num, den):
    """Exact division of integer polynomials (ascending coefficients)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        lead = num[k + len(den) - 1]
        q, r = divmod(lead, den[-1])
        assert r == 0, "inexact polynomial division"
        out[k] = q
        if q:
            for j, d in enumerate(den):
                num[k + j] -= q * d
    assert not any(num), "inexact polynomial division"
    return out


@functools.lru_cache(maxsize=_FIELD_MEMO_SIZE)
def cyclotomic_polynomial(n):
    """Coefficients of Phi_n, ascending degree, computed by dividing
    x^n - 1 by the lower-order cyclotomic polynomials."""
    if n < 1:
        raise ValueError("conductor must be positive")
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    return tuple(_poly_divexact(num, den))


@functools.lru_cache(maxsize=_FIELD_MEMO_SIZE)
def _power_table(n):
    """zeta_n^k in the power basis, for k up to n + phi - 2 (enough to
    reduce any product of a basis power with a root exponent below n)."""
    poly = cyclotomic_polynomial(n)
    phi = len(poly) - 1
    table = []
    for k in range(phi):
        row = [0] * phi
        row[k] = 1
        table.append(tuple(row))
    for k in range(phi, max(2 * phi - 1, n + phi - 1)):
        prev = table[k - 1]
        row = [0] * (phi + 1)
        for i, c in enumerate(prev):
            row[i + 1] = c
        if row[phi]:
            lead = row[phi]
            # reduce zeta^phi = -(poly[0] + ... + poly[phi-1] zeta^(phi-1))
            row = [row[i] - lead * poly[i] for i in range(phi)]
        else:
            row = row[:phi]
        table.append(tuple(row))
    return tuple(table)


@functools.lru_cache(maxsize=_FIELD_MEMO_SIZE)
def _root_exponents(n):
    """The n-th roots of unity in the power basis of Q(zeta_n):
    {power-basis vector of zeta_n^e: e} for e in [0, n), and the nonzero
    (column, entry) pairs of each zeta_n^e, which reduce an element of
    Z[x]/(x^n - 1) to the power basis one exponent at a time."""
    rows = _power_table(n)[:n]
    return ({row: e for e, row in enumerate(rows)},
            tuple(tuple((q, x) for q, x in enumerate(row) if x)
                  for row in rows))


def euler_phi(n):
    return len(cyclotomic_polynomial(n)) - 1


@functools.lru_cache(maxsize=_FIELD_MEMO_SIZE)
def _embed_table(small, big):
    """Power-basis images of zeta_small^k inside Q(zeta_big)."""
    step = big // small
    table_big = _power_table(big)
    phi_small = euler_phi(small)
    return tuple(table_big[(k * step) % big] for k in range(phi_small))


def _normalize(nums, den):
    if den < 0:
        nums = tuple(-x for x in nums)
        den = -den
    g = den
    for x in nums:
        g = math.gcd(g, x)
        if g == 1:
            break
    if g > 1:
        nums = tuple(x // g for x in nums)
        den //= g
    if not any(nums):
        den = 1
    return nums, den


class CycloNumber:
    """An element of Q(zeta_conductor) in reduced power-basis form."""

    __slots__ = ("conductor", "nums", "den")

    def __init__(self, conductor, nums, den=1):
        phi = euler_phi(conductor)
        nums = tuple(int(x) for x in nums)
        if len(nums) != phi:
            raise ValueError(f"expected {phi} coefficients for conductor {conductor}")
        nums, den = _normalize(nums, int(den))
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("CycloNumber is immutable")

    @classmethod
    def _raw(cls, conductor, nums, den):
        # internal constructor: nums already ints of the right length
        nums, den = _normalize(tuple(nums), den)
        self = object.__new__(cls)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)
        return self

    @classmethod
    def from_rational(cls, q, conductor=1):
        q = Fraction(q)
        phi = euler_phi(conductor)
        nums = [0] * phi
        nums[0] = q.numerator
        return cls(conductor, nums, q.denominator)

    @property
    def coefficients(self):
        """Power-basis coordinates as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    def lift(self, conductor):
        """The same number written in Q(zeta_conductor)."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor:
            raise ValueError("target conductor must be a multiple")
        rows = _embed_table(self.conductor, conductor)
        phi = euler_phi(conductor)
        out = [0] * phi
        for c, row in zip(self.nums, rows):
            if c:
                for i, r in enumerate(row):
                    if r:
                        out[i] += c * r
        return CycloNumber._raw(conductor, out, self.den)

    def _aligned(self, other):
        if self.conductor == other.conductor:
            return self, other, self.conductor
        n = math.lcm(self.conductor, other.conductor)
        return self.lift(n), other.lift(n), n

    def __add__(self, other):
        if not isinstance(other, CycloNumber):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = CycloNumber.from_rational(other)
        a, b, n = self._aligned(other)
        den = a.den * b.den
        nums = [x * b.den + y * a.den for x, y in zip(a.nums, b.nums)]
        return CycloNumber._raw(n, nums, den)

    __radd__ = __add__

    def __neg__(self):
        return CycloNumber._raw(self.conductor,
                                tuple(-x for x in self.nums), self.den)

    def __sub__(self, other):
        return self + (-other if isinstance(other, CycloNumber)
                       else CycloNumber.from_rational(-Fraction(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        # CycloNumber is tested first: the Fraction test is an ABC instance
        # check, slow in the oracle's loops where both operands are numbers
        if not isinstance(other, CycloNumber):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            q = Fraction(other)
            return CycloNumber._raw(self.conductor,
                                    tuple(q.numerator * x for x in self.nums),
                                    self.den * q.denominator)
        a, b, n = self._aligned(other)
        table = _power_table(n)
        phi = len(a.nums)
        conv = [0] * (2 * phi - 1)
        for i, x in enumerate(a.nums):
            if x:
                for j, y in enumerate(b.nums):
                    if y:
                        conv[i + j] += x * y
        out = list(conv[:phi])
        for k in range(phi, 2 * phi - 1):
            c = conv[k]
            if c:
                row = table[k]
                for i, r in enumerate(row):
                    if r:
                        out[i] += c * r
        return CycloNumber._raw(n, out, a.den * b.den)

    __rmul__ = __mul__

    def is_zero(self):
        return not any(self.nums)

    def __eq__(self, other):
        if not isinstance(other, CycloNumber):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = CycloNumber.from_rational(other)
        a, b, _ = self._aligned(other)
        return a.nums == b.nums and a.den == b.den

    __hash__ = None

    def __repr__(self):
        terms = " + ".join(f"({Fraction(x, self.den)})z^{i}"
                           for i, x in enumerate(self.nums) if x)
        return f"Cyclo[{self.conductor}]({terms or '0'})"


def root_of_unity(q):
    """zeta_b^a for a reduced rational q = a/b in [0, 1).

    A group homomorphism from Q/Z into the multiplicative group:
    root_of_unity(q1) * root_of_unity(q2) == root_of_unity((q1+q2) % 1).
    """
    q = Fraction(q) % 1
    return _root(q.numerator, q.denominator)


@functools.lru_cache(maxsize=_ROOT_MEMO_SIZE)
def _root(a, b):
    return CycloNumber(b, _power_table(b)[a] if b > 1 else (1,))


def cyclo_zero(conductor=1):
    return CycloNumber.from_rational(0, conductor)


def cyclo_one(conductor=1):
    return CycloNumber.from_rational(1, conductor)
