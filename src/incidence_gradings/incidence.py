"""The incidence algebra I(X) of a finite poset, over a cyclotomic field.

Elements are sparse maps from comparable pairs (x, y) to CycloNumber
coefficients; the product is the usual convolution
(f*g)(x, y) = sum over z of f(x, z) g(z, y).
`IncidenceElement.from_roots` writes an element as one root of unity per
pair, {pair: exponent} in one field Q(zeta_N), and checks nothing; its
coefficients are formed only when `coeffs` is read.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import CycloNumber, _power_table
from .errors import PosetMismatch


class IncidenceElement:
    """A sparse element of I(X); support pairs always satisfy x <= y."""

    __slots__ = ("poset", "coeffs")

    def __init__(self, poset, coeffs):
        clean = {}
        for (x, y), c in coeffs.items():
            if not poset.leq(x, y):
                raise ValueError(f"support pair ({x!r}, {y!r}) is not comparable")
            if not isinstance(c, CycloNumber):
                c = CycloNumber.from_rational(Fraction(c))
            if not c.is_zero():
                clean[(x, y)] = c
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def from_roots(cls, poset, conductor, roots):
        """zeta_N^e at each pair of the {pair: e} map roots, N = conductor,
        as a `RootElement`.  Nothing is checked: the caller writes only
        comparable pairs, and the oracle re-checks them."""
        self = object.__new__(RootElement)
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "_coeffs", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("IncidenceElement is immutable")

    def is_zero(self):
        return not self.coeffs

    def _check(self, other):
        if self.poset is not other.poset and self.poset != other.poset:
            raise PosetMismatch("incidence elements over different posets")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            if key in out:
                s = out[key] + c
                if s.is_zero():
                    del out[key]
                else:
                    out[key] = s
            else:
                out[key] = c
        return IncidenceElement(self.poset, out)

    def __neg__(self):
        return IncidenceElement(self.poset,
                                {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        """Multiply every coefficient by a rational or cyclotomic scalar."""
        return IncidenceElement(self.poset,
                                {k: c * scalar for k, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloNumber)):
            return self.scale(other)
        self._check(other)
        by_first = {}  # the right factor by the first vertex of each pair
        for (z, y), b in other.coeffs.items():
            by_first.setdefault(z, []).append((y, b))
        out = {}
        for (x, z), a in self.coeffs.items():
            for y, b in by_first.get(z, ()):
                key = (x, y)
                prod = a * b
                acc = out.get(key)
                out[key] = prod if acc is None else acc + prod
        return IncidenceElement(self.poset, out)

    __rmul__ = scale

    def __eq__(self, other):
        if not isinstance(other, IncidenceElement):
            return NotImplemented
        if self.poset != other.poset:
            return False
        if self.coeffs.keys() != other.coeffs.keys():
            return False
        return all(other.coeffs[k] == c for k, c in self.coeffs.items())

    __hash__ = None

    def __repr__(self):
        return f"IncidenceElement({len(self.coeffs)} terms)"


class RootElement(IncidenceElement):
    """An element of `IncidenceElement.from_roots`: zeta_N^e at each pair of
    `roots`, N = `conductor`.  The oracle reads the exponents directly;
    `coeffs` are formed on first access, for JSON output and arithmetic."""

    __slots__ = ("conductor", "roots", "_coeffs")

    @property
    def coeffs(self):
        if self._coeffs is None:
            n = self.conductor
            powers = _power_table(n)
            object.__setattr__(self, "_coeffs", {
                pair: CycloNumber._raw(n, powers[e % n], 1)
                for pair, e in self.roots.items()})
        return self._coeffs
