"""Characters of finite abelian subgroups, valued in the rationals mod 1.

A character chi: H -> Q/Z is stored by its values on the invariant-factor
generators of H; the multiplicative character of the base field is
exp(2*pi*i*chi(-)), realized exactly by cyclo.root_of_unity.  Keeping the
values additive-rational makes products, inverses, restrictions and
comparisons pure Fraction arithmetic.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .abelian import Subgroup, check_enumeration_budget
from .errors import DomainMismatch, InfiniteSubgroup, NotASubgroup


class Character:
    """A homomorphism from a finite subgroup into Q/Z."""

    __slots__ = ("domain", "values")

    def __init__(self, domain: Subgroup, values):
        if not domain.is_finite:
            raise InfiniteSubgroup("characters are defined on finite subgroups")
        values = tuple(Fraction(v) for v in values)
        orders = domain.structure
        if len(values) != len(orders):
            raise DomainMismatch(
                f"expected {len(orders)} values, got {len(values)}")
        for q, d in zip(values, orders):
            if not (0 <= q < 1) or (q * d).denominator != 1:
                raise DomainMismatch(f"value {q} invalid for a generator of order {d}")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("Character is immutable")

    def __call__(self, g):
        """chi(g) in [0, 1); g must lie in the domain."""
        coords = self.domain.generator_coords(g)
        if coords is None:
            raise NotASubgroup("element outside the character's domain")
        total = Fraction(0)
        idx = 0
        for c, order in zip(coords, self.domain._gen_orders):
            if order > 1:
                total += c * self.values[idx]
                idx += 1
        return total % 1

    def is_trivial(self):
        return not any(self.values)

    def __mul__(self, other):
        if not isinstance(other, Character):
            return NotImplemented
        if self.domain != other.domain:
            raise DomainMismatch("characters on different domains")
        return Character(self.domain,
                         tuple((a + b) % 1 for a, b in zip(self.values, other.values)))

    def inverse(self):
        return Character(self.domain, tuple((-v) % 1 for v in self.values))

    def order(self):
        """Order in the dual group: lcm of the value denominators."""
        n = 1
        for v in self.values:
            n = math.lcm(n, v.denominator)
        return n

    def __eq__(self, other):
        if not isinstance(other, Character):
            return NotImplemented
        return self.domain == other.domain and self.values == other.values

    def __hash__(self):
        return hash((self.domain, self.values))

    def __repr__(self):
        return f"Character({', '.join(str(v) for v in self.values)})"


def trivial_character(domain):
    return Character(domain, (Fraction(0),) * len(domain.structure))


def dual_group(h):
    """All characters of a finite subgroup h.

    Deterministic order: lexicographic on value tuples, so the trivial
    character always comes first; the list has exactly |h| entries.
    """
    if not h.is_finite:
        raise InfiniteSubgroup("dual group requires a finite subgroup")
    check_enumeration_budget(h.order, "dual group")
    if h._dual is None:
        ranges = [[Fraction(a, d) for a in range(d)] for d in h.structure]
        h._dual = tuple(Character(h, values)
                        for values in itertools.product(*ranges))
    return list(h._dual)


def _check_contained(k, h):
    for g in k.generators:
        if g not in h:
            raise NotASubgroup("claimed containment K <= H fails")


def restrict(chi, k):
    """Restriction of chi to a subgroup k of its domain."""
    h = chi.domain
    if k == h:
        return chi
    key = (chi.values, k)
    cached = h._restrict_cache.get(key)
    if cached is not None:
        return cached
    _check_contained(k, h)
    values = tuple(chi(g) for g in k.torsion_generators)
    result = Character(k, values)
    h._restrict_cache[key] = result
    return result


def extension_fiber(chi, h):
    """All characters of h restricting to chi on chi.domain.

    The fiber is a translate of the kernel of the restriction map, so it
    has exactly |h| / |domain| entries.
    """
    _check_contained(chi.domain, h)
    return [eta for eta in dual_group(h) if restrict(eta, chi.domain) == chi]

