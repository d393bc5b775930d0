"""Characters of finite abelian subgroups, valued in the rationals mod 1.

A character chi: H -> Q/Z is stored by its values on the invariant-factor
generators of H, as integer exponents: exps[i] in [0, structure[i]) stands
for the value exps[i] / structure[i].  The multiplicative character of the
base field is exp(2*pi*i*chi(-)), realized exactly by cyclo.root_of_unity.
The domain fixes every denominator, so products, inverses, orders,
restrictions and comparisons are integer arithmetic modulo the invariant
factors; the Fraction values are built only at the edges (JSON, labels,
repr) through the `values` property.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .abelian import Subgroup, check_enumeration_budget
from .errors import DomainMismatch, InfiniteSubgroup, NotASubgroup


class Character:
    """A homomorphism from a finite subgroup into Q/Z."""

    __slots__ = ("domain", "exps")

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
        object.__setattr__(self, "exps",
                           tuple(int(q * d) for q, d in zip(values, orders)))

    def __setattr__(self, name, value):
        raise AttributeError("Character is immutable")

    def __reduce__(self):
        return Character, (self.domain, self.values)

    @property
    def values(self):
        """The values on the generators, as Fractions in [0, 1)."""
        return tuple(Fraction(e, d) for e, d in zip(self.exps, self.domain.structure))

    def __call__(self, g):
        """chi(g) in [0, 1); g must lie in the domain."""
        return Fraction(*self._scaled_value(g))

    def _scaled_value(self, g):
        # (t, n) with chi(g) = t / n, n the exponent of the domain
        coords = self.domain.generator_coords(g)
        if coords is None:
            raise NotASubgroup("element outside the character's domain")
        n = self.domain.exponent()
        return sum(c * w for c, w in zip(_carried(self.domain, coords),
                                         _scaled(self, n))) % n, n

    def is_trivial(self):
        return not any(self.exps)

    def __mul__(self, other):
        if not isinstance(other, Character):
            return NotImplemented
        if self.domain != other.domain:
            raise DomainMismatch("characters on different domains")
        return _character(self.domain, tuple(
            (a + b) % d for a, b, d in
            zip(self.exps, other.exps, self.domain.structure)))

    def inverse(self):
        return _character(self.domain, tuple(
            -e % d for e, d in zip(self.exps, self.domain.structure)))

    def order(self):
        """Order in the dual group: lcm of the value denominators."""
        return math.lcm(*(d // math.gcd(e, d)
                          for e, d in zip(self.exps, self.domain.structure)))

    def __eq__(self, other):
        if not isinstance(other, Character):
            return NotImplemented
        return self.exps == other.exps and self.domain == other.domain

    def __hash__(self):
        # equal characters have equal exponents; the domain only breaks
        # ties, which __eq__ settles
        return hash(self.exps)

    def __repr__(self):
        return f"Character({', '.join(str(v) for v in self.values)})"


def _character(domain, exps):
    """A character from exponents already reduced modulo domain.structure."""
    chi = object.__new__(Character)
    object.__setattr__(chi, "domain", domain)
    object.__setattr__(chi, "exps", exps)
    return chi


def _carried(h, coords):
    # generator coordinates of order > 1, the ones a character weighs
    return [c for c, order in zip(coords, h._gen_orders) if order > 1]


def _scaled(chi, n):
    # n * chi on each generator, n a multiple of the domain's exponent
    return [e * (n // d) for e, d in zip(chi.exps, chi.domain.structure)]


def trivial_character(domain):
    return _character(domain, (0,) * len(domain.structure))


def dual_group(h):
    """All characters of a finite subgroup h.

    Deterministic order: lexicographic on value tuples, so the trivial
    character always comes first; the list has exactly |h| entries.
    """
    if not h.is_finite:
        raise InfiniteSubgroup("dual group requires a finite subgroup")
    check_enumeration_budget(h.order, "dual group")
    if h._dual is None:
        # each position has one denominator, so exponent order is value order
        h._dual = tuple(_character(h, exps) for exps in
                        itertools.product(*(range(d) for d in h.structure)))
    return list(h._dual)


def exponent_rows(h, n):
    """n * chi(g) mod n for every character chi of h and element g of h.

    One row per character in dual_group order, one entry per element in
    h.elements() order, as tuples held on h per n; n must be a multiple of
    h's exponent.  The generator coordinates of each element are found
    once, as one base row per generator: n / s_i times that generator's
    coordinate of each element, s_i its order.  A character's row is
    sum_i exps_i * base_i mod n, formed over whole rows.
    """
    rows = h._exponent_rows.get(n)
    if rows is not None:
        return rows
    coords = [_carried(h, h.generator_coords(g)) for g in h.elements()]
    bases = [[n // s * cs[i] % n for cs in coords]
             for i, s in enumerate(h.structure)]
    rows = []
    for chi in dual_group(h):
        row = [0] * len(coords)
        for e, base in zip(chi.exps, bases):
            if e:
                row = [r + e * b for r, b in zip(row, base)]
        rows.append(tuple([r % n for r in row]))
    rows = h._exponent_rows[n] = tuple(rows)
    return rows


def _check_contained(k, h):
    for g in k.generators:
        if g not in h:
            raise NotASubgroup("claimed containment K <= H fails")


def restrict(chi, k):
    """Restriction of chi to a subgroup k of its domain."""
    h = chi.domain
    if k == h:
        return chi
    key = (chi.exps, k)
    cached = h._restrict_cache.get(key)
    if cached is not None:
        return cached
    _check_contained(k, h)
    # chi(g) = t / n has order dividing the order d of g, so n | t * d
    values = (chi._scaled_value(g) for g in k.torsion_generators)
    result = _character(k, tuple(t * d // n for (t, n), d in
                                 zip(values, k.structure)))
    h._restrict_cache[key] = result
    return result


def extension_fiber(chi, h):
    """All characters of h restricting to chi on chi.domain.

    The fiber is a translate of the kernel of the restriction map, so it
    has exactly |h| / |domain| entries.  The first call for a pair
    (h, domain) checks the containment and sorts dual_group(h) by
    restriction into a table held on h; every call is then one lookup.
    """
    k = chi.domain
    table = h._fibers.get(k)
    if table is None:
        _check_contained(k, h)
        table = {}
        for eta in dual_group(h):
            table.setdefault(restrict(eta, k).exps, []).append(eta)
        h._fibers[k] = table
    return list(table[chi.exps])
