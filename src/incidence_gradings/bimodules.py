"""Graded bimodule classes between group-algebra blocks.

A graded (F H1, F H2)-bimodule is classified up to graded isomorphism by a
list of pairs (chi, g): chi a character of H1 /\\ H2, g a degree in the
ambient group determined only up to the double coset g + (H1 + H2).
Degrees are therefore stored as the lexicographically least element of
that coset, which turns class equality into plain tuple comparison.

The two-step product: a character chi of H1 /\\ H3 belongs to the product
class exactly when its restriction to H1 /\\ H2 /\\ H3 factors as the
product of restrictions of one character from each factor, and then its
degree is forced to be the sum of the factor degrees.  This module holds
the one implementation of that rule, `_compose` then `_merge_state`, on
integer rows: a (character, degree) pair is the row (character exponents,
degree coordinates).  `_compose` looks each pair of factor rows up in a
`_ProductRule` memo, which fills a miss through restrict, * and
extension_fiber, and adds the degree coordinates; `_merge_state` compares
degrees by their Hermite remainders against the reducer's rows
(`Subgroup.coset_key`).  The chain derivation and the triple check in
`datum` run the rule on raw degrees with one memo per validation, and
`realize` reads the relation of the realized poset off its fibers tables.
`bimodule_product` converts its pairs to rows, runs the same two steps
and converts the result back; `_class_of_rows` is the one way back from
rows to a class.
"""

from __future__ import annotations

from .abelian import _coordinate_sum, _element, intersect, subgroup_sum
from .characters import _character, extension_fiber, restrict
from .errors import (
    AmbientMismatch,
    BlockMismatch,
    ChainMismatch,
    DegreeConflict,
    DomainMismatch,
    InfiniteSubgroup,
)


class BimoduleClass:
    """A graded (F*left, F*right)-bimodule up to graded isomorphism.

    `pairs` may repeat characters (such classes are iso-testable but never
    realizable inside an incidence algebra); the empty list is the zero
    bimodule.
    """

    __slots__ = ("left", "right", "pairs", "middle")

    def __init__(self, left, right, pairs):
        if left.ambient != right.ambient:
            raise AmbientMismatch("blocks over different ambient groups")
        if not (left.is_finite and right.is_finite):
            raise InfiniteSubgroup("bimodule blocks must be finite subgroups")
        middle = intersect(left, right)
        coset = subgroup_sum(left, right)
        canonical = []
        for chi, g in pairs:
            if chi.domain != middle:
                raise DomainMismatch(
                    "character domain must be the intersection of the blocks")
            if g.group != left.ambient:
                raise AmbientMismatch("degree outside the ambient group")
            canonical.append((chi, coset.least_coset_coords(g)))
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "middle", middle)
        object.__setattr__(self, "pairs", tuple(canonical))

    def __setattr__(self, name, value):
        raise AttributeError("BimoduleClass is immutable")

    def __reduce__(self):
        return BimoduleClass, (self.left, self.right, self.pairs)

    def is_zero(self):
        return not self.pairs

    def characters(self):
        return [chi for chi, _ in self.pairs]

    def sorted_key(self):
        """Order-free canonical form: the sorted (exponents, degree) multiset.

        The middle subgroup fixes each value's denominator, so exponent
        order is value order."""
        return tuple(sorted((chi.exps, g.coords) for chi, g in self.pairs))

    def __eq__(self, other):
        if not isinstance(other, BimoduleClass):
            return NotImplemented
        return (self.left == other.left and self.right == other.right
                and self.sorted_key() == other.sorted_key())

    def __hash__(self):
        return hash((self.left, self.right, self.sorted_key()))

    def __repr__(self):
        inner = ", ".join(f"({chi!r}, {g.coords})" for chi, g in self.pairs)
        return f"BimoduleClass[{inner}]"


def _canonical_class(left, right, middle, pairs):
    """A BimoduleClass from pairs already in canonical form: characters on
    middle = left /\\ right, degrees least in their coset of left + right."""
    m = object.__new__(BimoduleClass)
    for name, value in (("left", left), ("right", right), ("middle", middle),
                        ("pairs", pairs)):
        object.__setattr__(m, name, value)
    return m


def realizable(m):
    """Whether the class embeds in the regular module: characters must be
    pairwise distinct (each character occurs once in F[H1 /\\ H2])."""
    chars = m.characters()
    return len(set(chars)) == len(chars)


def bimodule_iso(m, n):
    """Graded-isomorphism test; returns (flag, witness permutation).

    Classes are isomorphic when some permutation matches characters
    exactly and degrees up to the (left, right) double coset.  Degrees are
    already coset-canonical, so matching is multiset matching on
    (character, canonical degree) keys.  The witness sigma maps positions
    of m.pairs to positions of n.pairs.
    """
    if m.left != n.left or m.right != n.right:
        raise BlockMismatch("bimodule classes over different block pairs")
    if len(m.pairs) != len(n.pairs):
        return False, None
    buckets = {}
    for j, (chi, g) in enumerate(n.pairs):
        buckets.setdefault((chi.exps, g.coords), []).append(j)
    sigma = []
    for chi, g in m.pairs:
        slot = buckets.get((chi.exps, g.coords))
        if not slot:
            return False, None
        sigma.append(slot.pop())
    return True, tuple(sigma)


def twist(m, mu_left, mu_right):
    """The class with every character multiplied by the restrictions of
    (mu_left, mu_right) to the middle subgroup; degrees are unchanged."""
    if mu_left.domain != m.left or mu_right.domain != m.right:
        raise DomainMismatch("twist characters must live on the blocks")
    return _twist_by(m, restrict(mu_left, m.middle) * restrict(mu_right, m.middle))


def _twist_by(m, factor):
    """The class with every character multiplied by `factor`, a character
    of m.middle.

    The result skips the constructor's checks and coset reduction: its
    blocks are m's, so m's degrees are still least coset representatives
    and the twisted characters still live on m.middle.  Reducing them
    again would return them unchanged."""
    return _canonical_class(m.left, m.right, m.middle,
                            tuple((factor * chi, g) for chi, g in m.pairs))


def _rows(pairs):
    """(character, degree) pairs as (exponents, coordinates) rows."""
    return tuple((chi.exps, g.coords) for chi, g in pairs)


def _class_of_rows(left, right, rows):
    """The class over (left, right) of (exponents, coordinates) rows, the
    characters on left /\\ right."""
    middle = intersect(left, right)
    return BimoduleClass(left, right, [
        (_character(middle, exps), _element(left.ambient, coords))
        for exps, coords in rows])


class _Fibers(dict):
    """(exps_a, exps_b) -> the exponents of every extension to `out` of
    the product of the restrictions to `mid` of the characters exps_a on
    `left` and exps_b on `right`, in extension_fiber order.  A miss is
    filled through restrict, * and extension_fiber."""

    __slots__ = ("left", "right", "mid", "out")

    def __init__(self, left, right, mid, out):
        super().__init__()
        self.left, self.right, self.mid, self.out = left, right, mid, out

    def __missing__(self, key):
        exps_a, exps_b = key
        product = (restrict(_character(self.left, exps_a), self.mid)
                   * restrict(_character(self.right, exps_b), self.mid))
        fiber = self[key] = tuple(eta.exps for eta in
                                  extension_fiber(product, self.out))
        return fiber


class _ProductRule:
    """The two-step rule on rows over one ambient group, memoised.

    `fibers(left, right, mid, out)` is the one _Fibers table per (left
    domain, right domain, middle, output); `add` sums two degree
    coordinate tuples, torsion coordinates reduced and free ones not.
    """

    __slots__ = ("tables", "add")

    def __init__(self, ambient):
        self.tables = {}
        self.add = _coordinate_sum(ambient)

    def fibers(self, left, right, mid, out):
        key = (left, right, mid, out)
        table = self.tables.get(key)
        if table is None:
            table = self.tables[key] = _Fibers(*key)
        return table


def _compose(left, right, fibers, add):
    """Two-step composition of (exponents, coordinates) rows.

    Each pair of rows contributes every extension its fibers table lists,
    with the sum of the two degrees (not coset-reduced).
    """
    out = []
    for exps_a, deg_a in left:
        for exps_b, deg_b in right:
            deg = add(deg_a, deg_b)
            out += [(ext, deg) for ext in fibers[exps_a, exps_b]]
    return out


def _merge_state(entries, reducer, domain):
    """Keep each character once, with its first degree.

    Degrees are compared modulo the subgroup `reducer` by their coset
    keys, Hermite remainders against its rows.  Same character in two
    different cosets means the data cannot come from a grading: the
    character's component would need two degrees.  Only a character that
    occurs again has a degree to compare, so cosets are formed for
    repeated characters only, the first degree's once.  `domain`, where
    the characters live, only names a conflicting character.
    """
    merged = {}
    cosets = {}
    for exps, deg in entries:
        first = merged.get(exps)
        if first is None:
            merged[exps] = deg
            continue
        coset = cosets.get(exps)
        if coset is None:
            coset = cosets[exps] = reducer.coset_key(first)
        if reducer.coset_key(deg) != coset:
            raise DegreeConflict(
                f"character {_character(domain, exps)!r} forced into two "
                f"distinct degree cosets")
    return tuple(merged.items())


def bimodule_product(m12, m23):
    """Product class over (H1, H3) of classes over (H1, H2) and (H2, H3).

    Output characters are all extensions to H1 /\\ H3 of the products of
    restricted factor characters on H1 /\\ H2 /\\ H3; each comes with
    degree = sum of the factor degrees.  A character reachable from two
    factor pairs whose degree sums land in different double cosets is a
    data error, reported as DegreeConflict.
    """
    if m12.right != m23.left:
        raise ChainMismatch("middle blocks differ")
    h1, h3 = m12.left, m23.right
    h13 = intersect(h1, h3)
    rule = _ProductRule(h1.ambient)
    rows = _merge_state(
        _compose(_rows(m12.pairs), _rows(m23.pairs),
                 rule.fibers(m12.middle, m23.middle,
                             intersect(h13, m12.right), h13), rule.add),
        subgroup_sum(h1, h3), h13)
    return _class_of_rows(h1, h3, sorted(rows))
