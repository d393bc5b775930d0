"""Finitely generated abelian groups in invariant-factor coordinates.

The ambient group is G = Z^free_rank x Z/d1 x ... x Z/dk with d1 | d2 |
... | dk, written additively (degree products in graded algebras become
coordinate sums here).  A subgroup is represented by the canonical Hermite
basis of its preimage lattice in Z^n, which is unique and supports infinite
ambient groups.  Reduction against that basis (`intlinalg.hnf_reduce`)
answers membership, lattice coordinates and least coset representatives
without enumerating H, and an intersection is read off one Hermite form of
stacked rows.  All arithmetic is on arbitrary-precision integers.

Canonical form means a unique object: `AbelianGroup` and `canonicalize`
return the one live group per (free_rank, torsion_factors) and the one live
subgroup per (ambient, Hermite basis), held in `weakref.WeakValueDictionary`s,
so equality is identity (the default `==` and `hash`).  A weak table holds
only what the program still references; the intersection and sum memos
apart from it are `functools.lru_cache`s bounded at several times the
working sets of the tests and the benchmark.
"""

from __future__ import annotations

import functools
import itertools
import operator
import weakref
from math import prod

from .errors import AmbientMismatch, BudgetExceeded, InfiniteSubgroup, InvalidElement
from .intlinalg import hnf_reduce, mat_mul, row_hnf, smith_normal_form

_PAIR_MEMO_SIZE = 512  # pairs for intersect and for sum; up to 110
# Largest order Subgroup.elements and dual_group list: the tests, benchmark
# and probes list at most 64, and Z/10**7 would fill memory before answering.
ENUMERATION_BUDGET = 2 ** 16
# Largest ambient rank: the tests use at most 4, and the Hermite and Smith
# forms of `canonicalize` cost the cube of the rank (800 factors: 64 s).
RANK_BUDGET = 64
_GROUPS = weakref.WeakValueDictionary()  # (free_rank, torsion_factors): group
_SUBGROUPS = weakref.WeakValueDictionary()  # (ambient, lattice_basis): subgroup


def check_enumeration_budget(order, what):
    """Raise BudgetExceeded, before any allocation, above the budget."""
    if order > ENUMERATION_BUDGET:
        raise BudgetExceeded(f"{what} of order {order} exceeds the "
                             f"enumeration budget of {ENUMERATION_BUDGET}")


class AbelianGroup:
    """The ambient group Z^free_rank x Z/d1 x ... x Z/dk."""

    __slots__ = ("free_rank", "torsion_factors", "__weakref__")

    def __new__(cls, free_rank=0, torsion_factors=()):
        # operator.index, unlike int(), refuses a float or a Fraction
        try:
            free_rank = operator.index(free_rank)
            if free_rank < 0:
                raise ValueError("free_rank must be non-negative")
            rank = free_rank + len(torsion_factors)
            if rank > RANK_BUDGET:
                raise BudgetExceeded(f"group of rank {rank} exceeds the "
                                     f"rank budget of {RANK_BUDGET}")
            factors = tuple(map(operator.index, torsion_factors))
        except TypeError:
            raise ValueError("free_rank and torsion factors must be integers") from None
        if any(d < 2 for d in factors):
            raise ValueError("torsion factors must be >= 2")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise ValueError("torsion factors must form a divisibility chain")
        group = object.__new__(cls)
        object.__setattr__(group, "free_rank", free_rank)
        object.__setattr__(group, "torsion_factors", factors)
        return _GROUPS.setdefault((free_rank, factors), group)

    def __setattr__(self, name, value):
        raise AttributeError("AbelianGroup is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the table: the same object
        return AbelianGroup, (self.free_rank, self.torsion_factors)

    @property
    def rank(self):
        return self.free_rank + len(self.torsion_factors)

    @property
    def is_finite(self):
        return self.free_rank == 0

    @property
    def order(self):
        """Group order, or None when the group is infinite."""
        return prod(self.torsion_factors) if self.is_finite else None

    def element(self, coords):
        return GroupElement(self, coords)

    def zero(self):
        return GroupElement(self, (0,) * self.rank)

    def elements(self):
        """All elements in lexicographic coordinate order (finite groups)."""
        if not self.is_finite:
            raise InfiniteSubgroup("cannot enumerate an infinite group")
        for coords in itertools.product(*(range(d) for d in self.torsion_factors)):
            yield GroupElement(self, coords)

    def _reduce(self, coords):
        try:
            coords = tuple(map(operator.index, coords))
        except TypeError:
            raise InvalidElement("coordinates must be integers") from None
        if len(coords) != self.rank:
            raise InvalidElement(
                f"expected {self.rank} coordinates, got {len(coords)}")
        return self._mod(coords)

    def _mod(self, coords):
        # coords: a tuple of self.rank ints
        f = self.free_rank
        return coords[:f] + tuple(c % d for c, d in
                                  zip(coords[f:], self.torsion_factors))

    def _relation_rows(self):
        # Rows d_j * e_{free_rank + j}: the kernel of Z^n -> G.
        n = self.rank
        rows = []
        for j, d in enumerate(self.torsion_factors):
            row = [0] * n
            row[self.free_rank + j] = d
            rows.append(row)
        return rows

    def __repr__(self):
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion_factors]
        return "AbelianGroup(" + (" x ".join(parts) if parts else "0") + ")"


class GroupElement:
    """An element of an AbelianGroup; torsion coordinates stay reduced."""

    __slots__ = ("group", "coords")

    def __init__(self, group, coords):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coords", group._reduce(coords))

    def __setattr__(self, name, value):
        raise AttributeError("GroupElement is immutable")

    def __reduce__(self):
        return GroupElement, (self.group, self.coords)

    def _check(self, other):
        if self.group is not other.group:
            raise AmbientMismatch("elements of different groups")

    # Sums, differences and negatives of elements of one group are already
    # int tuples of the right length: only the torsion reduction remains.

    def __add__(self, other):
        self._check(other)
        return _element(self.group, self.group._mod(
            tuple(a + b for a, b in zip(self.coords, other.coords))))

    def __sub__(self, other):
        self._check(other)
        return _element(self.group, self.group._mod(
            tuple(a - b for a, b in zip(self.coords, other.coords))))

    def __neg__(self):
        return _element(self.group, self.group._mod(tuple(-a for a in self.coords)))

    def __mul__(self, n):
        return GroupElement(self.group, tuple(n * a for a in self.coords))

    __rmul__ = __mul__

    def is_zero(self):
        return not any(self.coords)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.group is other.group and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"GroupElement{self.coords}"


def _element(group, coords):
    """A GroupElement from coordinates already reduced in `group`."""
    g = object.__new__(GroupElement)
    object.__setattr__(g, "group", group)
    object.__setattr__(g, "coords", coords)
    return g


def _coordinate_sum(group):
    """The sum of two coordinate tuples of `group`, as a function: the
    coordinates of GroupElement `+`, torsion coordinates reduced and free
    ones not, with no element built."""
    f, moduli = group.free_rank, group.torsion_factors
    if f:
        return lambda a, b: tuple(
            [x + y for x, y in zip(a[:f], b[:f])]
            + [(x + y) % m for x, y, m in zip(a[f:], b[f:], moduli)])
    return lambda a, b: tuple([(x + y) % m for x, y, m in zip(a, b, moduli)])


class Subgroup:
    """A subgroup of an ambient AbelianGroup in canonical form.

    Identity is decided by the Hermite basis of the preimage lattice
    (which always contains the ambient relation lattice).  The Smith form
    of the relations-in-basis matrix yields invariant-factor generators:
    `structure` lists the torsion invariant factors and
    `torsion_generators` the matching independent generators, the basis
    every character is written in.  Build one only with `canonicalize`,
    which keeps it the one live object of its ambient and Hermite basis.
    """

    __slots__ = ("ambient", "lattice_basis", "_pivots", "structure",
                 "sub_free_rank", "_gen_rows", "_gen_orders", "_gen_coord_matrix",
                 "_elements", "_dual", "_exponent_rows", "_coset_leasts",
                 "_restrict_cache", "_fibers", "__weakref__")

    def __init__(self, ambient, lattice_basis, pivots):
        self.ambient = ambient
        self.lattice_basis = lattice_basis
        self._pivots = pivots
        basis = [list(r) for r in lattice_basis]
        m = len(basis)
        relations = ambient._relation_rows()
        rel_coords = []
        for rel in relations:
            c, rest = hnf_reduce(basis, pivots, rel)
            assert not any(rest), "relation lattice escaped the subgroup lattice"
            rel_coords.append(c)
        diag, V, W = smith_normal_form(rel_coords, m)
        self._gen_rows = mat_mul(W, basis) if m else []
        self._gen_orders = list(diag) + [0] * (m - len(diag))
        self._gen_coord_matrix = V
        self.structure = tuple(d for d in diag if d > 1)
        self.sub_free_rank = m - len(diag)
        # Per-object memos, freed with the subgroup, bounded by |H| per
        # conductor or subgroup of H; an lru_cache on characters.restrict
        # would hash a Character in Python on every hit.
        self._elements = None
        self._dual = None
        self._exponent_rows = {}  # conductor: characters.exponent_rows
        self._coset_leasts = {}  # subgroup K: the elements least in their K-cosets
        self._restrict_cache = {}
        self._fibers = {}

    def __reduce__(self):
        # rebuilt by canonicalize, so a copy is the one live subgroup
        return canonicalize, (self.generators, self.ambient)

    # -- basic facts ----------------------------------------------------

    @property
    def is_finite(self):
        return self.sub_free_rank == 0

    @property
    def order(self):
        """Subgroup order, or None when infinite."""
        return prod(self.structure) if self.is_finite else None

    def exponent(self):
        """lcm of element orders; the largest invariant factor."""
        if not self.is_finite:
            raise InfiniteSubgroup("infinite subgroup has no exponent")
        return self.structure[-1] if self.structure else 1

    @property
    def torsion_generators(self):
        """Independent generators of orders structure[0] | structure[1] | ..."""
        gens = []
        for row, d in zip(self._gen_rows, self._gen_orders):
            if d > 1:
                gens.append(GroupElement(self.ambient, row))
        return gens

    @property
    def generators(self):
        """Torsion generators followed by free generators."""
        gens = self.torsion_generators
        for row, d in zip(self._gen_rows, self._gen_orders):
            if d == 0:
                gens.append(GroupElement(self.ambient, row))
        return gens

    # -- membership and coordinates --------------------------------------

    def _lattice_coords(self, g):
        # (coefficients, rest) of g; zip would truncate a foreign element
        if g.group is not self.ambient:
            raise AmbientMismatch("element over a different ambient group")
        return hnf_reduce(self.lattice_basis, self._pivots, g.coords)

    def __contains__(self, g):
        return not any(self._lattice_coords(g)[1])

    def generator_coords(self, g):
        """Coefficients of g on the invariant-factor generator rows.

        Entry i multiplies generator row i (of order _gen_orders[i]); only
        rows of order > 1 carry character data.  Returns None for
        non-members.
        """
        c, rest = self._lattice_coords(g)
        if any(rest):
            return None
        V = self._gen_coord_matrix
        m = len(V)
        return tuple(sum(c[i] * V[i][j] for i in range(m)) for j in range(m))

    def elements(self):
        """All elements, lexicographically ordered by coordinates."""
        if not self.is_finite:
            raise InfiniteSubgroup("cannot enumerate an infinite subgroup")
        check_enumeration_budget(self.order, "subgroup")
        if self._elements is None:
            gens = self.torsion_generators
            orders = self.structure
            elems = []
            for combo in itertools.product(*(range(d) for d in orders)):
                coords = [0] * self.ambient.rank
                for a, g in zip(combo, gens):
                    if a:
                        coords = [x + a * y for x, y in zip(coords, g.coords)]
                elems.append(GroupElement(self.ambient, coords))
            elems.sort(key=lambda e: e.coords)
            self._elements = tuple(elems)
        return self._elements

    def coset_key(self, coords):
        """The Hermite remainder of a coordinate tuple of the ambient group,
        torsion coordinates reduced or not: two tuples have equal keys
        exactly when they lie in one coset of H, and members have key
        zero.  For finite H it is least_coset_coords(g).coords."""
        return tuple(hnf_reduce(self.lattice_basis, self._pivots, coords)[1])

    def least_coset_coords(self, g):
        """Lexicographically least element of the coset g + H (H finite).

        The preimage lattice holds the relations d_j * e_j and, H being
        finite, has zero free part: its Hermite basis has a pivot dividing
        d_j in every torsion column and none in a free column.  So Hermite
        reduction, column by column into [0, pivot), gives the least element.
        """
        if not self.is_finite:
            raise InfiniteSubgroup("an infinite subgroup has no least coset element")
        return GroupElement(self.ambient, self._lattice_coords(g)[1])

    def __repr__(self):
        gens = [g.coords for g in self.generators]
        return f"Subgroup(order={self.order}, generators={gens})"


def canonicalize(gens, ambient):
    """The canonical Subgroup of `ambient` generated by `gens`."""
    for g in gens:
        if not isinstance(g, GroupElement) or g.group is not ambient:
            raise InvalidElement("generator does not belong to the ambient group")
    rows = [list(g.coords) for g in gens] + ambient._relation_rows()
    basis, pivots = row_hnf(rows, ambient.rank)
    key = (ambient, tuple(map(tuple, basis)))
    sub = _SUBGROUPS.get(key)
    if sub is None:
        sub = _SUBGROUPS[key] = Subgroup(*key, tuple(pivots))
    return sub


def trivial_subgroup(ambient):
    return canonicalize([], ambient)


def full_subgroup(ambient):
    """The whole ambient group as a Subgroup."""
    n = ambient.rank
    return canonicalize([GroupElement(ambient, [int(i == j) for j in range(n)])
                         for i in range(n)], ambient)


def _check_same_ambient(a, b):
    if a.ambient is not b.ambient:
        raise AmbientMismatch("subgroups over different ambient groups")


def intersect(a, b):
    """Canonical subgroup a /\\ b (intersection of preimage lattices)."""
    _check_same_ambient(a, b)
    return a if a is b else _intersect(a, b)


@functools.lru_cache(maxsize=_PAIR_MEMO_SIZE)
def _intersect(a, b):
    # Stacked Hermite form (Cohen, GTM 138, 2.4): the rows (x | x), x in a's
    # basis, and (y | 0), y in b's, span {(x + y | x)}; its Hermite rows
    # with zero first half are (0 | z), and those z span a /\ b.
    n = a.ambient.rank
    rows = ([list(x) + list(x) for x in a.lattice_basis]
            + [list(y) + [0] * n for y in b.lattice_basis])
    hnf, pivots = row_hnf(rows, 2 * n)
    return canonicalize([GroupElement(a.ambient, row[n:])
                         for row, pc in zip(hnf, pivots) if pc >= n], a.ambient)


def subgroup_sum(a, b):
    """Canonical subgroup a + b, generated by both generator sets."""
    _check_same_ambient(a, b)
    return a if a is b else _sum(a, b)


@functools.lru_cache(maxsize=_PAIR_MEMO_SIZE)
def _sum(a, b):
    return canonicalize(a.generators + b.generators, a.ambient)


def double_coset_eq(g, g_prime, h1, h2):
    """Whether g and g' lie in the same (h1, h2) double coset.

    In an abelian ambient group the double coset h1 + g + h2 is the plain
    coset g + (h1 + h2).
    """
    _check_same_ambient(h1, h2)
    if g.group is not h1.ambient or g_prime.group is not h1.ambient:
        raise AmbientMismatch("elements over a different ambient group")
    return (g - g_prime) in subgroup_sum(h1, h2)


def all_subgroups(ambient):
    """Every subgroup of a finite ambient group, deterministic order.

    Breadth-first closure: extend each known subgroup by each group
    element until nothing new appears.  Desk scale only.
    """
    if not ambient.is_finite:
        raise InfiniteSubgroup("ambient group must be finite")
    elems = list(ambient.elements())
    triv = trivial_subgroup(ambient)
    seen = {triv}
    frontier = [triv]
    while frontier:
        nxt = []
        for sub in frontier:
            for g in elems:
                if g in sub:
                    continue
                bigger = canonicalize(list(sub.generators) + [g], ambient)
                if bigger not in seen:
                    seen.add(bigger)
                    nxt.append(bigger)
        frontier = nxt
    return sorted(seen, key=lambda s: (s.order, s.lattice_basis))
