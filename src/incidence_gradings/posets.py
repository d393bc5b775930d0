"""Finite posets: construction, covers, components, isomorphisms, link counts.

The order relation is stored densely (successor sets per element); posets
here stay under a few hundred vertices, so O(1) comparability queries beat
anything fancier.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import CycleDetected, InvalidPartition


class Poset:
    """A finite partially ordered set over opaque, hashable labels."""

    __slots__ = ("elements", "_index", "_up", "_covers", "_pairs", "_between")

    def __init__(self, elements, up_sets, _checked=False):
        elements = tuple(elements)
        index = {x: i for i, x in enumerate(elements)}
        if len(index) != len(elements):
            raise ValueError("duplicate poset elements")
        up = tuple(frozenset(s) for s in up_sets)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_up", up)
        object.__setattr__(self, "_covers", None)
        object.__setattr__(self, "_pairs", None)
        object.__setattr__(self, "_between", {})  # (x, y): strictly_between
        if not _checked:
            self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("Poset is immutable")

    def __reduce__(self):
        return Poset, (self.elements, self._up, True)

    def _validate(self):
        n = len(self.elements)
        up = self._up
        for i in range(n):
            if i not in up[i]:
                raise ValueError("relation is not reflexive")
            for j in up[i]:
                if i != j and i in up[j]:
                    raise CycleDetected("relation is not antisymmetric")
                if not up[j] <= up[i]:
                    raise ValueError("relation is not transitive")

    def __len__(self):
        return len(self.elements)

    def index(self, x):
        return self._index[x]

    def leq(self, x, y):
        return self._index[y] in self._up[self._index[x]]

    def lt(self, x, y):
        return x != y and self.leq(x, y)

    def comparable_pairs(self):
        """All ordered pairs (x, y) with x <= y, in element order."""
        if self._pairs is None:
            els = self.elements
            object.__setattr__(self, "_pairs", tuple(
                (x, els[j]) for i, x in enumerate(els) for j in sorted(self._up[i])))
        return list(self._pairs)

    def covers(self):
        """Cover pairs (x, y): x < y with nothing strictly between."""
        if self._covers is None:
            up, els = self._up, self.elements
            # j covers i when nothing else above i lies below j
            object.__setattr__(self, "_covers", tuple(
                (els[i], els[j]) for i in range(len(els)) for j in sorted(up[i] - {i})
                if not any(j in up[k] for k in up[i] - {i, j})))
        return list(self._covers)

    def strictly_between(self, x, y):
        """Elements z with x < z < y."""
        between = self._between.get((x, y))
        if between is None:
            i, j = self._index[x], self._index[y]
            between = self._between[(x, y)] = tuple(
                self.elements[k] for k in sorted(self._up[i] - {i, j})
                if j in self._up[k])
        return list(between)

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self.elements == other.elements and self._up == other._up

    def __hash__(self):
        return hash((self.elements, self._up))

    def __repr__(self):
        return f"Poset({len(self.elements)} elements, {len(self.covers())} covers)"


def poset_from_relation(elements, pairs):
    """Build a poset from any relation pairs via reflexive-transitive closure.

    Raises CycleDetected when the closure would violate antisymmetry.
    """
    elements = tuple(elements)
    index = {x: i for i, x in enumerate(elements)}
    if len(index) != len(elements):
        raise ValueError("duplicate poset elements")
    n = len(elements)
    up = [{i} for i in range(n)]
    for x, y in pairs:
        if x not in index or y not in index:
            raise ValueError(f"relation pair ({x!r}, {y!r}) outside element set")
        up[index[x]].add(index[y])
    # Warshall closure on successor sets.
    changed = True
    while changed:
        changed = False
        for i in range(n):
            new = set().union(*(up[j] for j in up[i]))
            if not new <= up[i]:
                up[i] |= new
                changed = True
    for i in range(n):
        for j in up[i]:
            if i != j and i in up[j]:
                raise CycleDetected(
                    f"elements {elements[i]!r} and {elements[j]!r} form a cycle")
    return Poset(elements, up, _checked=True)


def chain_poset(labels):
    labels = list(labels)
    return poset_from_relation(labels, list(zip(labels, labels[1:])))


def antichain_poset(labels):
    return poset_from_relation(list(labels), [])


def connected_components(p):
    """The connected components of p's comparability graph (the same as
    its cover graph's), each a subposet with its elements in p's order,
    listed by their first element.  A connected p is its own component."""
    n = len(p.elements)
    adjacent = [set(up) for up in p._up]
    for i, up in enumerate(p._up):
        for j in up:
            adjacent[j].add(i)
    seen = [False] * n
    parts = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        members, stack = [start], [start]
        while stack:
            for j in adjacent[stack.pop()]:
                if not seen[j]:
                    seen[j] = True
                    members.append(j)
                    stack.append(j)
        parts.append(sorted(members))
    if len(parts) == 1:
        return [p]
    out = []
    for members in parts:
        local = {i: k for k, i in enumerate(members)}
        out.append(Poset([p.elements[i] for i in members],
                         [{local[j] for j in p._up[i]} for i in members],
                         _checked=True))
    return out


def poset_isomorphisms(p, q, constraint=None):
    """Yield all order isomorphisms p -> q as dicts, deterministically.

    `constraint(x, y)` may veto the assignment x -> y before any order
    checking; the caller pushes label compatibility (e.g. equal subgroup
    blocks) into the search this way.
    """
    n = len(p.elements)
    if n != len(q.elements):
        return
    p_idx_up = [p._up[i] for i in range(n)]
    q_idx_up = [q._up[i] for i in range(n)]

    def invariant(up_sets, i, n_):
        down = sum(1 for j in range(n_) if i in up_sets[j])
        return (len(up_sets[i]), down)

    p_inv = [invariant(p_idx_up, i, n) for i in range(n)]
    q_inv = [invariant(q_idx_up, i, n) for i in range(n)]

    candidates = []
    for i in range(n):
        cand = [j for j in range(n)
                if q_inv[j] == p_inv[i]
                and (constraint is None
                     or constraint(p.elements[i], q.elements[j]))]
        if not cand:
            return
        candidates.append(cand)

    # most-constrained-first search order, ties broken by element order
    order = sorted(range(n), key=lambda i: (len(candidates[i]), i))
    assignment = [None] * n
    used = [False] * n

    def consistent(i, j, placed):
        for k in placed:
            jk = assignment[k]
            if (k in p_idx_up[i]) != (jk in q_idx_up[j]):
                return False
            if (i in p_idx_up[k]) != (j in q_idx_up[jk]):
                return False
        return True

    def search(depth, placed):
        if depth == n:
            yield {p.elements[i]: q.elements[assignment[i]] for i in range(n)}
            return
        i = order[depth]
        for j in candidates[i]:
            if used[j] or not consistent(i, j, placed):
                continue
            assignment[i] = j
            used[j] = True
            placed.append(i)
            yield from search(depth + 1, placed)
            placed.pop()
            used[j] = False
            assignment[i] = None

    yield from search(0, [])


def poset_automorphisms(p, constraint=None):
    return poset_isomorphisms(p, p, constraint)


@dataclass
class LinkCounts:
    """Comparability counts across distinct blocks of a partition.

    Only cross-block counts are provided (within-block pairs, reflexive
    ones included, are never used downstream):
      block_pairs[(a, b)]    -- number of x in a, y in b with x <= y
      element_to_block[(x, b)] -- number of y in b with x <= y
      block_to_element[(a, y)] -- number of x in a with x <= y
    Each is a Counter: a key with no comparable pair is absent and reads 0.
    """

    block_pairs: Counter = field(default_factory=Counter)
    element_to_block: Counter = field(default_factory=Counter)
    block_to_element: Counter = field(default_factory=Counter)


def link_counts(p, blocks):
    """Count comparable pairs across the distinct blocks of a partition.

    `blocks` maps a block label to its list of elements; the lists must
    partition p's element set exactly.
    """
    seen = {}
    for name, members in blocks.items():
        for x in members:
            if x in seen or x not in p._index:
                raise InvalidPartition(f"element {x!r} misplaced in partition")
            seen[x] = name
    if len(seen) != len(p.elements):
        raise InvalidPartition("blocks do not cover the element set")

    counts = LinkCounts()
    for x, y in p.comparable_pairs():
        a, b = seen[x], seen[y]
        if a == b:
            continue
        counts.block_pairs[(a, b)] += 1
        counts.element_to_block[(x, b)] += 1
        counts.block_to_element[(a, y)] += 1
    return counts
