import json
import random
from pathlib import Path

import pytest

from incidence_gradings import jsonio
from incidence_gradings.datum import realize
from incidence_gradings.errors import CycleDetected, InvalidPartition
from incidence_gradings.posets import (
    Poset,
    antichain_poset,
    chain_poset,
    connected_components,
    link_counts,
    poset_automorphisms,
    poset_from_relation,
    poset_isomorphisms,
)

from helpers import boolean_coboundary

DATA = Path(__file__).parent / "data"


def test_chain_covers():
    p = chain_poset([1, 2, 3])
    assert p.covers() == [(1, 2), (2, 3)]
    assert p.leq(1, 3)
    assert not p.leq(3, 1)


def test_antichain_has_no_covers():
    p = antichain_poset(["a", "b", "c"])
    assert p.covers() == []
    assert p.comparable_pairs() == [("a", "a"), ("b", "b"), ("c", "c")]


def test_transitive_closure():
    p = poset_from_relation(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert p.leq("a", "c")
    assert p.covers() == [("a", "b"), ("b", "c")]


def test_cycle_detected():
    with pytest.raises(CycleDetected):
        poset_from_relation([1, 2], [(1, 2), (2, 1)])
    with pytest.raises(CycleDetected):
        poset_from_relation([1, 2, 3], [(1, 2), (2, 3), (3, 1)])


def test_public_constructor_validates_the_relation():
    # up sets hold element indices; [{0, 1}, {1}] is the chain 1 < 2
    assert Poset([1, 2], [{0, 1}, {1}]).covers() == [(1, 2)]
    with pytest.raises(ValueError, match="duplicate poset elements"):
        Poset([1, 1], [{0}, {1}])
    with pytest.raises(ValueError, match="not reflexive"):
        Poset([1, 2], [{1}, {1}])
    with pytest.raises(CycleDetected, match="not antisymmetric"):
        Poset([1, 2], [{0, 1}, {0, 1}])
    with pytest.raises(ValueError, match="not transitive"):
        Poset([1, 2, 3], [{0, 1}, {1, 2}, {2}])


def _covers_by_definition(p):
    # x < y with no z strictly between, in element order
    els = p.elements
    return [(x, y) for x in els for y in els
            if p.lt(x, y) and not any(p.lt(x, z) and p.lt(z, y) for z in els)]


def test_covers_match_the_definition_on_realized_posets():
    posets = [realize(jsonio.decode_datum(json.loads(path.read_text()))).poset
              for path in sorted(DATA.glob("*.json"))
              if not path.name.endswith(".verify.json")]
    posets.append(realize(boolean_coboundary(5, random.Random(5))).poset)
    assert len(posets) == 11 and len(posets[-1]) == 128
    for p in posets:
        assert p.covers() == _covers_by_definition(p)


def test_diamond_structure():
    p = poset_from_relation(
        [1, 2, 3, 4], [(1, 2), (1, 3), (2, 4), (3, 4)])
    assert set(p.covers()) == {(1, 2), (1, 3), (2, 4), (3, 4)}
    assert p.leq(1, 4)
    assert p.strictly_between(1, 4) == [2, 3]


def test_connected_components():
    # "b" is comparable to "d" only through "c": one component, not two
    p = poset_from_relation(["a", "b", "c", "d", "e"], [("b", "c"), ("d", "c")])
    parts = connected_components(p)
    assert [q.elements for q in parts] == [("a",), ("b", "c", "d"), ("e",)]
    assert parts[1].covers() == [("b", "c"), ("d", "c")]
    assert parts[1].leq("d", "c") and not parts[1].leq("b", "d")
    diamond = poset_from_relation("wxyz", [("w", "x"), ("w", "y"), ("x", "z"), ("y", "z")])
    assert connected_components(diamond) == [diamond]
    assert connected_components(antichain_poset([])) == []


def test_isomorphisms_chains_and_antichains():
    import math

    for n in range(1, 5):
        chains = list(poset_isomorphisms(chain_poset(range(n)),
                                         chain_poset("abcdef"[:n])))
        assert len(chains) == 1
        anti = list(poset_isomorphisms(antichain_poset(range(n)),
                                       antichain_poset("abcdef"[:n])))
        assert len(anti) == math.factorial(n)
    assert list(poset_isomorphisms(chain_poset([1, 2]),
                                   antichain_poset([1, 2]))) == []
    assert list(poset_isomorphisms(chain_poset([1]), chain_poset([1, 2]))) == []


def test_isomorphisms_preserve_order():
    p = poset_from_relation([1, 2, 3, 4], [(1, 2), (1, 3), (2, 4), (3, 4)])
    q = poset_from_relation("wxyz", [("w", "x"), ("w", "y"), ("x", "z"), ("y", "z")])
    maps = list(poset_isomorphisms(p, q))
    assert len(maps) == 2  # the middle pair can swap
    for alpha in maps:
        for a in p.elements:
            for b in p.elements:
                assert p.leq(a, b) == q.leq(alpha[a], alpha[b])


def test_isomorphism_constraint_pruning():
    p = antichain_poset([1, 2])
    q = antichain_poset(["a", "b"])
    only = list(poset_isomorphisms(p, q, constraint=lambda x, y: (x == 1) == (y == "a")))
    assert only == [{1: "a", 2: "b"}]


def test_automorphisms_of_diamond():
    p = poset_from_relation([1, 2, 3, 4], [(1, 2), (1, 3), (2, 4), (3, 4)])
    autos = list(poset_automorphisms(p))
    assert len(autos) == 2


def test_link_counts_basic():
    p = poset_from_relation(["x", "y"], [("x", "y")])
    counts = link_counts(p, {"B1": ["x"], "B2": ["y"]})
    assert counts.block_pairs[("B1", "B2")] == 1
    assert counts.block_pairs[("B2", "B1")] == 0
    assert counts.element_to_block[("x", "B2")] == 1
    assert counts.block_to_element[("B1", "y")] == 1


def test_link_counts_single_block_has_no_cross_entries():
    p = chain_poset([1, 2])
    counts = link_counts(p, {"B": [1, 2]})
    assert counts.block_pairs == {}
    assert counts.element_to_block == {}


def test_link_counts_partition_validation():
    p = chain_poset([1, 2])
    with pytest.raises(InvalidPartition):
        link_counts(p, {"A": [1]})
    with pytest.raises(InvalidPartition):
        link_counts(p, {"A": [1, 2], "B": [2]})
    with pytest.raises(InvalidPartition):
        link_counts(p, {"A": [1, 2], "B": [3]})
