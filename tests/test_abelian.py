import copy
import gc
import itertools
import pickle
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from incidence_gradings import abelian
from incidence_gradings.abelian import (
    AbelianGroup,
    Subgroup,
    all_subgroups,
    canonicalize,
    double_coset_eq,
    full_subgroup,
    intersect,
    subgroup_sum,
    trivial_subgroup,
)
from incidence_gradings.characters import dual_group
from incidence_gradings.errors import (
    AmbientMismatch,
    BudgetExceeded,
    InfiniteSubgroup,
    InvalidElement,
)
from incidence_gradings.jsonio import decode_subgroup, encode_subgroup

from helpers import CHARACTER_GROUPS, SWEEP_GROUPS, finite_subgroups

Z4 = AbelianGroup(0, [4])
Z2xZ2 = AbelianGroup(0, [2, 2])
Z2xZ4 = AbelianGroup(0, [2, 4])
ZxZ2 = AbelianGroup(1, [2])


def sub(group, *gens):
    return canonicalize([group.element(g) for g in gens], group)


def test_group_validation():
    with pytest.raises(ValueError):
        AbelianGroup(0, [4, 2])  # not a divisibility chain
    with pytest.raises(ValueError):
        AbelianGroup(0, [1])
    with pytest.raises(ValueError):
        AbelianGroup(0, [0, 4])  # rejected before the divisibility test
    with pytest.raises(ValueError):
        AbelianGroup(-1, [])


class Index:
    """An int-like: operator.index takes it, as it takes int."""

    def __index__(self):
        return 4


def test_group_data_must_be_integers():
    # int() would truncate 4.7 to Z/4
    for args in ((0, [4.7]), (0, [Fraction(4)]), (1.0, []), (0, ["4"])):
        with pytest.raises(ValueError, match="must be integers"):
            AbelianGroup(*args)
    assert AbelianGroup(Index(), [Index()]) is AbelianGroup(4, [4])


def test_element_coordinates_must_be_integers():
    # int() would truncate 1.7 to 1
    for coords in ([1.7], [Fraction(1)], [1.0]):
        with pytest.raises(InvalidElement, match="must be integers"):
            Z4.element(coords)
    assert Z4.element([Index()]) == Z4.element([0])


def test_element_multiple_must_be_integral():
    # int() would truncate every coordinate of g * 0.5 to zero
    g = Z4.element([1])
    for n in (0.5, 2.0, Fraction(2)):
        with pytest.raises(InvalidElement, match="must be integers"):
            g * n
        with pytest.raises(InvalidElement, match="must be integers"):
            n * g
    assert 3 * g == g * 3 == Z4.element([3])


def test_rank_budget():
    assert AbelianGroup(abelian.RANK_BUDGET).rank == abelian.RANK_BUDGET
    assert AbelianGroup(0, [2] * abelian.RANK_BUDGET).rank == abelian.RANK_BUDGET
    # checked before the torsion factors are read
    for args in ((abelian.RANK_BUDGET + 1,), (1, [2] * abelian.RANK_BUDGET),
                 (0, [0.5] * 65), (10 ** 18, [])):
        with pytest.raises(BudgetExceeded, match="rank budget of 64"):
            AbelianGroup(*args)


def test_element_reduction_and_errors():
    g = Z4.element([7])
    assert g.coords == (3,)
    with pytest.raises(InvalidElement):
        Z4.element([1, 2])
    h = ZxZ2.element([-3, 5])
    assert h.coords == (-3, 1)


def test_canonicalize_trivial_and_forced():
    t = trivial_subgroup(Z4)
    assert t.order == 1
    assert t.structure == ()
    s = sub(Z4, [2])
    assert s.order == 2
    assert s.structure == (2,)
    assert [e.coords for e in s.elements()] == [(0,), (2,)]


def test_canonicalize_derived_example():
    # <(1,0), (0,2)> in Z/2 x Z/4: enumerate all Z-combinations mod (2,4)
    h = sub(Z2xZ4, [1, 0], [0, 2])
    expected = set()
    for a in range(2):
        for b in range(4):
            expected.add(((a * 1) % 2, (b * 2) % 4))
    assert {e.coords for e in h.elements()} == expected
    assert h.structure == (2, 2)
    assert h.order == 4


def test_canonicalize_idempotent_and_order_independent():
    rng = random.Random(5)
    for group in (Z4, Z2xZ2, Z2xZ4):
        elems = list(group.elements())
        for _ in range(25):
            gens = [rng.choice(elems) for _ in range(rng.randint(0, 3))]
            h = canonicalize(gens, group)
            again = canonicalize(list(h.generators), group)
            assert h == again and h is again
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert canonicalize(shuffled, group) == h


def test_canonicalize_rejects_foreign_elements():
    with pytest.raises(InvalidElement):
        canonicalize([Z4.element([1])], Z2xZ2)


def test_membership_matches_enumeration():
    for group in (Z4, Z2xZ2, Z2xZ4):
        for h in all_subgroups(group):
            inside = set(h.elements())
            for g in group.elements():
                assert (g in h) == (g in inside)


def test_generator_structure_is_a_basis():
    # the invariant-factor generators decompose the subgroup as a direct sum
    for group in (Z4, Z2xZ2, Z2xZ4, AbelianGroup(0, [8])):
        for h in all_subgroups(group):
            gens = h.torsion_generators
            orders = h.structure
            combos = set()
            import itertools
            for combo in itertools.product(*(range(d) for d in orders)):
                coords = group.zero()
                for a, g in zip(combo, gens):
                    coords = coords + a * g
                combos.add(coords)
            assert len(combos) == h.order
            assert combos == set(h.elements())


def test_intersect_examples():
    a = sub(Z2xZ2, [1, 0])
    b = sub(Z2xZ2, [0, 1])
    assert intersect(a, a) == a
    assert intersect(a, b) == trivial_subgroup(Z2xZ2)
    whole = full_subgroup(Z4)
    two = sub(Z4, [2])
    assert intersect(whole, two) == two


def test_intersect_matches_set_intersection():
    for group in (Z4, Z2xZ2, Z2xZ4):
        subs = all_subgroups(group)
        for a in subs:
            for b in subs:
                got = set(intersect(a, b).elements())
                want = set(a.elements()) & set(b.elements())
                assert got == want


@pytest.mark.parametrize("group", [AbelianGroup(1, [4]), AbelianGroup(2, []),
                                   AbelianGroup(1, [2, 6])],
                         ids=["ZxZ4", "Z2", "ZxZ2xZ6"])
def test_intersect_over_free_rank_ambients(group):
    rng = random.Random(f"intersect {group!r}")
    box = list(itertools.product(
        *[range(-6, 7)] * group.free_rank,
        *(range(d) for d in group.torsion_factors)))

    def random_subgroup():
        gens = [[rng.randint(-4, 4) for _ in range(group.rank)]
                for _ in range(rng.randint(1, 3))]
        return sub(group, *gens)

    for _ in range(25):
        a, b = random_subgroup(), random_subgroup()
        meet = intersect(a, b)
        assert meet is intersect(b, a)
        for g in meet.generators:
            assert g in a and g in b
        for coords in box:
            g = group.element(coords)
            if g in a and g in b:
                assert g in meet


def test_sum_examples_and_set_check():
    a = sub(Z2xZ2, [1, 0])
    b = sub(Z2xZ2, [0, 1])
    assert subgroup_sum(trivial_subgroup(Z2xZ2), b) == b
    two = sub(Z4, [2])
    assert subgroup_sum(two, two) == two
    assert subgroup_sum(a, b) == full_subgroup(Z2xZ2)
    for group in (Z4, Z2xZ2):
        subs = all_subgroups(group)
        for x in subs:
            for y in subs:
                want = {e + f for e in x.elements() for f in y.elements()}
                closure = canonicalize(list(want), group)
                assert subgroup_sum(x, y) == closure


def test_order_product_identity():
    # |a /\ b| * |a + b| == |a| * |b|, exhaustively on groups up to order 64
    for group in (Z4, Z2xZ2, Z2xZ4, AbelianGroup(0, [8]), AbelianGroup(0, [6]),
                  AbelianGroup(0, [2, 8]), AbelianGroup(0, [36]),
                  AbelianGroup(0, [64]), AbelianGroup(0, [2, 4, 8])):
        subs = all_subgroups(group)
        for a in subs:
            for b in subs:
                assert (intersect(a, b).order * subgroup_sum(a, b).order
                        == a.order * b.order)


def test_double_coset_examples():
    two = sub(Z4, [2])
    one = Z4.element([1])
    assert double_coset_eq(one, one, two, two)
    assert double_coset_eq(one, Z4.element([3]), two, two)
    assert not double_coset_eq(one, Z4.element([2]), two, two)


def test_double_coset_is_equivalence():
    rng = random.Random(21)
    for group in (Z4, Z2xZ4):
        subs = all_subgroups(group)
        elems = list(group.elements())
        for _ in range(30):
            h1, h2 = rng.choice(subs), rng.choice(subs)
            x, y, z = (rng.choice(elems) for _ in range(3))
            assert double_coset_eq(x, x, h1, h2)
            assert double_coset_eq(x, y, h1, h2) == double_coset_eq(y, x, h1, h2)
            if double_coset_eq(x, y, h1, h2) and double_coset_eq(y, z, h1, h2):
                assert double_coset_eq(x, z, h1, h2)


def test_exponent():
    assert trivial_subgroup(Z4).exponent() == 1
    assert sub(Z4, [2]).exponent() == 2
    assert full_subgroup(Z2xZ4).exponent() == 4
    assert len(list(full_subgroup(Z2xZ2).elements())) == 4


def test_infinite_ambient_support():
    free = canonicalize([ZxZ2.element([1, 0])], ZxZ2)
    assert not free.is_finite
    assert free.order is None
    with pytest.raises(InfiniteSubgroup):
        free.elements()
    with pytest.raises(InfiniteSubgroup):
        free.exponent()
    tors = canonicalize([ZxZ2.element([0, 1])], ZxZ2)
    assert tors.order == 2
    assert ZxZ2.element([0, 1]) in tors
    assert ZxZ2.element([1, 0]) not in tors
    # intersection of an infinite and a finite subgroup
    assert intersect(free, tors) == trivial_subgroup(ZxZ2)
    mixed = subgroup_sum(free, tors)
    assert not mixed.is_finite
    assert ZxZ2.element([5, 1]) in mixed


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        intersect(trivial_subgroup(Z4), trivial_subgroup(Z2xZ2))
    with pytest.raises(AmbientMismatch):
        subgroup_sum(trivial_subgroup(Z4), trivial_subgroup(Z2xZ2))
    with pytest.raises(AmbientMismatch):
        Z4.element([1]) + Z2xZ2.element([1, 0])


def test_all_subgroups_counts():
    # Z/4 has 3 subgroups, Z/2 x Z/2 has 5, Z/2 x Z/4 has 8
    assert len(all_subgroups(Z4)) == 3
    assert len(all_subgroups(Z2xZ2)) == 5
    assert len(all_subgroups(Z2xZ4)) == 8


def test_least_coset_coords():
    two = sub(Z4, [2])
    assert two.least_coset_coords(Z4.element([3])).coords == (1,)
    assert two.least_coset_coords(Z4.element([2])).coords == (0,)


# -- Hermite reduction against the enumeration it replaced ---------------------

COSET_GROUPS = SWEEP_GROUPS + [AbelianGroup(0, t) for t in
                               ([12], [2, 6], [4, 4], [3, 9], [2, 2, 2])]


def least_by_enumeration(h, g):
    return min((g + x for x in h.elements()), key=lambda e: e.coords)


def test_least_coset_coords_matches_enumeration():
    cases = 0
    for group in COSET_GROUPS:
        elems = list(group.elements())
        for h in all_subgroups(group):
            for g in elems:
                assert h.least_coset_coords(g) == least_by_enumeration(h, g)
                cases += 1
    assert cases > 900


@st.composite
def finite_subgroup_and_element(draw):
    """A finite subgroup of Z x Z/4 or Z^2 x Z/2 x Z/6 (its generators have
    zero free part) and an element whose free coordinates may be negative."""
    group = draw(st.sampled_from([AbelianGroup(1, [4]), AbelianGroup(2, [2, 6])]))
    torsion = [st.integers(-12, 12) for _ in group.torsion_factors]
    zeros = (0,) * group.free_rank
    gens = draw(st.lists(st.tuples(*torsion), max_size=3))
    h = canonicalize([group.element(zeros + t) for t in gens], group)
    coords = draw(st.tuples(*[st.integers(-9, 9) for _ in range(group.rank)]))
    return h, group.element(coords)


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(finite_subgroup_and_element())
def test_least_coset_coords_matches_enumeration_with_free_rank(case):
    h, g = case
    rep = h.least_coset_coords(g)
    assert rep == least_by_enumeration(h, g)
    # a finite subgroup moves only the torsion coordinates
    free = g.group.free_rank
    assert rep.coords[:free] == g.coords[:free]
    # coset_key reads raw coordinates: torsion coordinates off by multiples
    # of their orders have the same key, the least coset element's
    raw = g.coords[:free] + tuple(c - 3 * d for c, d in
                                  zip(g.coords[free:], g.group.torsion_factors))
    assert h.coset_key(raw) == h.coset_key(g.coords) == rep.coords


def test_least_coset_coords_errors():
    with pytest.raises(AmbientMismatch):
        sub(Z4, [2]).least_coset_coords(Z2xZ2.element([1, 0]))
    with pytest.raises(AmbientMismatch):
        Z2xZ2.element([1, 0]) in sub(Z2xZ4, [0, 2])
    free = canonicalize([ZxZ2.element([1, 0])], ZxZ2)
    with pytest.raises(InfiniteSubgroup):
        free.least_coset_coords(ZxZ2.element([3, 1]))


def test_enumeration_budget(monkeypatch):
    whole = full_subgroup(AbelianGroup(0, [2, 4]))
    monkeypatch.setattr(abelian, "ENUMERATION_BUDGET", 7)
    with pytest.raises(BudgetExceeded, match="enumeration budget of 7"):
        whole.elements()
    with pytest.raises(BudgetExceeded, match="enumeration budget of 7"):
        dual_group(whole)
    # coset questions never enumerate, so they stay within any budget
    g = Z2xZ4.element([1, 3])
    assert whole.least_coset_coords(g) == Z2xZ4.zero()
    assert g in whole
    monkeypatch.setattr(abelian, "ENUMERATION_BUDGET", 8)
    assert len(whole.elements()) == len(dual_group(whole)) == 8


def structural_key(h):
    return h.ambient.free_rank, h.ambient.torsion_factors, h.lattice_basis


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_canonical_objects_are_unique(data):
    for cls in (AbelianGroup, Subgroup):
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
    for g, h in itertools.product(CHARACTER_GROUPS, repeat=2):
        assert (g is h) == ((g.free_rank, g.torsion_factors)
                            == (h.free_rank, h.torsion_factors))
        assert AbelianGroup(g.free_rank, list(g.torsion_factors)) is g
    group = data.draw(st.sampled_from(CHARACTER_GROUPS))
    subs = finite_subgroups(group)
    a, b = data.draw(st.sampled_from(subs)), data.draw(st.sampled_from(subs))
    mixed = data.draw(st.permutations(a.generators + b.generators + [group.zero()]))
    reached = subs + [canonicalize(mixed, group), intersect(a, b), intersect(b, a),
                      subgroup_sum(a, b), subgroup_sum(b, a),
                      decode_subgroup(encode_subgroup(a), group),
                      canonicalize(list(b.elements()), group)]
    abelian._intersect.cache_clear()
    abelian._sum.cache_clear()
    reached += [intersect(a, b), subgroup_sum(a, b)]
    for x, y in itertools.product(reached, repeat=2):
        assert (x is y) == (structural_key(x) == structural_key(y))
    # a weak table keeps nothing alive: over an ambient group no other
    # code uses, the subgroup and the group die with their last reference
    fresh = AbelianGroup(group.free_rank + 5, group.torsion_factors)
    pad = (0,) * 5
    h = canonicalize([fresh.element(pad + g.coords) for g in a.generators], fresh)
    dead = [weakref.ref(h), weakref.ref(fresh)]
    del fresh, h
    gc.collect()
    assert [ref() for ref in dead] == [None, None]


@st.composite
def element_pairs(draw):
    group = draw(st.sampled_from(CHARACTER_GROUPS + [AbelianGroup(2, [3])]))
    coords = st.tuples(*([st.integers(-50, 50)] * group.rank))
    return group, draw(coords), draw(coords)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(element_pairs())
def test_element_arithmetic_matches_coercing_constructor(case):
    # +, - and unary - skip the constructor's coercion, not the reduction
    group, x, y = case
    a, b = group.element(x), group.element(y)
    for got, raw in ((a + b, [p + q for p, q in zip(x, y)]),
                     (a - b, [p - q for p, q in zip(x, y)]),
                     (-a, [-p for p in x])):
        want = group.element(raw)
        assert got == want and hash(got) == hash(want)
        assert got.coords == want.coords
        assert all(type(c) is int for c in got.coords)


def test_copy_and_pickle_return_the_one_live_object():
    # copy, deepcopy and a pickle round trip rebuild through the
    # constructor and canonicalize, so each returns the object itself
    for group in CHARACTER_GROUPS:
        subgroups = finite_subgroups(group) + [full_subgroup(group)]
        elements = [group.zero()] + [h.generators[0] for h in subgroups if h.generators]
        for obj in [group, *subgroups]:
            assert copy.copy(obj) is obj
            assert copy.deepcopy(obj) is obj
            assert pickle.loads(pickle.dumps(obj)) is obj
        for g in elements:
            back = pickle.loads(pickle.dumps(g))
            assert back == g and back.group is group
            assert copy.deepcopy(g) == g
