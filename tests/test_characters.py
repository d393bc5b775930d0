from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from incidence_gradings.abelian import (
    AbelianGroup,
    all_subgroups,
    canonicalize,
    full_subgroup,
    trivial_subgroup,
)
from incidence_gradings.characters import (
    Character,
    dual_group,
    exponent_rows,
    extension_fiber,
    restrict,
    trivial_character,
)
from incidence_gradings.errors import (
    DomainMismatch,
    InfiniteSubgroup,
    NotASubgroup,
)

from helpers import (
    CHARACTER_GROUPS,
    ReferenceCharacter,
    finite_subgroups,
    reference_exponent_rows,
    reference_extension_fiber,
)

Z4 = AbelianGroup(0, [4])
Z2xZ4 = AbelianGroup(0, [2, 4])

SMALL_GROUPS = [
    AbelianGroup(0, [2]),
    AbelianGroup(0, [3]),
    Z4,
    AbelianGroup(0, [2, 2]),
    AbelianGroup(0, [8]),
    Z2xZ4,
    AbelianGroup(0, [2, 8]),   # order 16
    AbelianGroup(0, [2, 2, 4]),  # order 16
    AbelianGroup(0, [4, 4]),   # order 16
]


def sub(group, *gens):
    return canonicalize([group.element(g) for g in gens], group)


def test_dual_group_sizes_and_order():
    for group in SMALL_GROUPS:
        for h in all_subgroups(group):
            chars = dual_group(h)
            assert len(chars) == h.order
            assert chars[0].is_trivial()
            values = [c.values for c in chars]
            assert values == sorted(values)
            assert len(set(values)) == len(values)


def test_dual_of_trivial_and_z2():
    t = trivial_subgroup(Z4)
    assert dual_group(t) == [trivial_character(t)]
    two = sub(Z4, [2])
    chars = dual_group(two)
    assert len(chars) == 2
    nontrivial = chars[1]
    assert nontrivial(Z4.element([2])) == Fraction(1, 2)


def test_character_is_homomorphism():
    for group in (Z4, Z2xZ4):
        h = full_subgroup(group)
        for chi in dual_group(h):
            for a in h.elements():
                for b in h.elements():
                    assert chi(a + b) == (chi(a) + chi(b)) % 1


def test_character_value_validation():
    two = sub(Z4, [2])
    with pytest.raises(DomainMismatch):
        Character(two, [Fraction(1, 4)])  # order-2 generator cannot carry 1/4
    with pytest.raises(DomainMismatch):
        Character(two, [Fraction(1, 2), Fraction(0)])
    with pytest.raises(InfiniteSubgroup):
        ZxZ = AbelianGroup(1, [])
        Character(canonicalize([ZxZ.element([1])], ZxZ), [])


def test_restrict_examples():
    whole = full_subgroup(Z4)
    two = sub(Z4, [2])
    chi = dual_group(whole)[1]
    assert chi.values == (Fraction(1, 4),)
    assert restrict(chi, whole) == chi
    assert restrict(chi, trivial_subgroup(Z4)).is_trivial()
    res = restrict(chi, two)
    assert res(Z4.element([2])) == Fraction(1, 2)


def test_restrict_rejects_non_subgroup():
    a = sub(Z2xZ4, [1, 0])
    b = sub(Z2xZ4, [0, 2])
    with pytest.raises(NotASubgroup):
        restrict(dual_group(a)[1], b)


def test_restriction_surjective_with_even_fibers():
    groups = SMALL_GROUPS + [AbelianGroup(0, [36]), AbelianGroup(0, [2, 16]),
                             AbelianGroup(0, [64])]
    for group in groups:
        for h in all_subgroups(group):
            duals_h = dual_group(h)
            for k in all_subgroups(group):
                if not all(g in h for g in k.generators):
                    continue
                fiber_size = h.order // k.order
                counts = {}
                for eta in duals_h:
                    counts.setdefault(restrict(eta, k), 0)
                    counts[restrict(eta, k)] += 1
                assert len(counts) == k.order
                assert all(c == fiber_size for c in counts.values())


def test_extension_fiber_examples():
    whole = full_subgroup(Z4)
    two = sub(Z4, [2])
    chi = dual_group(two)[1]
    assert extension_fiber(chi, two) == [chi]
    triv = trivial_character(trivial_subgroup(Z4))
    z2 = sub(Z4, [2])
    assert len(extension_fiber(triv, z2)) == 2
    exts = extension_fiber(chi, whole)
    assert sorted(e.values for e in exts) == [(Fraction(1, 4),), (Fraction(3, 4),)]


def _diagram_commutes(h1, h2, h3):
    from incidence_gradings.abelian import intersect

    h12 = intersect(h1, h2)
    h13 = intersect(h1, h3)
    h123 = intersect(h12, h3)
    for chi in dual_group(h1):
        via12 = restrict(restrict(chi, h12), h123)
        via13 = restrict(restrict(chi, h13), h123)
        assert via12 == via13


def test_restriction_diagram_commutes():
    # restriction along H1 -> H12 -> H123 equals H1 -> H13 -> H123;
    # exhaustive up to order 8, seeded sample of triples at order 16
    import random

    rng = random.Random(3)
    for group in SMALL_GROUPS:
        subs = all_subgroups(group)
        if group.order <= 8:
            triples = [(a, b, c) for a in subs for b in subs for c in subs]
        else:
            triples = [(rng.choice(subs), rng.choice(subs), rng.choice(subs))
                       for _ in range(40)]
        for h1, h2, h3 in triples:
            _diagram_commutes(h1, h2, h3)


def test_char_mul_inverse_trivial():
    for group in (Z4, Z2xZ4):
        h = full_subgroup(group)
        chars = dual_group(h)
        triv = trivial_character(h)
        for chi in chars:
            assert chi * triv == chi
            assert chi * chi.inverse() == triv
    z2 = sub(Z4, [2])
    sigma = dual_group(z2)[1]
    assert (sigma * sigma).is_trivial()


def test_char_mul_domain_mismatch():
    a = dual_group(sub(Z4, [2]))[1]
    b = dual_group(full_subgroup(Z4))[1]
    with pytest.raises(DomainMismatch):
        a * b


def test_dual_group_is_a_group():
    h = full_subgroup(Z2xZ4)
    chars = dual_group(h)
    table = {c.values for c in chars}
    for x in chars:
        for y in chars:
            assert (x * y).values in table


# ---------------------------------------------------------------------------
# differential tests against the Fraction formulas (helpers.ReferenceCharacter)

DIFF = settings(max_examples=500, derandomize=True, database=None, deadline=None)

# (h, k) for every finite subgroup h of every group and every k <= h
NESTED = [(h, k) for g in CHARACTER_GROUPS for subs in [finite_subgroups(g)]
          for h in subs for k in subs if all(x in h for x in k.generators)]


def test_unary_operations_match_reference_on_every_subgroup():
    for h, k in NESTED:
        for eta in dual_group(h):
            ref = ReferenceCharacter.of(eta)
            # the public constructor and the dual group build equal characters
            public = Character(h, ref.values)
            assert public == eta and hash(public) == hash(eta)
            assert public.exps == eta.exps
            if k == h:
                assert eta.order() == ref.order()
                assert eta.is_trivial() == ref.is_trivial()
                assert eta.inverse().values == ref.inverse().values
                assert eta.inverse() == Character(h, ref.inverse().values)
                for g in h.elements():
                    assert eta(g) == ref(g)
            res = restrict(eta, k)
            assert res.domain == k
            assert res.values == ref.restrict(k).values
            assert res == Character(k, ref.restrict(k).values)
        for chi in dual_group(k):
            assert extension_fiber(chi, h) == reference_extension_fiber(chi, h)


def test_exponent_rows_match_the_per_entry_sums_on_every_subgroup():
    seen = 0
    for g in CHARACTER_GROUPS:
        for h in finite_subgroups(g):
            for n in (h.exponent(), 2 * h.exponent()):
                assert exponent_rows(h, n) == reference_exponent_rows(h, n), (h, n)
                seen += 1
    assert seen > 100


@st.composite
def character_words(draw):
    """(h, k, values, [(op, values)]): a start character on h, a word of
    products and inverses, then a restriction to k <= h."""
    h, k = draw(st.sampled_from(NESTED))
    values = st.tuples(*(st.integers(0, d - 1).map(lambda a, d=d: Fraction(a, d))
                         for d in h.structure))
    start = draw(values)
    ops = draw(st.lists(st.one_of(st.tuples(st.just("mul"), values),
                                  st.tuples(st.just("inv"), st.just(None))),
                        max_size=6))
    return h, k, start, ops


@DIFF
@given(character_words())
def test_character_words_match_reference(word):
    h, k, start, ops = word
    chi, ref = Character(h, start), ReferenceCharacter(h, start)
    for op, values in ops:
        if op == "mul":
            chi, ref = chi * Character(h, values), ref * ReferenceCharacter(h, values)
        else:
            chi, ref = chi.inverse(), ref.inverse()
        assert chi.values == ref.values
        assert chi.order() == ref.order()
        assert chi.is_trivial() == ref.is_trivial()
    public = Character(h, ref.values)
    assert chi == public and hash(chi) == hash(public)
    assert [chi(g) for g in h.elements()] == [ref(g) for g in h.elements()]
    res, ref_res = restrict(chi, k), ref.restrict(k)
    assert res.values == ref_res.values
    assert res == Character(k, ref_res.values)
    assert hash(res) == hash(Character(k, ref_res.values))
    assert extension_fiber(res, h) == reference_extension_fiber(res, h)
    assert chi in extension_fiber(res, h)


def test_equal_exponents_on_different_domains_differ():
    group = AbelianGroup(0, [2, 2])
    orders_two = [h for h in all_subgroups(group) if h.order == 2]
    chars = [Character(h, [Fraction(1, 2)]) for h in orders_two]
    assert len(set(chars)) == 3
    assert all(a != b for a in chars for b in chars if a is not b)
