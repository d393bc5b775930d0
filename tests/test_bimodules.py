import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from incidence_gradings.abelian import (
    AbelianGroup,
    all_subgroups,
    canonicalize,
    full_subgroup,
    intersect,
    subgroup_sum,
    trivial_subgroup,
)
from incidence_gradings.bimodules import (
    BimoduleClass,
    bimodule_iso,
    bimodule_product,
    realizable,
    twist,
)
from incidence_gradings.characters import Character, dual_group, restrict, trivial_character
from incidence_gradings.errors import (
    BlockMismatch,
    ChainMismatch,
    DegreeConflict,
    DomainMismatch,
)

from helpers import (
    CHARACTER_GROUPS,
    SWEEP_GROUPS,
    ReferenceCharacter,
    finite_subgroups,
    reference_product,
)

Z2 = AbelianGroup(0, [2])
Z4 = AbelianGroup(0, [4])


def sub(group, *gens):
    return canonicalize([group.element(g) for g in gens], group)


def test_degree_canonicalization():
    h = sub(Z4, [2])
    chi = dual_group(h)[1]
    m = BimoduleClass(h, h, [(chi, Z4.element([3]))])
    # 3 + <2> = {1, 3}; canonical representative is 1
    assert m.pairs[0][1].coords == (1,)


def test_iso_identity_and_double_coset():
    h = sub(Z4, [2])
    chi = dual_group(h)[1]
    triv = trivial_character(h)
    m = BimoduleClass(h, h, [(chi, Z4.element([1]))])
    n = BimoduleClass(h, h, [(chi, Z4.element([3]))])
    flag, sigma = bimodule_iso(m, m)
    assert flag and sigma == (0,)
    flag, sigma = bimodule_iso(m, n)
    assert flag and sigma == (0,)
    k = BimoduleClass(h, h, [(triv, Z4.element([1]))])
    flag, sigma = bimodule_iso(m, k)
    assert not flag and sigma is None


def test_iso_agrees_with_enumeration_oracle():
    # independent check: chars must match exactly and degree difference must
    # lie in the enumerated element set of left + right
    rng = random.Random(43)
    for group in (Z4, AbelianGroup(0, [2, 4])):
        subs = all_subgroups(group)
        elems = list(group.elements())
        for _ in range(60):
            left, right = rng.choice(subs), rng.choice(subs)
            mid = intersect(left, right)
            chars = dual_group(mid)
            def rand_class():
                n = rng.randint(0, 2)
                return BimoduleClass(left, right, [
                    (rng.choice(chars), rng.choice(elems)) for _ in range(n)])
            m, n_ = rand_class(), rand_class()
            flag, sigma = bimodule_iso(m, n_)
            coset = {e.coords for e in subgroup_sum(left, right).elements()}
            naive = False
            if len(m.pairs) == len(n_.pairs):
                import itertools
                for perm in itertools.permutations(range(len(n_.pairs))):
                    if all(m.pairs[i][0] == n_.pairs[perm[i]][0]
                           and (m.pairs[i][1] - n_.pairs[perm[i]][1]).coords in coset
                           for i in range(len(m.pairs))):
                        naive = True
                        break
            assert flag == naive
            if flag:
                for i, j in enumerate(sigma):
                    assert m.pairs[i][0] == n_.pairs[j][0]
                    assert (m.pairs[i][1] - n_.pairs[j][1]).coords in coset


def test_iso_is_equivalence_relation():
    rng = random.Random(59)
    group = AbelianGroup(0, [2, 4])
    subs = all_subgroups(group)
    elems = list(group.elements())
    for _ in range(25):
        left, right = rng.choice(subs), rng.choice(subs)
        chars = dual_group(intersect(left, right))
        def rand_class():
            return BimoduleClass(left, right, [
                (rng.choice(chars), rng.choice(elems))
                for _ in range(rng.randint(0, 3))])
        trio = [rand_class() for _ in range(3)]
        for m in trio:
            assert bimodule_iso(m, m)[0]
        for m in trio:
            for n in trio:
                assert bimodule_iso(m, n)[0] == bimodule_iso(n, m)[0]
        a, b, c = trio
        if bimodule_iso(a, b)[0] and bimodule_iso(b, c)[0]:
            assert bimodule_iso(a, c)[0]


def test_iso_block_mismatch():
    h = sub(Z4, [2])
    m = BimoduleClass(h, h, [])
    n = BimoduleClass(full_subgroup(Z4), h, [])
    with pytest.raises(BlockMismatch):
        bimodule_iso(m, n)


def test_realizable():
    h = sub(Z4, [2])
    chi = dual_group(h)[1]
    triv = trivial_character(h)
    g = Z4.element([1])
    assert realizable(BimoduleClass(h, h, []))
    assert realizable(BimoduleClass(h, h, [(triv, g), (chi, g)]))
    assert not realizable(BimoduleClass(h, h, [(chi, g), (chi, Z4.zero())]))


def test_twist_examples():
    h = full_subgroup(Z2)
    sigma = dual_group(h)[1]
    triv = trivial_character(h)
    g = Z2.element([1])
    m = BimoduleClass(h, h, [(triv, g)])
    twisted = twist(m, sigma, triv)
    assert twisted.pairs[0][0] == sigma
    assert twisted.pairs[0][1] == m.pairs[0][1]
    assert twist(m, triv, triv) == m
    back = twist(twist(m, sigma, sigma), sigma.inverse(), sigma.inverse())
    assert back == m


def test_twist_domain_mismatch():
    h = sub(Z4, [2])
    m = BimoduleClass(h, h, [])
    wrong = trivial_character(full_subgroup(Z4))
    with pytest.raises(DomainMismatch):
        twist(m, wrong, trivial_character(h))


def test_twist_commutes_with_iso():
    rng = random.Random(47)
    group = AbelianGroup(0, [2, 4])
    subs = all_subgroups(group)
    elems = list(group.elements())
    for _ in range(40):
        left, right = rng.choice(subs), rng.choice(subs)
        chars = dual_group(intersect(left, right))
        pairs = [(rng.choice(chars), rng.choice(elems))
                 for _ in range(rng.randint(1, 2))]
        m = BimoduleClass(left, right, pairs)
        # an isomorphic copy: same chars, degrees shifted inside the coset
        shift = rng.choice(list(subgroup_sum(left, right).elements()))
        n = BimoduleClass(left, right, [(c, g + shift) for c, g in pairs])
        assert bimodule_iso(m, n)[0]
        mu = rng.choice(dual_group(left))
        nu = rng.choice(dual_group(right))
        assert bimodule_iso(twist(m, mu, nu), twist(n, mu, nu))[0]


def test_product_zero_annihilates():
    h = full_subgroup(Z2)
    zero = BimoduleClass(h, h, [])
    one = BimoduleClass(h, h, [(trivial_character(h), Z2.zero())])
    assert bimodule_product(zero, one).is_zero()
    assert bimodule_product(one, zero).is_zero()


def test_product_z2_example():
    h = full_subgroup(Z2)
    sigma = dual_group(h)[1]
    triv = trivial_character(h)
    m12 = BimoduleClass(h, h, [(sigma, Z2.zero())])
    m23 = BimoduleClass(h, h, [(triv, Z2.element([1]))])
    prod = bimodule_product(m12, m23)
    # the class [(sigma, 1)]; degrees live in double cosets mod H1 + H3
    assert prod == BimoduleClass(h, h, [(sigma, Z2.element([1]))])
    assert len(prod.pairs) == 1
    assert prod.pairs[0][0] == sigma


def test_product_extension_fiber_example():
    whole = full_subgroup(Z4)
    half = sub(Z4, [2])
    chi = dual_group(half)[1]
    triv = trivial_character(half)
    m12 = BimoduleClass(whole, half, [(chi, Z4.zero())])
    m23 = BimoduleClass(half, whole, [(triv, Z4.element([1]))])
    prod = bimodule_product(m12, m23)
    assert prod.left == whole and prod.right == whole
    values = sorted(c.values for c, _ in prod.pairs)
    assert values == [(Fraction(1, 4),), (Fraction(3, 4),)]
    # both extensions carry degree 0 + 1, up to the H1 + H3 coset
    one = Z4.element([1])
    coset = {e.coords for e in subgroup_sum(whole, whole).elements()}
    assert all((g - one).coords in coset for _, g in prod.pairs)


def test_product_chain_mismatch():
    h = sub(Z4, [2])
    whole = full_subgroup(Z4)
    a = BimoduleClass(h, h, [])
    b = BimoduleClass(whole, whole, [])
    with pytest.raises(ChainMismatch):
        bimodule_product(a, b)


def test_product_degree_conflict():
    # two factor pairs producing the same character with incompatible degrees
    t = trivial_subgroup(Z4)
    chi0 = trivial_character(t)
    m12 = BimoduleClass(t, t, [(chi0, Z4.zero())])
    # right factor repeats the trivial character at degrees 0 and 1: the
    # product character (trivial on the trivial intersection) is forced
    # into cosets 0 + <> and 1 + <>
    m23 = BimoduleClass(t, t, [(chi0, Z4.zero()), (chi0, Z4.element([1]))])
    with pytest.raises(DegreeConflict):
        bimodule_product(m12, m23)


GROUPS_8 = [AbelianGroup(0, [2]), AbelianGroup(0, [3]), AbelianGroup(0, [4]),
            AbelianGroup(0, [2, 2]), AbelianGroup(0, [6]), AbelianGroup(0, [8]),
            AbelianGroup(0, [2, 4])]
GROUPS_16 = [AbelianGroup(0, [16]), AbelianGroup(0, [2, 8]),
             AbelianGroup(0, [4, 4]), AbelianGroup(0, [2, 2, 4])]


def _char_pairs(rng, d12, d23, exhaustive):
    if exhaustive:
        return [(a, b) for a in d12 for b in d23]
    picks = []
    for _ in range(2):
        picks.append((rng.choice(d12), rng.choice(d23)))
    return picks


@pytest.mark.parametrize("group,exhaustive",
                         [(g, True) for g in GROUPS_8]
                         + [(g, False) for g in GROUPS_16])
def test_character_count_and_restriction_laws(group, exhaustive):
    # single-pair product size |H13| / |H123|, and every output character
    # restricts to the product of the restricted inputs
    rng = random.Random(sum(group.torsion_factors))
    subs = all_subgroups(group)
    zero = group.zero()
    for h1 in subs:
        for h2 in subs:
            for h3 in subs:
                h13 = intersect(h1, h3)
                h123 = intersect(h13, h2)
                d12 = dual_group(intersect(h1, h2))
                d23 = dual_group(intersect(h2, h3))
                for chi12, chi23 in _char_pairs(rng, d12, d23, exhaustive):
                    m12 = BimoduleClass(h1, h2, [(chi12, zero)])
                    m23 = BimoduleClass(h2, h3, [(chi23, zero)])
                    prod = bimodule_product(m12, m23)
                    assert len(prod.pairs) == h13.order // h123.order
                    want = restrict(chi12, h123) * restrict(chi23, h123)
                    for chi, _ in prod.pairs:
                        assert restrict(chi, h123) == want


def test_product_associative_on_classes():
    # Characters associate exactly.  Degrees of an iterated class product
    # are only well-defined modulo the sum of every block involved: the
    # intermediate class reduces its degree modulo (middle sums), so the
    # two bracketings may pick different representatives of the same
    # H1+H2+H3+H4 coset.  Chain derivation in the datum module therefore
    # accumulates raw degrees; here we check the class-level law in the
    # strongest form that is actually true.
    rng = random.Random(53)
    for group in (Z4, AbelianGroup(0, [2, 2]), AbelianGroup(0, [2, 4])):
        subs = all_subgroups(group)
        elems = list(group.elements())
        for _ in range(60):
            h1, h2, h3, h4 = (rng.choice(subs) for _ in range(4))
            def single(a, b):
                chars = dual_group(intersect(a, b))
                return BimoduleClass(a, b, [(rng.choice(chars), rng.choice(elems))])
            m12, m23, m34 = single(h1, h2), single(h2, h3), single(h3, h4)
            try:
                left = bimodule_product(bimodule_product(m12, m23), m34)
                right = bimodule_product(m12, bimodule_product(m23, m34))
            except DegreeConflict:
                continue
            assert set(left.characters()) == set(right.characters())
            everything = subgroup_sum(subgroup_sum(h1, h2), subgroup_sum(h3, h4))
            coset = {e.coords for e in everything.elements()}
            ldeg = dict(left.pairs)
            rdeg = dict(right.pairs)
            for chi in ldeg:
                assert (ldeg[chi] - rdeg[chi]).coords in coset


@st.composite
def product_factors(draw):
    """(m12, m23) over a subgroup triple of SWEEP_GROUPS.  Each factor has
    one to three pairs whose characters come from at most two drawn
    ones, so characters often repeat."""
    ambient = draw(st.sampled_from(SWEEP_GROUPS))
    subs = all_subgroups(ambient)
    h1, h2, h3 = (draw(st.sampled_from(subs)) for _ in range(3))
    elems = list(ambient.elements())

    def factor(left, right):
        chars = dual_group(intersect(left, right))
        few = draw(st.lists(st.sampled_from(chars), min_size=1, max_size=2))
        return BimoduleClass(left, right, draw(st.lists(
            st.tuples(st.sampled_from(few), st.sampled_from(elems)),
            min_size=1, max_size=3)))

    return factor(h1, h2), factor(h2, h3)


def test_product_matches_the_object_form_rule():
    # the row rule against restrict, * and extension_fiber on Character
    # objects and GroupElement sums: the same class, pair for pair, or
    # the same DegreeConflict message
    tally = Counter()

    @settings(max_examples=1000, derandomize=True, database=None, deadline=None)
    @given(product_factors())
    def check(factors):
        outcomes = []
        for product in (bimodule_product, reference_product):
            try:
                m = product(*factors)
                outcomes.append((m, m.pairs))
            except DegreeConflict as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        tally["conflict" if isinstance(outcomes[0], str) else "class"] += 1
        tally["repeated"] += not all(realizable(m) for m in factors)

    check()
    assert tally["class"] >= 300 and tally["conflict"] >= 100
    assert tally["repeated"] >= 300


@st.composite
def twists(draw):
    """(m, mu_left, mu_right) over CHARACTER_GROUPS, with up to three pairs
    whose degrees are drawn unreduced (free coordinates included)."""
    ambient = draw(st.sampled_from(CHARACTER_GROUPS))
    subs = finite_subgroups(ambient)
    left, right = draw(st.sampled_from(subs)), draw(st.sampled_from(subs))
    middle = intersect(left, right)
    degree = st.tuples(*([st.integers(-9, 9)] * ambient.rank)).map(ambient.element)
    pairs = draw(st.lists(st.tuples(st.sampled_from(dual_group(middle)), degree),
                          max_size=3))
    m = BimoduleClass(left, right, pairs)
    return m, draw(st.sampled_from(dual_group(left))), draw(st.sampled_from(dual_group(right)))


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(twists())
def test_twist_matches_constructor(case):
    # twist skips the constructor's coset reduction; building the class
    # from the Fraction-twisted pairs must give the same class
    m, mu_left, mu_right = case
    factor = (ReferenceCharacter.of(mu_left).restrict(m.middle)
              * ReferenceCharacter.of(mu_right).restrict(m.middle))
    expected = BimoduleClass(m.left, m.right, [
        (Character(m.middle, (factor * ReferenceCharacter.of(chi)).values), g)
        for chi, g in m.pairs])
    got = twist(m, mu_left, mu_right)
    assert got == expected and hash(got) == hash(expected)
    assert got.sorted_key() == expected.sorted_key()
    assert got.pairs == expected.pairs
    assert got.middle == expected.middle
