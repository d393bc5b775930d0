import random
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from incidence_gradings.abelian import (
    AbelianGroup,
    all_subgroups,
    canonicalize,
    full_subgroup,
    intersect,
    trivial_subgroup,
)
from incidence_gradings.bimodules import BimoduleClass, bimodule_iso
from incidence_gradings.characters import dual_group, trivial_character
from incidence_gradings import datum as datum_mod
from incidence_gradings import oracle
from incidence_gradings.cyclo import cyclotomic_polynomial, root_of_unity
from incidence_gradings.datum import (
    CONDUCTOR_BUDGET,
    BasisVector,
    GradingDatum,
    RealizedGrading,
    realize,
    validate_datum,
)
from incidence_gradings.errors import NoIntermediateBlock
from incidence_gradings.incidence import IncidenceElement
from incidence_gradings.oracle import (
    _conductor_of,
    _flatten,
    _full_rank_mod_p,
    _is_prime,
    _isotypic_flats,
    _modular_root,
    _rank_mod_p,
    _ring_preimages,
    apply_twist_projector,
    check_link_equation,
    isotypic_rank_table,
    radical_square_component,
    verify_grading,
)
from incidence_gradings.posets import chain_poset
from incidence_gradings.rowspan import RationalRowSpace

from helpers import (
    ACCEPTANCE_SHAPES,
    SWEEP_GROUPS,
    b3_over_z3,
    chain_datum,
    grading_data,
    chain_over_z8,
    diamond_over_z2,
    reference_derive,
    reference_verify_grading,
    saturated_chains,
    two_block_datum,
)

Z2 = AbelianGroup(0, [2])
Z4 = AbelianGroup(0, [4])


def sub(group, *gens):
    return canonicalize([group.element(g) for g in gens], group)


def trivial_class(left, right, deg):
    return BimoduleClass(left, right,
                         [(trivial_character(intersect(left, right)), deg)])


def test_rowspace_rank_and_membership():
    space = RationalRowSpace()
    assert space.add({0: 2, 1: 4})
    assert not space.add({0: 1, 1: 2})       # same line over Q
    assert space.add({1: 1, 2: 1})
    assert space.rank == 2
    assert space.contains({0: 3, 1: 6})
    assert space.contains({0: 1, 1: 3, 2: 1})  # (1,2,0)/... combination
    assert not space.contains({2: 1})


def test_verify_trivial_ut2():
    t = trivial_subgroup(Z2)
    d = two_block_datum(Z2, t, t, trivial_character(t), Z2.zero())
    report = verify_grading(realize(d))
    assert report.ok
    assert report.dimension == 3


def test_verify_fiber_example():
    whole = full_subgroup(Z4)
    two = sub(Z4, [2])
    chi = dual_group(two)[1]
    r = realize(two_block_datum(Z4, whole, two, chi, Z4.element([1])))
    report = verify_grading(r)
    assert report.ok
    assert report.dimension == 10


def _corrupt_degree(r, idx, new_degree):
    basis = list(r.basis)
    old = basis[idx]
    basis[idx] = BasisVector(old.element, new_degree, old.tag)
    return RealizedGrading(r.datum, r.poset, r.vertex_data, basis, r.full_raw)


def test_verify_flags_degree_bump():
    whole = full_subgroup(Z4)
    two = sub(Z4, [2])
    chi = dual_group(two)[1]
    r = realize(two_block_datum(Z4, whole, two, chi, Z4.zero()))
    idx = next(n for n, b in enumerate(r.basis)
               if b.tag[0] == "diag" and b.tag[2] != (0,))
    bumped = _corrupt_degree(r, idx, r.basis[idx].degree + Z4.element([1]))
    report = verify_grading(bumped)
    assert any(v.kind == "product-escape" for v in report.violations)


def test_verify_flags_coefficient_change():
    whole = full_subgroup(Z4)
    two = sub(Z4, [2])
    chi = dual_group(two)[1]
    r = realize(two_block_datum(Z4, whole, two, chi, Z4.zero()))
    idx = next(n for n, b in enumerate(r.basis) if len(b.element.coeffs) >= 2)
    old = r.basis[idx]
    coeffs = dict(old.element.coeffs)
    pair = sorted(coeffs)[0]
    coeffs[pair] = coeffs[pair] * root_of_unity(Fraction(1, 4))
    basis = list(r.basis)
    basis[idx] = BasisVector(IncidenceElement(r.poset, coeffs),
                             old.degree, old.tag)
    corrupted = RealizedGrading(r.datum, r.poset, r.vertex_data, basis, r.full_raw)
    report = verify_grading(corrupted)
    assert not report.ok


def test_fourier_images_multiply_like_the_group():
    # psi(h) psi(h') == psi(h + h') on each diagonal block
    whole = full_subgroup(Z4)
    two = sub(Z4, [2])
    chi = dual_group(two)[1]
    r = realize(two_block_datum(Z4, whole, two, chi, Z4.zero()))
    diag = {}
    for b in r.basis:
        if b.tag[0] == "diag":
            diag[(b.tag[1], b.tag[2])] = b
    for (blk, h), b in diag.items():
        for (blk2, k), c in diag.items():
            prod = b.element * c.element
            if blk != blk2:
                assert prod.is_zero()
            else:
                h_elem = Z4.element(h) + Z4.element(k)
                assert prod == diag[(blk, h_elem.coords)].element


def _three_chain(ambient, h1, h2, h3, chi12, chi23, g12, g23):
    return chain_datum(ambient, [h1, h2, h3], [
        BimoduleClass(h1, h2, [(chi12, g12)]),
        BimoduleClass(h2, h3, [(chi23, g23)]),
    ])


def test_radical_square_z2_example():
    h = full_subgroup(Z2)
    sigma = dual_group(h)[1]
    d = _three_chain(Z2, h, h, h, sigma, trivial_character(h),
                     Z2.zero(), Z2.element([1]))
    r = realize(d)
    got = radical_square_component(r, "1", "3")
    want = BimoduleClass(h, h, [(sigma, Z2.element([1]))])
    assert bimodule_iso(got, want)[0]


def test_radical_square_fiber_example():
    whole = full_subgroup(Z4)
    two = sub(Z4, [2])
    chi = dual_group(two)[1]
    d = _three_chain(Z4, whole, two, whole, chi, trivial_character(two),
                     Z4.zero(), Z4.element([1]))
    r = realize(d)
    got = radical_square_component(r, "1", "3")
    values = sorted(c.values for c, _ in got.pairs)
    assert values == [(Fraction(1, 4),), (Fraction(3, 4),)]
    ranks, total = isotypic_rank_table(r, "1", "3")
    # two isotypic pieces of dimension |H1||H3|/|H13| = 4 each
    assert sorted(v for v in ranks.values() if v) == [4, 4]
    assert total == 8
    assert sum(ranks.values()) == total


def test_radical_square_requires_middle_block():
    h = full_subgroup(Z2)
    d = two_block_datum(Z2, h, h, trivial_character(h), Z2.zero())
    r = realize(d)
    with pytest.raises(NoIntermediateBlock):
        radical_square_component(r, "1", "2")


def test_projector_algebra():
    whole = full_subgroup(Z4)
    two = sub(Z4, [2])
    chi12 = dual_group(two)[1]
    d = _three_chain(Z4, whole, two, whole, chi12, trivial_character(two),
                     Z4.zero(), Z4.zero())
    r = realize(d)
    h13 = intersect(whole, whole)
    chars = dual_group(h13)
    left = [b for b in r.basis if b.tag[:3] == ("cross", "1", "2")]
    right = [b for b in r.basis if b.tag[:3] == ("cross", "2", "3")]
    rng = random.Random(61)
    for _ in range(6):
        u = rng.choice(left).element
        v = rng.choice(right).element
        w = u * v
        if w.is_zero():
            continue
        total = IncidenceElement(r.poset, {})
        for chi in chars:
            pw = apply_twist_projector(r, "1", "3", chi, w)
            # idempotent
            assert apply_twist_projector(r, "1", "3", chi, pw) == pw
            # orthogonal to the other projectors
            for psi in chars:
                if psi != chi:
                    assert apply_twist_projector(r, "1", "3", psi, pw).is_zero()
            total = total + pw
        # resolution of the identity on the product span
        assert total == w


def test_flatten_uses_one_common_scale():
    # one scale for all vectors keeps their integer combinations
    # proportional to the same combinations of the elements
    p = chain_poset(["x", "y"])
    pair_index = {q: n for n, q in enumerate(p.comparable_pairs())}
    a = IncidenceElement(p, {("x", "y"): Fraction(1, 2)})
    b = IncidenceElement(p, {("x", "x"): 1, ("x", "y"): Fraction(1, 3)})
    fa, fb = _flatten([a, b], pair_index, 1)
    xx, xy = pair_index[("x", "x")], pair_index[("x", "y")]
    assert (fa, fb) == ({xy: 3}, {xx: 6, xy: 2})


def _primitive(flat):
    g = 0
    for x in flat.values():
        g = gcd(g, x)
    return {c: x // g for c, x in flat.items()}


@pytest.mark.parametrize("ambient", [g for g in SWEEP_GROUPS if g.order <= 6],
                         ids=repr)
def test_projector_fast_path_matches_honest_projector(ambient):
    # the flattened pi_chi(w) of the shared isotypic helper against
    # apply_twist_projector: present exactly when the honest projection is
    # nonzero, and then a positive multiple of it
    rng = random.Random(ambient.order)
    subs = all_subgroups(ambient)
    for h1 in subs:
        for h2 in subs:
            for h3 in subs:
                g12 = rng.choice(list(ambient.elements()))
                d = _three_chain(ambient, h1, h2, h3,
                                 rng.choice(dual_group(intersect(h1, h2))),
                                 rng.choice(dual_group(intersect(h2, h3))),
                                 g12, ambient.zero())
                r = realize(d)
                products, pair_index, conductor, projected = \
                    _isotypic_flats(r, "1", "3")
                assert products
                for chi, flats in projected.items():
                    want = []
                    for w, deg in products:
                        pw = apply_twist_projector(r, "1", "3", chi, w)
                        if not pw.is_zero():
                            flat = _flatten([pw], pair_index, conductor)[0]
                            want.append((_primitive(flat), deg))
                    assert [(_primitive(f), deg) for f, deg in flats] == want


def test_link_equation_reports():
    whole = full_subgroup(Z4)
    two = sub(Z4, [2])
    chi = dual_group(two)[1]
    r = realize(two_block_datum(Z4, whole, two, chi, Z4.zero()))
    report = check_link_equation(r)
    assert report.ok
    assert report.checked_pairs == 1
    # trivial-blocks chain: all counts equal 1
    t = trivial_subgroup(Z2)
    r2 = realize(chain_datum(Z2, [t, t],
                             [trivial_class(t, t, Z2.zero())]))
    assert check_link_equation(r2).ok
    # antichain: vacuous
    from incidence_gradings.datum import GradingDatum
    from incidence_gradings.posets import antichain_poset
    d3 = GradingDatum(Z4, antichain_poset(["a", "b"]),
                      {"a": whole, "b": whole}, {})
    report3 = check_link_equation(realize(d3))
    assert report3.ok and report3.checked_pairs == 0


# ---------------------------------------------------------------------------
# group-ring products and the modular certificate against the reference


def _report_form(report):
    return ([(v.kind, v.location, v.message) for v in report.violations],
            report.dimension, report.basis_size, report.checked_products)


def _assert_same_report(r):
    got = verify_grading(r)
    assert _report_form(got) == _report_form(reference_verify_grading(r))
    return got


def _with_basis(r, basis):
    return RealizedGrading(r.datum, r.poset, r.vertex_data, basis, r.full_raw)


def _changed(vector, pair, change):
    """The basis vector with change applied to its coefficient at pair."""
    coeffs = dict(vector.element.coeffs)
    coeffs[pair] = change(coeffs[pair])
    return BasisVector(IncidenceElement(vector.element.poset, coeffs),
                       vector.degree, vector.tag)


# coefficients that are not roots of unity, one with a rational denominator
COEFFICIENT_CHANGES = {
    "two-zeta": lambda c: 2 * c,
    "one-plus-zeta": lambda c: 1 + c,
    "denominator": lambda c: c * Fraction(1, 3),
}
MUTATIONS = ("none", "degree", *COEFFICIENT_CHANGES, "duplicate", "drop")


def _mutated(r, kind, pick):
    """r with one basis vector changed as kind says; pick chooses which."""
    basis = list(r.basis)
    idx = pick % len(basis)
    old = basis[idx]
    if kind == "degree":
        nonzero = [g for g in r.ambient.elements() if not g.is_zero()]
        if not nonzero:
            return r
        basis[idx] = BasisVector(old.element,
                                 old.degree + nonzero[pick % len(nonzero)],
                                 old.tag)
    elif kind in COEFFICIENT_CHANGES:
        pair = sorted(old.element.coeffs)[pick % len(old.element.coeffs)]
        basis[idx] = _changed(old, pair, COEFFICIENT_CHANGES[kind])
    elif kind == "duplicate":
        if len(basis) < 2:
            return r
        other = basis[(idx + 1 + pick // len(basis) % (len(basis) - 1))
                      % len(basis)]
        basis[idx] = BasisVector(other.element, old.degree, old.tag)
    elif kind == "drop":
        del basis[idx]
    return _with_basis(r, basis)


@pytest.mark.parametrize("change", list(COEFFICIENT_CHANGES))
def test_projector_conjugates_with_non_root_diagonals(change):
    # a diagonal coefficient that is not a root of unity takes the
    # power-basis path of the group-ring product; the flattened
    # conjugate sums still match apply_twist_projector's
    rng = random.Random(f"non-root-{change}")
    for ambient in (Z4, AbelianGroup(0, [6]), AbelianGroup(0, [2, 2])):
        subs = [h for h in all_subgroups(ambient) if h.order > 1]
        for _ in range(4):
            h1, h3 = rng.choice(subs), rng.choice(subs)
            h2 = rng.choice(all_subgroups(ambient))
            d = _three_chain(ambient, h1, h2, h3,
                             rng.choice(dual_group(intersect(h1, h2))),
                             rng.choice(dual_group(intersect(h2, h3))),
                             rng.choice(list(ambient.elements())), ambient.zero())
            r = realize(d)
            diag = [n for n, b in enumerate(r.basis)
                    if b.tag[0] == "diag" and b.tag[1] in ("1", "3")]
            basis = list(r.basis)
            for n in rng.sample(diag, 2):
                pair = rng.choice(sorted(basis[n].element.coeffs))
                basis[n] = _changed(basis[n], pair, COEFFICIENT_CHANGES[change])
            r = _with_basis(r, basis)
            products, pair_index, conductor, projected = \
                _isotypic_flats(r, "1", "3")
            for chi, flats in projected.items():
                want = []
                for w, deg in products:
                    pw = apply_twist_projector(r, "1", "3", chi, w)
                    if not pw.is_zero():
                        flat = _flatten([pw], pair_index, conductor)[0]
                        want.append((_primitive(flat), deg))
                assert [(_primitive(f), deg) for f, deg in flats] == want


def test_verify_grading_matches_reference_oracle():
    # the group-ring products and the modular certificate give the report
    # of the general products and the zeta-closed Q-elimination, field by
    # field, on realizations and on corrupted copies of them
    tally = {"data": 0, "valid": 0, "flagged": 0}

    @settings(max_examples=500, derandomize=True, database=None,
              deadline=None, suppress_health_check=list(HealthCheck))
    @given(grading_data([(labels, covers) for _, labels, covers in ACCEPTANCE_SHAPES],
                        SWEEP_GROUPS),
           st.sampled_from(MUTATIONS),
           st.integers(0, 10 ** 6))
    def check(d, kind, pick):
        tally["data"] += 1
        if not validate_datum(d).valid:
            return
        tally["valid"] += 1
        report = _assert_same_report(_mutated(realize(d), kind, pick))
        tally["flagged"] += not report.ok

    check()
    assert tally["data"] >= 500
    assert tally["valid"] >= 300 and tally["flagged"] >= 100


def _realized_along_first_chains(d):
    # derived along the first saturated chain of each pair only, the B_3
    # datum over Z/3 validates and realizes to an algebra that is not graded
    def first_chain(skeleton, i, j):
        return saturated_chains(skeleton, i, j)[:1]

    with mock.patch("helpers.saturated_chains", first_chain), \
            mock.patch.object(datum_mod, "_derive", reference_derive):
        return realize(d)


@pytest.mark.parametrize("realized", [
    lambda: realize(diamond_over_z2()),
    lambda: realize(chain_over_z8()),
    lambda: _realized_along_first_chains(b3_over_z3()),
], ids=["diamond-z2", "chain-z8", "b3-z3"])
def test_verify_grading_matches_reference_on_non_graded_data(realized):
    r = realized()
    assert "product-escape" in {v.kind for v in _assert_same_report(r).violations}
    for kind in MUTATIONS[1:]:
        for pick in range(0, 40, 7):
            _assert_same_report(_mutated(r, kind, pick))


def test_modular_root_is_a_root_of_the_cyclotomic_polynomial():
    for n in list(range(1, 65)) + [CONDUCTOR_BUDGET]:
        p, r = _modular_root(n)
        assert p > 2 ** 62 and (p - 1) % n == 0 and _is_prime(p)
        # the least such prime: every smaller candidate is composite
        assert not any(_is_prime(q) for q in range(p - n, 2 ** 62, -n))
        assert pow(r, n, p) == 1
        assert all(pow(r, n // q, p) != 1 for q in range(2, n + 1)
                   if n % q == 0)
        value = 0
        for c in reversed(cyclotomic_polynomial(n)):
            value = (value * r + c) % p
        assert value == 0
    # Miller-Rabin against trial division, and on a strong pseudoprime
    small = [q for q in range(2, 2000)
             if all(q % s for s in range(2, int(q ** 0.5) + 1))]
    assert [q for q in range(2000) if _is_prime(q)] == small
    assert not _is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 7),
                                st.integers(-9, 9).filter(bool), max_size=5),
                min_size=1, max_size=8),
       st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99),
                          st.integers(-3, 3)), max_size=4))
def test_rank_mod_p_matches_rational_rank(vectors, planted):
    # planted dependencies: b + c * a of earlier vectors a and b, sparse
    # like every vector the row spaces take (no zero entries)
    vectors = list(vectors)
    for a, b, c in planted:
        x, y = vectors[a % len(vectors)], vectors[b % len(vectors)]
        combo = {col: y.get(col, 0) + c * x.get(col, 0)
                 for col in set(x) | set(y)}
        vectors.append({col: v for col, v in combo.items() if v})
    space = RationalRowSpace()
    for v in vectors:
        space.add(v)
    # an 8 x 8 minor of the drawn vectors stays below p in size, so a
    # nonzero one stays nonzero mod p and the ranks agree
    p, _ = _modular_root(12)
    assert _rank_mod_p(vectors, p) == space.rank
    # modulo a small prime the rank can only drop
    assert _rank_mod_p(vectors, 13) <= space.rank


def test_rank_mod_p_sees_a_dependency_that_exists_only_mod_p():
    vectors = [{0: 1, 1: 2}, {0: 3, 1: 19}]  # determinant 13
    space = RationalRowSpace()
    assert all(space.add(v) for v in vectors)
    assert _rank_mod_p(vectors, 13) == 1
    assert _rank_mod_p(vectors, 17) == 2


def _z12_realization():
    z12 = AbelianGroup(0, [12])
    whole, four = full_subgroup(z12), sub(z12, [3])
    chi = dual_group(four)[1]
    r = realize(two_block_datum(z12, whole, four, chi, z12.element([1])))
    assert _conductor_of([b.element for b in r.basis]) == 12
    return r


def _times(r, idx, factor):
    basis = list(r.basis)
    old = basis[idx]
    basis[idx] = BasisVector(old.element.scale(factor), old.degree, old.tag)
    return _with_basis(r, basis)


def test_full_rank_certificate_falls_back_to_exact_flags(monkeypatch):
    r = _z12_realization()
    pair_index = {p: n for n, p in enumerate(r.poset.comparable_pairs())}

    def certified(r):
        pres, scale = _ring_preimages([b.element for b in r.basis], 12)
        return _full_rank_mod_p(pres, scale, pair_index, 12)

    p, _ = _modular_root(12)
    assert certified(r)
    # a basis vector times p (or over a denominator p) vanishes mod p, yet
    # the basis still has full rank: the exact path must say so
    for corrupted in (_times(r, 3, p), _times(r, 3, Fraction(1, p))):
        assert not certified(corrupted)
        assert _assert_same_report(corrupted).ok
    # modulo 13 = 1 (mod 12), with the primitive 12th root 2, the same
    # holds for a factor 13; and a planted dependency is flagged exactly
    monkeypatch.setattr(oracle, "_modular_root", lambda n: (13, 2))
    assert not certified(_times(r, 3, 13))
    assert _assert_same_report(_times(r, 3, 13)).ok
    for pick in range(5):
        kinds = {v.kind for v in
                 _assert_same_report(_mutated(r, "duplicate", pick)).violations}
        assert {"dependent-basis", "not-spanning"} <= kinds
