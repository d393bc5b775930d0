import itertools
import json
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import prod
from pathlib import Path
from types import SimpleNamespace
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
from incidence_gradings.characters import (
    dual_group,
    exponent_rows,
    restrict,
    trivial_character,
)
from incidence_gradings import cli, jsonio, oracle
from incidence_gradings import datum as datum_mod
from incidence_gradings.cyclo import euler_phi, root_of_unity
from incidence_gradings.datum import (
    BasisVector,
    GradingDatum,
    RealizedGrading,
    realize,
    validate_datum,
)
from incidence_gradings.errors import (
    DegreeConflict,
    IncidenceGradingsError,
    InvalidElement,
    NoIntermediateBlock,
)
from incidence_gradings.incidence import IncidenceElement, RootElement
from incidence_gradings.oracle import (
    _by_first,
    _components,
    _conductor_of,
    _Degrees,
    _full_rank,
    _generating_set,
    _isotypic_degrees,
    _reduce,
    _ring_preimages,
    _ring_product,
    _row_key,
    _shape_product,
    _split,
    _translations,
    _zeta_closed_space,
    check_link_equation,
    radical_square_component,
    verify_grading,
)
from incidence_gradings.posets import Poset, chain_poset, poset_from_relation
from incidence_gradings.rowspan import RationalRowSpace

from helpers import (
    ACCEPTANCE_SHAPES,
    CHARACTER_GROUPS,
    SWEEP_GROUPS,
    apply_twist_projector,
    b3_over_z3,
    chain_datum,
    grading_data,
    chain_over_z8,
    diamond_over_z2,
    honest_projections,
    isotypic_rank_table,
    plant_malformed_basis,
    reference_check_link_equation,
    reference_derive_rows,
    reference_isotypic_degrees,
    reference_radical_square_component,
    reference_verify_grading,
    saturated_chains,
    two_block_datum,
    with_reversed_cross_pair,
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


def test_radical_square_requires_comparable_blocks():
    r = realize(_golden("z16-chain3"))
    with pytest.raises(NoIntermediateBlock, match="not comparable"):
        radical_square_component(r, "2", "1")


def test_radical_square_refuses_an_unknown_label():
    r = realize(_golden("z16-chain3"))
    for i, k in (("x", "3"), ("1", "x")):
        with pytest.raises(NoIntermediateBlock, match="not comparable"):
            radical_square_component(r, i, k)


@pytest.mark.parametrize("case", ["empty-tag", "short-tag", "swapped-diagonal-tags"])
def test_radical_square_reads_no_tag(case):
    # the blocks, their images and the cross members are read off the
    # elements and degrees, so a tag that names no slot, or two diagonal
    # images with swapped tags, change nothing; the tag-based reference
    # takes the swapped images for each other and finds another class
    r = realize(_golden("z16-chain3"))
    planted = plant_malformed_basis(r, case)
    want = radical_square_component(r, "1", "3")
    assert radical_square_component(planted, "1", "3") == want
    if case == "swapped-diagonal-tags":
        assert reference_radical_square_component(planted, "1", "3") != want


MALFORMED_BASES = [
    ("dropped-diagonal", InvalidElement, "no diagonal image of \\(0,\\) in block '1'"),
    # the planted member is no diagonal member, so block 1 lacks psi_1(0)
    ("cross-on-diagonal", InvalidElement, "no diagonal image of \\(0,\\) in block '1'"),
    ("shifted-degree", DegreeConflict, "has degrees in several cosets"),
]


@pytest.mark.parametrize("case, error, message", MALFORMED_BASES,
                         ids=[case for case, _, _ in MALFORMED_BASES])
def test_radical_square_refuses_a_malformed_basis(case, error, message):
    r = realize(_golden("z16-chain3"))
    with pytest.raises(error, match=message):
        radical_square_component(plant_malformed_basis(r, case), "1", "3")


# the refusal must not rest on `assert`, which `python -O` strips
OPTIMIZED_PROBE = """
import json, sys
sys.path[:0] = sys.argv[1:3]
from helpers import plant_malformed_basis
from incidence_gradings import jsonio
from incidence_gradings.datum import realize
from incidence_gradings.oracle import radical_square_component
r = realize(jsonio.decode_datum(json.loads(open(sys.argv[3]).read())))
try:
    radical_square_component(plant_malformed_basis(r, "cross-on-diagonal"), "1", "3")
except Exception as exc:
    print(type(exc).__name__)
"""


def test_radical_square_refuses_a_malformed_basis_under_python_O():
    tests = Path(__file__).resolve().parent
    done = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_PROBE, str(tests.parent / "src"),
         str(tests), str(DATA / "z16-chain3.json")],
        capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "InvalidElement\n", "")


def _outcome(check, *args):
    """check(*args), or the type and message of the library error it raised."""
    try:
        return check(*args)
    except IncidenceGradingsError as exc:
        return type(exc), str(exc)


def _assert_reading_matches_the_tags(d):
    """The reading-based radical-square check on every non-cover pair of d,
    and the link check, give what the tag-based references give; returns
    the number of pairs."""
    r = realize(d)
    pairs = [(i, k) for i, k in d.comparable_block_pairs()
             if (i, k) not in d.cover_bimodules]
    for i, k in pairs:
        assert (_outcome(_isotypic_degrees, r, i, k)
                == _outcome(reference_isotypic_degrees, r, i, k)), (i, k)
        assert (_outcome(radical_square_component, r, i, k)
                == _outcome(reference_radical_square_component, r, i, k)), (i, k)
    assert check_link_equation(r) == reference_check_link_equation(r)
    return len(pairs)


def test_reading_checks_match_the_tag_based_references():
    # every golden datum and 450 derandomized sweep draws, of which at
    # least 300 are valid
    assert sum(_assert_reading_matches_the_tags(d) for _, d in _golden_data()) == 39
    tally = Counter()

    @settings(max_examples=450, derandomize=True, database=None,
              deadline=None, suppress_health_check=list(HealthCheck))
    @given(grading_data([(labels, covers) for _, labels, covers in ACCEPTANCE_SHAPES],
                        SWEEP_GROUPS))
    def check(d):
        if validate_datum(d).valid:
            tally["valid"] += 1
            tally["pairs"] += _assert_reading_matches_the_tags(d)

    check()
    assert tally["valid"] >= 300 and tally["pairs"] >= 100


def test_link_check_matches_the_reference_without_two_covers():
    # one cover dropped below block 2 and one above it: both block pairs
    # break the identity, and the violations come in the reference's order
    r = realize(_golden("z16-chain3"))
    covers = r.poset.covers()
    dropped = {next(p for p in covers if r.block_of_vertex(p[0]) == "1"),
               next(p for p in covers if r.block_of_vertex(p[0]) == "2")}
    elements = r.poset.elements
    up = [{n for n, y in enumerate(elements)
           if r.poset.leq(x, y) and (x, y) not in dropped} for x in elements]
    planted = RealizedGrading(r.datum, Poset(elements, up), r.vertex_data, r.basis,
                              r.full_raw)
    report = check_link_equation(planted)
    assert {(i, j) for i, j, _, _ in report.violations} == {("1", "2"), ("2", "3")}
    assert report == reference_check_link_equation(planted)


@pytest.mark.parametrize("case", ["dropped-diagonal", "shifted-degree", "cross-on-diagonal"])
def test_malformed_bases_raise_what_the_tag_based_reference_raises(case):
    # the same error and message, but for the cross member planted on a
    # diagonal image: the reading files it as a cross member and misses
    # psi_1(0), where the reference found an off-diagonal entry
    planted = plant_malformed_basis(realize(_golden("z16-chain3")), case)
    got, want = (_outcome(check, planted, "1", "3") for check in
                 (radical_square_component, reference_radical_square_component))
    if case == "cross-on-diagonal":
        assert got[0] is want[0] is InvalidElement
    else:
        assert got == want


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
    pres = _ring_preimages([a, b], 1)
    fa, fb = (_reduce(pre, pair_index, 1) for pre in pres)
    xx, xy = pair_index[("x", "x")], pair_index[("x", "y")]
    assert (fa, fb) == ({xy: 3}, {xx: 6, xy: 2})


def _check_projections(r, i="1", k="3"):
    # the degrees of the products each character keeps, against those of
    # the nonzero apply_twist_projector images
    products, honest = honest_projections(r, i, k)
    assert _isotypic_degrees(r, i, k) == {
        chi: [deg.coords for pw, deg in images] for chi, images in honest.items()}
    return products, honest


def test_kept_degrees_match_the_honest_projector_through_two_middles():
    # (1, 4) of z2xz2-chain4 goes through 2 and through 3
    r = realize(_golden("z2xz2-chain4"))
    assert r.datum.skeleton.strictly_between("1", "4") == ["2", "3"]
    for i, k in (("1", "3"), ("1", "4"), ("2", "4")):
        products, honest = _check_projections(r, i, k)
        assert products and any(honest.values()), (i, k)


@pytest.mark.parametrize("ambient", [g for g in SWEEP_GROUPS if g.order <= 6],
                         ids=repr)
def test_projector_fast_path_matches_honest_projector(ambient):
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
                products, _ = _check_projections(realize(d))
                assert products


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


def test_link_equation_flags_a_missing_relation():
    # blocks of orders 4 and 2: each lower vertex lies below one upper
    # vertex, each upper vertex above two lower ones, 4 links in all
    whole = full_subgroup(Z4)
    two = sub(Z4, [2])
    r = realize(two_block_datum(Z4, whole, two, dual_group(two)[1], Z4.zero()))
    assert check_link_equation(r).ok
    # drop the cover 1|0 < 2|1/2: nothing lies between, so the relation
    # stays transitive, and 3 links break both sides of the identity
    elements = r.poset.elements
    dropped = ("1|0", "2|1/2")
    assert dropped in r.poset.covers()
    up = [{n for n, y in enumerate(elements)
           if r.poset.leq(x, y) and (x, y) != dropped} for x in elements]
    poset = Poset(elements, up)
    report = check_link_equation(
        RealizedGrading(r.datum, poset, r.vertex_data, r.basis, r.full_raw))
    left, right = ("left link count breaks the identity",
                   "right link count breaks the identity")
    assert report.checked_pairs == 1
    assert report.violations == [
        ("1", "2", "1|0", left), ("1", "2", "1|1/4", left),
        ("1", "2", "1|1/2", left), ("1", "2", "1|3/4", left),
        ("1", "2", "2|0", right), ("1", "2", "2|1/2", right)]


# ---------------------------------------------------------------------------
# group-ring products and the full-rank check against the reference


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
    # power-basis path of the group-ring product; the reduced conjugate
    # sums still match apply_twist_projector's
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
            _check_projections(_with_basis(r, basis))


@pytest.mark.parametrize("ambient, change", [
    (Z4, Fraction(1, 4)), (Z4, Fraction(1, 8)),
    (AbelianGroup(0, [2, 2]), Fraction(1, 2)), (AbelianGroup(0, [6]), Fraction(1, 6)),
], ids=["z4-zeta4", "z4-zeta8", "z2xz2-zeta2", "z6-zeta6"])
def test_projector_multiplier_without_a_character_row(ambient, change):
    # one diagonal entry of psi_1(h) or psi_3(h) times a root of unity: the
    # rows h -> L_x(h) R_y(h) at its vertex are no character's row (a
    # character is nonzero on at least two elements of a group of order
    # above 2), so several characters keep those pairs, and the
    # multipliers still match apply_twist_projector
    rng = random.Random(f"no-character-row-{ambient}-{change}")
    whole = full_subgroup(ambient)
    for _ in range(3):
        h2 = rng.choice(all_subgroups(ambient))
        d = _three_chain(ambient, whole, h2, whole,
                         rng.choice(dual_group(intersect(whole, h2))),
                         rng.choice(dual_group(intersect(h2, whole))),
                         rng.choice(list(ambient.elements())), ambient.zero())
        r = realize(d)
        diag = [n for n, b in enumerate(r.basis)
                if b.tag[0] == "diag" and b.tag[1] in ("1", "3")]
        basis = list(r.basis)
        n = rng.choice(diag)
        pair = rng.choice(sorted(basis[n].element.coeffs))
        basis[n] = _changed(basis[n], pair, lambda c: c * root_of_unity(change))
        _, honest = _check_projections(_with_basis(r, basis))
        kept = {}
        for chi, images in honest.items():
            for pw, _ in images:
                for p in pw.coeffs:
                    kept.setdefault(p, set()).add(chi)
        assert any(len(chis) > 1 for chis in kept.values())


def test_verify_grading_matches_reference_oracle():
    # the group-ring products and the full-rank check give the report
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
            mock.patch.object(datum_mod, "_derive", reference_derive_rows):
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


# ---------------------------------------------------------------------------
# the full-rank check by character tables


def _accepted(shape, conductor):
    """The full-rank check with its caller's count test: as many members
    as pairs."""
    pairs = set().union(*shape) if shape else set()
    return len(shape) == len(pairs) and _full_rank(shape, conductor) is not None


def _exact_full_rank(shape, coefficients, conductor):
    # the zeta-closed Q-rank of the members c_m * (x^(e_p))_p is phi * dim
    pairs = sorted(set().union(*shape), key=repr) if shape else []
    pair_index = {p: n for n, p in enumerate(pairs)}
    preimages = [{(*p, e): c for p, e in exps.items()}
                 for exps, c in zip(shape, coefficients)]
    rank = _zeta_closed_space(preimages, pair_index, conductor).rank
    return len(shape) == len(pairs) and rank == euler_phi(conductor) * len(pairs)


def _table_cell(cell, table, rng, conductor):
    """One member per row of table, each {(cell, column): exponent}, with
    every row and column offset by a random exponent (a unit scaling) and
    the rows and columns shuffled."""
    rows = [list(row) for row in table]
    rng.shuffle(rows)
    cols = list(range(len(rows[0])))
    rng.shuffle(cols)
    col_shift = [rng.randrange(conductor) for _ in cols]
    out = []
    for row in rows:
        shift = rng.randrange(conductor)
        out.append({(cell, c): (row[c] + shift + col_shift[c]) % conductor
                    for c in cols})
    return out


def _group_table(factors, conductor):
    # N * chi(g) mod N for g and chi in Z/d_1 x ... x Z/d_k (each d | N)
    elements = list(itertools.product(*[range(d) for d in factors]))
    return [[sum(conductor // d * g * c for d, g, c in zip(factors, gs, cs))
             % conductor for cs in elements] for gs in elements]


CELL_MUTATIONS = ("none", "row", "duplicate-row", "duplicate-column",
                  "overlap", "drop-pair")


def _mutated_cells(cells, kind, rng, conductor):
    shape = [dict(exps) for cell in cells for exps in cell]
    m = rng.randrange(len(shape))
    if kind == "row":
        shape[m] = {p: rng.randrange(conductor) for p in shape[m]}
    elif kind == "duplicate-row":
        same = [n for n, exps in enumerate(shape) if exps.keys() == shape[m].keys()]
        shape[m] = dict(shape[rng.choice(same)])
    elif kind == "duplicate-column":
        p, q = rng.choice(list(shape[m])), rng.choice(list(shape[m]))
        shift = rng.randrange(conductor)
        for exps in shape:
            if p in exps:
                exps[p] = (exps[q] + shift) % conductor
    elif kind == "overlap":
        # one pair of member m moved into another cell's support
        other = [p for exps in shape for p in exps if p not in shape[m]]
        if other:
            shape[m].pop(rng.choice(list(shape[m])))
            shape[m][rng.choice(other)] = rng.randrange(conductor)
    elif kind == "drop-pair":
        shape[m].pop(rng.choice(list(shape[m])))
    return shape


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.sampled_from([2, 3, 4, 6, 8, 12]),
       st.lists(st.lists(st.integers(1, 12), max_size=2), min_size=1, max_size=3),
       st.sampled_from(CELL_MUTATIONS),
       st.integers(0, 10 ** 6))
def test_full_rank_check_is_sound_on_monomial_cells(conductor, groups, kind, seed):
    # cells of full character tables of groups Z/d_1 x Z/d_2 (d | N, order
    # at most 8), offset by units and mutated: the check accepts every
    # unmutated basis and says True only where the exact rank is full
    rng = random.Random(seed)
    cells = []
    for n, factors in enumerate(groups):
        factors = [d for d in factors if conductor % d == 0 and d > 1]
        while prod(factors) > 8:
            factors.pop()
        cells.append(_table_cell(n, _group_table(factors, conductor), rng,
                                 conductor))
    shape = _mutated_cells(cells, kind, rng, conductor)
    coefficients = [rng.choice([-3, -1, 1, 2, 5]) for _ in shape]
    accepted = _accepted(shape, conductor)
    if kind == "none":
        assert accepted
    if accepted:
        assert _exact_full_rank(shape, coefficients, conductor)


def test_full_rank_check_on_the_character_tables_of_the_groups():
    # each group's table and its transpose (the table of the dual) are
    # accepted under any unit scaling, and agree with the exact rank; a
    # repeated column or a row moved off the group is refused, though the
    # second can still have full rank
    rng = random.Random("character tables")
    for group in [g for g in CHARACTER_GROUPS if g.is_finite]:
        h = full_subgroup(group)
        conductor = h.exponent()
        table = exponent_rows(h, conductor)
        for rows in (table, [list(col) for col in zip(*table)]):
            shape = _table_cell(0, rows, rng, conductor)
            assert _accepted(shape, conductor), group
            if len(shape) <= 8:
                assert _exact_full_rank(shape, [1] * len(shape), conductor)
            if len(shape) > 1:
                p, q = list(shape[0])[:2]
                repeated = [{**exps, p: exps[q]} for exps in shape]
                assert not _accepted(repeated, conductor)
                moved = [dict(exps) for exps in shape]
                moved[1][p] = (moved[1][p] + 1) % conductor
                assert not _accepted(moved, conductor)
    # square cells of distinct rows and columns that are no group are
    # refused, though they may have full rank: the Fourier matrix of
    # Z/2 x Z/2 with one sign changed, and three rows of signs
    hadamard = [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 1], [0, 1, 1, 0]]
    flipped = [row[:] for row in hadamard]
    flipped[3][3] = 1
    for rows in (flipped, [[0, 0, 0], [0, 1, 0], [0, 0, 1]]):
        shape = [{(0, c): e for c, e in enumerate(row)} for row in rows]
        assert not _accepted(shape, 2)
        assert _exact_full_rank(shape, [1] * len(shape), 2)
    # disjoint cells make a block-diagonal basis; overlapping supports
    # prove nothing, even where the members are a basis
    one = [{(0, 0): 0}]
    two = [{(1, 0): 0, (1, 1): 0}, {(1, 0): 0, (1, 1): 1}]
    assert _accepted(one + two, 2)
    overlapping = [{(0, 0): 0}, {(0, 0): 0, (0, 1): 0}]
    assert not _accepted(overlapping, 2)
    assert _exact_full_rank(overlapping, [1, 1], 2)


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


def _cells(r):
    """(shape, cells, conductor) of the full-rank step of verify_grading;
    cells is None when the step refuses the basis."""
    elems = [b.element for b in r.basis]
    conductor = _conductor_of(elems)
    shape = _components(elems, conductor)
    return shape, None if shape is None else _full_rank(shape, conductor), conductor


def _check_accepts(r):
    # the full-rank step of verify_grading, before the certificate
    return _cells(r)[1] is not None


def test_full_rank_check_falls_back_to_exact_flags(monkeypatch):
    r = _z12_realization()
    assert _check_accepts(r)
    # a member times a nonzero rational is still one coefficient times one
    # root of unity per pair: the check and the certificate read it so
    verdicts = _spy_certificate(monkeypatch)
    for factor in (13, Fraction(1, 13), 2 ** 64 + 13, -13):
        scaled = _times(r, 3, factor)
        assert _check_accepts(scaled), factor
        assert _assert_same_report(scaled).ok
        assert verdicts.pop() is True, factor
    # times 1 + zeta_12, a member is no longer one root of unity per pair:
    # the check refuses a basis that still has full rank, and the exact
    # path says so
    one_plus_zeta = 1 + root_of_unity(Fraction(1, 12))
    assert not _check_accepts(_times(r, 3, one_plus_zeta))
    assert _assert_same_report(_times(r, 3, one_plus_zeta)).ok
    # a planted dependency is refused by the check and flagged exactly
    for pick in range(5):
        duplicated = _mutated(r, "duplicate", pick)
        assert not _check_accepts(duplicated)
        kinds = {v.kind for v in _assert_same_report(duplicated).violations}
        assert {"dependent-basis", "not-spanning"} <= kinds


# ---------------------------------------------------------------------------
# the certificate from a homogeneous generating set


DATA = Path(__file__).parent / "data"


def _spy_certificate(monkeypatch):
    """The verdicts of the certificate, one per verify_grading call that
    reaches it (a basis that fails the full-rank step never does)."""
    verdicts = []
    certified = oracle._certified

    def spy(*args):
        verdicts.append(certified(*args))
        return verdicts[-1]

    monkeypatch.setattr(oracle, "_certified", spy)
    return verdicts


def _coboundary_datum(ambient, labels, covers, rng):
    """A valid datum whose every cover is mu_u / mu_w of degree p_w - p_u;
    blocks are drawn again while the chains of a diamond disagree."""
    skeleton = poset_from_relation(labels, covers)
    while True:
        blocks = {v: rng.choice(all_subgroups(ambient)) for v in labels}
        mu = {v: rng.choice(dual_group(blocks[v])) for v in labels}
        pot = {v: rng.choice(list(ambient.elements())) for v in labels}
        classes = {}
        for u, w in covers:
            mid = intersect(blocks[u], blocks[w])
            chi = restrict(mu[u], mid) * restrict(mu[w], mid).inverse()
            classes[(u, w)] = BimoduleClass(blocks[u], blocks[w],
                                            [(chi, pot[w] - pot[u])])
        d = GradingDatum(ambient, skeleton, blocks, classes)
        if validate_datum(d).valid:
            return d


def _golden(name):
    return jsonio.decode_datum(json.loads((DATA / f"{name}.json").read_text()))


def _golden_data():
    for path in sorted(DATA.glob("*.json")):
        if not path.name.endswith(".verify.json"):
            yield path.stem, _golden(path.stem)


def _certified_data():
    yield from _golden_data()
    rng = random.Random("certificate")
    for ambient in SWEEP_GROUPS[:4]:
        for name, labels, covers in ACCEPTANCE_SHAPES:
            yield f"{name}/{ambient}", _coboundary_datum(ambient, labels, covers, rng)


def test_certificate_decides_graded_data(monkeypatch):
    # the golden data (both Z/64 probes among them) and every acceptance
    # shape over the small sweep groups: every graded one is certified, so
    # the dim^2 loop never runs on it
    verdicts = _spy_certificate(monkeypatch)
    certified, refused = [], []
    for name, d in _certified_data():
        r = realize(d)
        report = verify_grading(r)
        if verdicts.pop():
            assert report.ok, name
            assert report.checked_products == report.dimension ** 2, name
            certified.append(name)
        else:
            # a valid datum whose realization is not graded (ROADMAP item 1)
            assert not reference_verify_grading(r).ok, name
            refused.append(name)
    assert len(certified) == 41 and refused == ["diamond/AbelianGroup(Z/4)"]


def _one_block_seeds(r):
    block = r.datum.skeleton.elements[0]
    return [n for n, b in enumerate(r.basis)
            if b.tag[0] == "diag" and b.tag[1] == block]


@pytest.mark.parametrize("realized", [
    lambda: realize(two_block_datum(Z4, full_subgroup(Z4), sub(Z4, [2]),
                                    dual_group(sub(Z4, [2]))[1], Z4.element([1]))),
    lambda: realize(diamond_over_z2()),
], ids=["fiber-z4", "diamond-z2"])
def test_certificate_falls_back_when_the_seeds_do_not_generate(monkeypatch, realized):
    # seeds from one block reach no member of another block's strip: (d)
    # fails and the dim^2 loop gives the reference report
    r = realized()
    verdicts = _spy_certificate(monkeypatch)
    monkeypatch.setattr(oracle, "_generating_set", lambda *_: _one_block_seeds(r))
    _assert_same_report(r)
    assert verdicts == [False]


@pytest.mark.parametrize("realized", [
    lambda: realize(diamond_over_z2()),
    lambda: realize(chain_over_z8()),
    lambda: _realized_along_first_chains(b3_over_z3()),
], ids=["diamond-z2", "chain-z8", "b3-z3"])
def test_certificate_refuses_non_graded_data(monkeypatch, realized):
    r = realized()
    verdicts = _spy_certificate(monkeypatch)
    report = _assert_same_report(r)
    assert verdicts == [False]
    assert report.violations and {v.kind for v in report.violations} == {"product-escape"}


def _chain2_by_hand(entries):
    """A basis of I(x < y) over Z/2 from {pair: exponent of zeta_4} and a
    degree per vector; the realized two-point chain supplies the poset."""
    t = trivial_subgroup(Z2)
    r = realize(two_block_datum(Z2, t, t, trivial_character(t), Z2.zero()))
    (xx, yy, xy) = sorted(r.poset.comparable_pairs(), key=lambda p: (p[0] != p[1], p))
    names = {"xx": xx, "yy": yy, "xy": xy}
    basis = [BasisVector(IncidenceElement(r.poset, {
                 names[p]: root_of_unity(Fraction(e, 4)) for p, e in coeffs.items()}),
                 Z2.element([deg]), ("by-hand",))
             for coeffs, deg in entries]
    return _with_basis(r, basis)


# 1 = e_xx + e_yy of degree 0, e_xx - e_yy of degree 1 and e_xy of degree 0:
# every product lies in some V_g, but (e_xx - e_yy) * e_xy = e_xy has degree
# 1 and is nonzero off the support of V_1
OFF_SUPPORT = [({"xx": 0, "yy": 0}, 0), ({"xx": 0, "yy": 2}, 1), ({"xy": 0}, 0)]


def test_certificate_checks_products_off_the_supports(monkeypatch):
    r = _chain2_by_hand(OFF_SUPPORT)
    verdicts = _spy_certificate(monkeypatch)
    monkeypatch.setattr(oracle, "_generating_set", lambda shape, *_: list(range(len(shape))))
    report = _assert_same_report(r)
    assert verdicts == [False]
    assert [v.location for v in report.violations] == ["basis[1] * basis[2]",
                                                       "basis[2] * basis[1]"]


def test_certificate_needs_every_member_reached(monkeypatch):
    # from the identity alone, (c) holds (1 * v = v) and nothing else is
    # reached: only (d) refuses
    r = _chain2_by_hand(OFF_SUPPORT)
    verdicts = _spy_certificate(monkeypatch)
    monkeypatch.setattr(oracle, "_generating_set", lambda *_: [0])
    assert not _assert_same_report(r).ok
    assert verdicts == [False]


def test_certificate_gives_up_on_shared_supports(monkeypatch):
    # e_xx - e_yy and e_xx + e_yy, both of degree 0, share the support
    # {xx, yy}; the grading (with e_xy of degree 1) is fine and the cell
    # has full rank, but a multiple test against one member would not
    # decide the span of two.  Read against e_xx + e_yy alone, every split
    # would hold and every member be reached
    r = _chain2_by_hand([({"xx": 0, "yy": 2}, 0), ({"xx": 0, "yy": 0}, 0),
                         ({"xy": 0}, 1)])
    assert _check_accepts(r)
    assert [members for members, *_ in _cells(r)[1]] == [[0, 1], [2]]
    verdicts = _spy_certificate(monkeypatch)
    assert _assert_same_report(r).ok
    assert verdicts == [False]


DIAMOND = [("x", "y1"), ("x", "y2"), ("y1", "z"), ("y2", "z")]


def _by_hand(covers, entries):
    """A basis of I(X) over Q(zeta_4), degrees in Z/8, from {(a, b):
    exponent of zeta_4} and a degree per vector, X the poset of the covers
    on their labels; a realization over trivial blocks supplies X, with
    vertex a named "a|"."""
    z8 = AbelianGroup(0, [8])
    t = trivial_subgroup(z8)
    labels = sorted({v for cover in covers for v in cover})
    r = realize(GradingDatum(z8, poset_from_relation(labels, covers),
                             {v: t for v in labels},
                             {c: trivial_class(t, t, z8.zero()) for c in covers}))
    return _with_basis(r, [
        BasisVector(IncidenceElement.from_roots(
                        r.poset, 4, {(f"{a}|", f"{b}|"): e
                                     for (a, b), e in roots.items()}),
                    z8.element([deg]), ("by-hand",))
        for roots, deg in entries])


def _diamond_by_hand():
    """A basis of I(x < y1, y2 < z) (`_by_hand`): the vertex idempotents
    of degree 0, e_xy1 + e_xy2 of degree 1, e_xy1 - e_xy2 of degree 2,
    e_y1z + zeta e_y2z of degree 3, e_y1z - zeta e_y2z and e_xz of degree
    4."""
    return _by_hand(DIAMOND, [({(v, v): 0}, 0) for v in ("x", "y1", "y2", "z")] + [
        ({("x", "y1"): 0, ("x", "y2"): 0}, 1),
        ({("x", "y1"): 0, ("x", "y2"): 2}, 2),
        ({("y1", "z"): 0, ("y2", "z"): 1}, 3),
        ({("y1", "z"): 0, ("y2", "z"): 3}, 4),
        ({("x", "z"): 0}, 4)])


def test_split_reads_one_multiple_per_touched_member():
    # members 0 = x^0 e_p + x^1 e_q and 1 = x^0 e_t over Q(zeta_4); a
    # product is {pair: {exponent: count}}, its common factor left out
    p, q, t, off = ("a", "b"), ("a", "c"), ("d", "d"), ("b", "c")
    shape = [{p: 0, q: 1}, {t: 0}]
    owner = {p: 0, q: 0, t: 1}

    def split(w):
        members = oracle._split(w, owner, shape, 4)
        return None if members is None else sorted(members)

    assert split({}) == []
    assert split({p: {3: 2}, q: {0: 2}, t: {1: 5}}) == [0, 1]
    # the counts differ between p and q: 2 x^3 e_p + x^0 e_q is no multiple
    assert split({p: {3: 2}, q: {0: 1}}) is None
    # the shifts differ, a pair holds two terms that do not cancel (1 +
    # zeta_4), a pair is missing
    assert split({p: {3: 1}, q: {3: 1}}) is None
    assert split({p: {0: 1, 1: 1}, q: {1: 1}}) is None
    assert split({p: {0: 1}}) is None
    # a pair whose terms cancel is zero: x^0 + x^2 maps to 1 + zeta_4^2 =
    # 0.  A member zero on its whole support (q missing) is left out; one
    # zero on only part of it gives nothing
    assert split({p: {0: 1, 2: 1}, t: {1: 5}}) == [1]
    assert split({p: {0: 1, 2: 1}, q: {1: 3, 3: 3}}) == []
    assert split({p: {0: 1, 2: 1}, q: {1: 1}}) is None
    # off the supports w must vanish
    assert split({p: {0: 1}, q: {1: 1}, off: {0: 3, 2: 3}}) == [0]
    assert split({p: {0: 1}, q: {1: 1}, off: {0: 3, 2: 1}}) is None
    assert split({off: {1: 1}}) is None


def test_certificate_gives_up_on_a_pair_without_one_term(monkeypatch):
    # the basis has full rank and single-member support components, but is
    # not graded: e_xy1 + e_xy2 times e_y1 is e_xy1, of degree 1, on the
    # support of the one degree-1 member and not a multiple of it.  The
    # split that gives up finds every term on a member's support and some
    # pair of that support holding other than one term
    r = _diamond_by_hand()
    assert _check_accepts(r)
    gave_up = []
    split = oracle._split

    def spy(w, owner, shape, conductor):
        members = split(w, owner, shape, conductor)
        if members is None:
            gave_up.append((w, owner, shape))
        return members

    monkeypatch.setattr(oracle, "_split", spy)
    verdicts = _spy_certificate(monkeypatch)
    # the non-diagonal members: a diagonal seed's products are translations
    # of its cells and never reach _split
    monkeypatch.setattr(oracle, "_generating_set", lambda *_: [
        n for n, b in enumerate(r.basis)
        if any(x != y for x, y in b.element.roots)])
    report = _assert_same_report(r)
    assert verdicts == [False]
    assert report.violations and {v.kind for v in report.violations} == {"product-escape"}
    (w, owner, shape), = gave_up
    touched = {owner.get(pair) for pair in w}
    assert None not in touched
    assert any(len(w.get(pair, ())) != 1 for m in touched for pair in shape[m])


# ---------------------------------------------------------------------------
# members written as root exponents


def _assert_exponent_path_agrees(r):
    # each member rebuilt from its coefficients takes the general branch
    # of _ring_preimages; both give one preimage, alone or mixed, in the
    # realization's field and in a larger one (as _isotypic_degrees reads it)
    elems = [b.element for b in r.basis]
    assert all(isinstance(e, RootElement) for e in elems)
    general = [IncidenceElement(r.poset, e.coeffs) for e in elems]
    conductor = _conductor_of(elems)
    assert _conductor_of(general) == conductor
    mixed = [e if n % 2 else g for n, (e, g) in enumerate(zip(elems, general))]
    for n in (conductor, 2 * conductor):
        want = _ring_preimages(general, n)
        assert _ring_preimages(elems, n) == want
        assert _ring_preimages(mixed, n) == want


def test_exponent_path_matches_the_general_branch():
    for name, d in _golden_data():
        _assert_exponent_path_agrees(realize(d))
    tally = {"valid": 0}

    @settings(max_examples=300, derandomize=True, database=None,
              deadline=None, suppress_health_check=list(HealthCheck))
    @given(grading_data([(labels, covers) for _, labels, covers in ACCEPTANCE_SHAPES],
                        SWEEP_GROUPS))
    def check(d):
        if validate_datum(d).valid:
            tally["valid"] += 1
            _assert_exponent_path_agrees(realize(d))

    check()
    assert tally["valid"] >= 150


def _shape_by_first(exps):
    out = {}
    for (z, y), e in exps.items():
        out.setdefault(z, []).append((y, e))
    return out


def _assert_shape_products_agree(r):
    """Every product s * v of two members, formed from their shapes and
    grouped per pair, is the group-ring product of their preimages
    regrouped by pair, with each count times c_s * c_v (c_m the one
    coefficient of member m's preimage).  Returns the number of nonzero
    products, or None when some member has no shape."""
    elems = [b.element for b in r.basis]
    conductor = _conductor_of(elems)
    shape = _components(elems, conductor)
    if shape is None:
        return None
    pres = _ring_preimages(elems, conductor)
    coefficient = []
    for exps, pre in zip(shape, pres):
        assert {(x, y, e % conductor) for (x, y), e in exps.items()} == set(pre)
        coefficient.append(next(iter(pre.values()), 0))
        assert set(pre.values()) <= {coefficient[-1]}
    indexed = [_shape_by_first(exps) for exps in shape]
    nonzero = 0
    for s, pre_s in enumerate(pres):
        for v, pre_v in enumerate(pres):
            want = {}
            for (x, y, e), c in _ring_product(pre_s, _by_first(pre_v),
                                              conductor).items():
                want.setdefault((x, y), {})[e] = c
            got = _shape_product(shape[s], indexed[v], conductor)
            scale = coefficient[s] * coefficient[v]
            assert {pair: {e: n * scale for e, n in terms.items()}
                    for pair, terms in got.items()} == want, (s, v)
            nonzero += bool(got)
    return nonzero


def test_shape_products_match_the_group_ring_products():
    for name, d in _golden_data():
        if name != "empty-skeleton":
            assert _assert_shape_products_agree(realize(d)), name
    # planted members: q * zeta_24^5 takes the conductor to 24, so the
    # root members' exponents are read at twice their own; 1 + zeta_12 is
    # no monomial and has no shape
    r = _z12_realization()
    zeta = root_of_unity(Fraction(5, 24))
    for q in (13, Fraction(1, 13), -13):
        for factor in (q, q * zeta):
            planted = _times(r, 3, factor)
            assert _assert_shape_products_agree(planted), factor
    one_plus_zeta = 1 + root_of_unity(Fraction(1, 12))
    assert _assert_shape_products_agree(_times(r, 3, one_plus_zeta)) is None
    tally = {"valid": 0}

    @settings(max_examples=300, derandomize=True, database=None,
              deadline=None, suppress_health_check=list(HealthCheck))
    @given(grading_data([(labels, covers) for _, labels, covers in ACCEPTANCE_SHAPES],
                        SWEEP_GROUPS))
    def check(d):
        if validate_datum(d).valid:
            tally["valid"] += 1
            assert _assert_shape_products_agree(realize(d)) is not None

    check()
    assert tally["valid"] >= 150


def test_incomparable_root_member_is_a_named_violation():
    bad, idx = with_reversed_cross_pair(_z12_realization())
    report = verify_grading(bad)
    assert [(v.kind, v.location) for v in report.violations] == [
        ("incomparable-support", f"basis[{idx}]")]
    assert report.checked_products == 0
    # the projectors read the same members, and refuse them by name
    bad, _ = with_reversed_cross_pair(realize(_golden("z16-chain3")))
    with pytest.raises(InvalidElement):
        radical_square_component(bad, "1", "3")
    assert {v.kind for v in verify_grading(bad).violations} == {"incomparable-support"}


def _translation_rows(shape, cell, conductor):
    # each member's e_m(p) - e_m(p0) over the cell's pairs
    members, cols, _, _ = cell
    return {m: tuple((shape[m][p] - shape[m][cols[0]]) % conductor for p in cols)
            for m in members}


def test_generating_set_keeps_the_diagonal_unit_only_for_trivial_groups(monkeypatch):
    # per diagonal cell the seeds' translation rows generate the rows, and
    # the unit (row zero) is a seed only where the group is trivial; per
    # other cell the first member alone.  On realized data the diagonal
    # cells are the blocks, so the unit of a block is a seed exactly when
    # the block is trivial.  The same holds, with the same certificate
    # verdict, on each basis reversed and shuffled (seed "reordered"): the
    # unit is then rarely its cell's first member
    trivial = 0
    verdicts = _spy_certificate(monkeypatch)
    rng = random.Random("reordered")
    for name, d in _golden_data():
        realized = realize(d)
        order = list(range(len(realized.basis)))
        verify_grading(realized)
        verdict = verdicts[-1:]
        for order in (order, order[::-1], rng.sample(order, len(order))):
            r = _with_basis(realized, [realized.basis[n] for n in order])
            shape, cells, conductor = _cells(r)
            seeds = set(_generating_set(shape, cells, conductor))
            for cell in cells:
                members, cols, _, _ = cell
                chosen = [m for m in members if m in seeds]
                if any(x != y for x, y in cols):
                    assert chosen == [members[0]], name
                    continue
                rows = _translation_rows(shape, cell, conductor)
                unit, = [m for m in members if not any(rows[m])]
                assert (unit in seeds) == (len(members) == 1), name
                assert r.basis[unit].tag[:1] == ("diag",)
                reached = {rows[unit]}
                while True:
                    grown = reached | {tuple((a + b) % conductor
                                             for a, b in zip(g, rows[m]))
                                       for g in reached for m in chosen}
                    if grown == reached:
                        break
                    reached = grown
                assert reached == set(rows.values()), name
                trivial += len(members) == 1
            zero = d.ambient.zero().coords
            tags = {r.basis[n].tag for n in seeds}
            for block, h in d.blocks.items():
                assert (("diag", block, zero) in tags) == (h.order == 1), (name, block)
            n = len(verdicts)
            assert verify_grading(r).ok, name
            assert verdicts[n:] == verdict == [True], name
    assert trivial >= 6


def test_each_cell_group_is_grown_once(monkeypatch):
    # the full-rank step grows the group of each cell's rows once, and the
    # certificate reads its diagonal seeds off that growth: on every
    # golden datum `_generators` runs once per cell, never from
    # `_generating_set`
    grown = []
    generators = oracle._generators
    generating_set = oracle._generating_set

    def spy(rows, conductor):
        grown.append(rows)
        return generators(rows, conductor)

    def seeds(*args):
        n = len(grown)
        out = generating_set(*args)
        assert len(grown) == n
        return out

    monkeypatch.setattr(oracle, "_generators", spy)
    monkeypatch.setattr(oracle, "_generating_set", seeds)
    calls = cells = 0
    for name, d in _golden_data():
        r = realize(d)
        n = len(grown)
        assert verify_grading(r).ok, name
        calls += len(grown) - n
        cells += len(_cells(r)[1])
    assert calls == cells == 126


def test_generating_set_skips_a_diagonal_cell_without_a_group(monkeypatch):
    # e_xx + zeta e_yy and e_xx - zeta e_yy over Q(zeta_4): the normalized
    # rows (0, 0) and (0, 2) are a group, so the full-rank step passes, but
    # the translation rows (0, 1) and (0, 3) are none, and the cell seeds
    # nothing; the report is still the reference's
    r = _chain2_by_hand([({"xx": 0, "yy": 1}, 0), ({"xx": 0, "yy": 3}, 1),
                         ({"xy": 0}, 0)])
    assert _check_accepts(r)
    shape, cells, conductor = _cells(r)
    assert _generating_set(shape, cells, conductor) == [2]
    verdicts = _spy_certificate(monkeypatch)
    assert not _assert_same_report(r).ok
    assert verdicts == [False]


@pytest.mark.parametrize("name, splits", [("z12-chain2", 37), ("z24-wedge", 147)])
def test_certificate_split_counts(monkeypatch, name, splits):
    # one split for the identity and one per nonzero product of a seed
    # with a member, whether translated or formed; a seed eps_i would add
    # one per member starting in i
    calls = []
    all_reached = oracle._all_reached

    def spy(n, seeds, splits):
        calls.append(len(splits))
        return all_reached(n, seeds, splits)

    monkeypatch.setattr(oracle, "_all_reached", spy)
    verdicts = _spy_certificate(monkeypatch)
    assert verify_grading(realize(_golden(name))).ok
    assert verdicts == [True]
    assert calls == [splits]


# ---------------------------------------------------------------------------
# diagonal seeds as translations of each cell's character group


def _diagonal_translations(r, keep=lambda s: True):
    """Per diagonal member s (every pair (x, x)) that keep admits and per
    cell whose first vertices it touches: (s, cell, key columns, the cell
    path's splits, the product path's split per member), the cell path
    being `_translations` and the product path `_split` of
    `_shape_product`.  None when the full-rank step refuses the basis."""
    shape, cells, conductor = _cells(r)
    if cells is None:
        return None
    degrees = _Degrees(r.basis, r.ambient)
    owners = {}  # per degree, the member of that degree holding each pair
    for members, cols, _, _ in cells:
        for m in members:
            owners.setdefault(degrees.ids[m], {}).update(dict.fromkeys(cols, m))
    out = []
    for s, exps in enumerate(shape):
        if not exps or any(x != y for x, y in exps) or not keep(s):
            continue
        at = {x: e for (x, _), e in exps.items()}
        for cell in cells:
            members, cols, rows, _ = cell
            if not any(x in at for x, _ in cols):
                continue
            key = _row_key(rows)
            key_cols, keys, _ = key
            assert len(set(keys)) == len(rows)
            assert keys == [tuple(row[c] for c in key_cols) for row in rows]
            got = _translations(at, degrees.ids[s], cell, key, degrees, conductor)
            want = [_split(_shape_product(exps, _shape_by_first(shape[m]), conductor),
                           owners.get(degrees.plus(degrees.ids[s], degrees.ids[m]), {}),
                           shape, conductor)
                    for m in members]
            out.append((s, cell, key_cols, got, want))
    return out


def _assert_translations_agree(r):
    """The cell path gives each member the product path's split, or refuses
    where the product path refuses some member.  Returns the number of
    (seed, cell) compared, or None when the full-rank step refuses."""
    compared = _diagonal_translations(r)
    if compared is None:
        return None
    for s, (members, *_), _, got, want in compared:
        if got is None:
            assert None in want, s
        else:
            assert got == list(zip(members, want)), s
    return len(compared)


def test_diagonal_translations_match_the_shape_products():
    # every golden datum and 300 derandomized sweep data, Z/2 x Z/2 and
    # Z/2 x Z/4 among the groups (their cells need keys of two columns)
    for name, d in _golden_data():
        compared = _assert_translations_agree(realize(d))
        assert compared if name != "empty-skeleton" else compared == 0, name
    # no members, no cells: still a basis, of the zero algebra
    assert _full_rank([], 1) == []
    # Z/2 x Z/4 has no faithful character: no one column of a cell tells
    # its rows apart, and each of the six cells takes a key of two
    widths = {}
    for _, (_, cols, rows, _), key_cols, _, _ in _diagonal_translations(
            realize(_golden("z2xz4-chain3"))):
        assert all(len({row[c] for row in rows}) < len(rows)
                   for c in range(len(cols)))
        widths[cols[0]] = len(key_cols)
    assert len(widths) == 6 and set(widths.values()) == {2}
    tally = {"valid": 0, "compared": 0, "refused": 0, "wide": 0}

    @settings(max_examples=300, derandomize=True, database=None,
              deadline=None, suppress_health_check=list(HealthCheck))
    @given(grading_data([(labels, covers) for _, labels, covers in ACCEPTANCE_SHAPES],
                        SWEEP_GROUPS))
    def check(d):
        if validate_datum(d).valid:
            r = realize(d)
            tally["valid"] += 1
            compared = _diagonal_translations(r)
            assert compared is not None
            assert _assert_translations_agree(r) == len(compared)
            tally["compared"] += len(compared)
            tally["refused"] += sum(got is None for *_, got, _ in compared)
            tally["wide"] += sum(len(key_cols) > 1 for _, _, key_cols, _, _ in compared)

    check()
    assert tally["valid"] >= 200 and tally["compared"] >= 3000
    assert tally["wide"] >= 500


# the diagonal cell is the table of Z/4 on (x, y1, y2, z), rows of degree
# 0, 2, 4, 6; the generator row (0, 1, 2, 3) shifts the cell on (y1z, y2z)
# by delta = (0, 1), which is no row of its group {(0, 0), (0, 2)}
DELTA_OFF_THE_GROUP = [
    ({("x", "x"): 0, ("y1", "y1"): k, ("y2", "y2"): 2 * k, ("z", "z"): 3 * k}, 2 * k)
    for k in range(4)] + [
    ({("x", "y1"): 0, ("x", "y2"): 0}, 1), ({("x", "y1"): 0, ("x", "y2"): 2}, 3),
    ({("y1", "z"): 0, ("y2", "z"): 0}, 1), ({("y1", "z"): 0, ("y2", "z"): 2}, 3),
    ({("x", "z"): 0}, 1)]
# on y1, y2 < z the vertex idempotents, each a cell of its own, and e_y1z
# +- e_y2z: e_y2y2 touches the cell on (y1z, y2z) at y2 only, and with
# it, e_zz and the cross members as seeds every other split holds and
# every member is reached
PARTIAL_TOUCH = [({(v, v): 0}, 0) for v in ("y1", "y2", "z")] + [
    ({("y1", "z"): 0, ("y2", "z"): 0}, 1), ({("y1", "z"): 0, ("y2", "z"): 2}, 2)]


def _realized_with_degrees_swapped():
    """z12-chain2 with the degrees of two members of its cross cell
    swapped: the members of each degree keep disjoint supports, so the
    full-rank step still passes, and their translates have the wrong
    degrees."""
    r = realize(_golden("z12-chain2"))
    a, b = [n for n, v in enumerate(r.basis) if v.tag[0] == "cross"][1:3]
    basis = list(r.basis)
    basis[a] = BasisVector(r.basis[a].element, r.basis[b].degree, r.basis[a].tag)
    basis[b] = BasisVector(r.basis[b].element, r.basis[a].degree, r.basis[b].tag)
    return _with_basis(r, basis)


def test_translations_check_delta_on_every_column():
    # the table of Z/4 on four pairs (x_j, z), one first vertex each: the
    # key is the generator's one column, so a delta that agrees with a row
    # there and nowhere else must still be refused
    rows = [tuple(k * j % 4 for j in range(4)) for k in range(4)]
    # rows[1] started the one coset as the group grew
    cell = ([0, 1, 2, 3], [(f"x{j}", "z") for j in range(4)], rows, [rows[1]])
    key = _row_key(rows)
    assert key[0] == [1]
    # members 0..3 of degrees 0..3, the seed 4 of degree 1
    degrees = _Degrees([BasisVector(None, Z4.element([k]), ())
                        for k in (0, 1, 2, 3, 1)], Z4)

    def translations(*exps):
        return _translations({f"x{j}": e for j, e in enumerate(exps)},
                             degrees.ids[4], cell, key, degrees, 4)

    # delta is row 1: member k goes to k + 1, of degree 1 more
    assert translations(3, 0, 1, 2) == [(0, [1]), (1, [2]), (2, [3]), (3, [0])]
    assert translations(0, 1, 0, 0) is None  # delta is no row
    assert translations(0, 1, 2) is None     # x3 is not covered
    assert translations(0, 2, 0, 2) is None  # translates of degree k + 2


def _refusal(r, s, cell):
    """Why the cell path refuses the diagonal member s on cell."""
    members, cols, rows, _ = cell
    shape, _, conductor = _cells(r)
    at = {x: e for (x, _), e in shape[s].items()}
    if not {x for x, _ in cols} <= at.keys():
        return "partial-touch"
    delta = tuple((at[x] - at[cols[0][0]]) % conductor for x, _ in cols)
    return "translate-degree" if delta in rows else "delta-off-the-group"


@pytest.mark.parametrize("realized, seeds, reason", [
    (lambda: _by_hand(DIAMOND, DELTA_OFF_THE_GROUP), lambda r: [1],
     "delta-off-the-group"),
    (lambda: _by_hand([("y1", "z"), ("y2", "z")], PARTIAL_TOUCH),
     lambda r: [1, 2, 3, 4], "partial-touch"),
    (lambda: _chain2_by_hand(OFF_SUPPORT), lambda r: [1], "translate-degree"),
    (_realized_with_degrees_swapped, lambda r: _generating_set(*_cells(r)),
     "translate-degree"),
], ids=["delta-off-the-group", "partial-touch", "translate-degree", "realized-degree"])
def test_translations_refuse_planted_bases(monkeypatch, realized, seeds, reason):
    # each basis passes the full-rank step, and the cell path refuses some
    # diagonal seed times some cell for the reason named, where the
    # product path refuses some member; the certificate refuses and the
    # dim^2 loop gives the reference report
    r = realized()
    assert _check_accepts(r)
    chosen = seeds(r)
    compared = _diagonal_translations(r, keep=lambda s: s in chosen)
    refused = [(s, cell, want) for s, cell, _, got, want in compared if got is None]
    assert all(None in want for _, _, want in refused)
    assert reason in {_refusal(r, s, cell) for s, cell, _ in refused}
    assert _assert_translations_agree(r)
    verdicts = _spy_certificate(monkeypatch)
    monkeypatch.setattr(oracle, "_generating_set", lambda *_: chosen)
    report = _assert_same_report(r)
    assert verdicts == [False]
    assert "product-escape" in {v.kind for v in report.violations}


# w < y2 < z and y1 < z: e_wy2 ends at y2, and the cells on (y1y1, y2y2)
# and (y1z, y2z) have y1 as the first vertex of their first pair; every
# diagonal seed's translations hold, but e_wy2 * (e_y1y1 - e_y2y2) =
# -e_wy2 is of degree 1, not 5
CROSS_AT_A_LATER_VERTEX = [
    ({("w", "w"): 0}, 0), ({("z", "z"): 0}, 0),
    ({("y1", "y1"): 0, ("y2", "y2"): 0}, 0), ({("y1", "y1"): 0, ("y2", "y2"): 2}, 4),
    ({("w", "y2"): 0}, 1), ({("w", "z"): 0}, 3),
    ({("y1", "z"): 0, ("y2", "z"): 0}, 2), ({("y1", "z"): 0, ("y2", "z"): 2}, 6)]


def test_certificate_forms_cross_products_at_every_first_vertex(monkeypatch):
    r = _by_hand([("w", "y2"), ("y1", "z"), ("y2", "z")], CROSS_AT_A_LATER_VERTEX)
    assert _check_accepts(r)
    assert all(got is not None for *_, got, _ in _diagonal_translations(r))
    verdicts = _spy_certificate(monkeypatch)
    monkeypatch.setattr(oracle, "_generating_set", lambda shape, *_: list(range(len(shape))))
    report = _assert_same_report(r)
    assert verdicts == [False]
    assert "product-escape" in {v.kind for v in report.violations}


def _stripped(r, order):
    """r with every tag () and a datum that carries only the ambient group,
    no vertex data or derived rows, and its basis in the given order."""
    basis = [BasisVector(r.basis[n].element, r.basis[n].degree, ()) for n in order]
    return RealizedGrading(SimpleNamespace(ambient=r.ambient), r.poset, None,
                           basis, None)


def _assert_reads_the_cells_alone(r, verdicts, rng, reference=True):
    """The stripped realization, in the basis order and shuffled, gives the
    report of r (in r's order) and, unless reference is False, of the
    reference oracle, and the certificate's verdict on r, which is [True]
    when r is graded.  Returns that verdict, [] when the certificate is
    not reached."""
    n = len(verdicts)
    want = _report_form(verify_grading(r))
    verdict = verdicts[n:]
    if not want[0]:
        assert verdict == [True]  # a graded datum never pays the dim^2 loop
    order = list(range(len(r.basis)))
    shuffled = rng.sample(order, len(order))
    for planted, same_order in ((_stripped(r, order), True),
                                (_stripped(r, shuffled), False)):
        n = len(verdicts)
        got = _report_form(verify_grading(planted))
        assert verdicts[n:] == verdict
        if reference:
            assert got == _report_form(reference_verify_grading(planted))
        if same_order or not want[0]:
            assert got == want  # a shuffle moves only the violations
    return verdict


class _GuardedVertexData:
    """Vertex data that answers only inside `block_of_vertex`."""

    def __init__(self, data):
        self.data, self.open = data, False

    def __getitem__(self, v):
        assert self.open, "vertex data read outside block_of_vertex"
        return self.data[v]


def _assert_checks_read_the_algebra_alone(monkeypatch, r):
    """The three checks on r with members that have no tag, a datum that
    carries only the ambient group, and vertex data that answers only
    through block_of_vertex, give r's reports and classes: the link check
    and the radical-square check on every non-cover pair."""
    block_of_vertex = RealizedGrading.block_of_vertex

    def spy(self, v):
        self.vertex_data.open = True
        try:
            return block_of_vertex(self, v)
        finally:
            self.vertex_data.open = False

    d = r.datum
    pairs = [(i, k) for i, k in d.comparable_block_pairs()
             if (i, k) not in d.cover_bimodules]
    want = ([radical_square_component(r, i, k) for i, k in pairs],
            check_link_equation(r), _report_form(verify_grading(r)))
    with monkeypatch.context() as patched:
        patched.setattr(RealizedGrading, "block_of_vertex", spy)
        bare = RealizedGrading(
            SimpleNamespace(ambient=r.ambient), r.poset, _GuardedVertexData(r.vertex_data),
            [SimpleNamespace(element=b.element, degree=b.degree) for b in r.basis], None)
        got = ([radical_square_component(bare, i, k) for i, k in pairs],
               check_link_equation(bare), _report_form(verify_grading(bare)))
    assert got == want
    return len(pairs)


def test_verify_grading_reads_no_tags_and_no_datum(monkeypatch):
    # verify_grading reads the poset, each member's element and degree, and
    # the ambient group: every golden datum and 300 derandomized sweep data
    # keep their report and verdict with the tags and the datum stripped,
    # and with the basis shuffled too.  The golden reports are pinned by
    # the CLI goldens; the reference oracle's zeta-closed rank over
    # Q(zeta_64) would take minutes on the Z/64 probes.  On every golden,
    # the link check and the radical-square check on every non-cover pair
    # read no more, but for naming the blocks through block_of_vertex
    verdicts = _spy_certificate(monkeypatch)
    rng = random.Random("stripped")
    pairs = 0
    for name, d in _golden_data():
        assert _assert_reads_the_cells_alone(realize(d), verdicts, rng,
                                             reference=False) == [True], name
        pairs += _assert_checks_read_the_algebra_alone(monkeypatch, realize(d))
    assert pairs == 39
    tally = Counter()

    @settings(max_examples=450, derandomize=True, database=None,
              deadline=None, suppress_health_check=list(HealthCheck))
    @given(grading_data([(labels, covers) for _, labels, covers in ACCEPTANCE_SHAPES],
                        SWEEP_GROUPS))
    def check(d):
        if validate_datum(d).valid:
            tally["valid"] += 1
            tally[tuple(_assert_reads_the_cells_alone(realize(d), verdicts, rng))] += 1

    check()
    assert tally["valid"] >= 300 and tally[(True,)] >= 300


def test_cli_verify_builds_one_reading(monkeypatch, capsys):
    # verify_grading, the link check and every radical-square pair of one
    # CLI verify share one reading of the realized algebra
    built = []

    class Counted(oracle._Reading):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(oracle, "_Reading", Counted)
    for name, _ in _golden_data():
        n = len(built)
        cli.main(["verify", str(DATA / f"{name}.json")])
        capsys.readouterr()
        assert len(built) == n + 1, name
