import random
from fractions import Fraction
from math import gcd

import pytest

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
from incidence_gradings.cyclo import root_of_unity
from incidence_gradings.datum import BasisVector, RealizedGrading, realize
from incidence_gradings.errors import NoIntermediateBlock
from incidence_gradings.incidence import IncidenceElement
from incidence_gradings.oracle import (
    _flatten,
    _isotypic_flats,
    apply_twist_projector,
    check_link_equation,
    isotypic_rank_table,
    radical_square_component,
    verify_grading,
)
from incidence_gradings.posets import chain_poset
from incidence_gradings.rowspan import RationalRowSpace

from helpers import SWEEP_GROUPS, chain_datum, two_block_datum

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
