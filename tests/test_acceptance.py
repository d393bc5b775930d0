"""Acceptance suite: every criterion exact, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Criteria 1-3 share one construction sweep and 4-5
share one product sweep; both fixtures are module-scoped so the heavy
work happens once.
"""

import itertools
import random
from fractions import Fraction

import pytest

from incidence_gradings.abelian import (
    all_subgroups,
    intersect,
    trivial_subgroup,
)
from incidence_gradings.bimodules import (
    BimoduleClass,
    bimodule_iso,
    bimodule_product,
    twist,
)
from incidence_gradings.characters import dual_group, restrict, trivial_character
from incidence_gradings.cyclo import root_of_unity
from incidence_gradings.datum import (
    BasisVector,
    GradingDatum,
    RealizedGrading,
    realize,
    validate_datum,
)
from incidence_gradings.incidence import IncidenceElement
from incidence_gradings.oracle import (
    check_link_equation,
    radical_square_component,
    verify_grading,
)
from incidence_gradings.posets import poset_automorphisms, poset_from_relation

from helpers import (
    ACCEPTANCE_SHAPES,
    SWEEP_GROUPS,
    _naive_grading_iso,
    chain_datum,
    matrix_unit,
    two_block_datum,
)


def report_line(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# criteria 1-3: construction soundness, dimension formula, link identity


@pytest.fixture(scope="module")
def construction_sweep():
    stats = {
        "cases": 0,
        "grading_violations": [],
        "dimension_mismatches": [],
        "link_violations": [],
    }
    for ambient in SWEEP_GROUPS:
        subs = all_subgroups(ambient)
        for h1 in subs:
            for h2 in subs:
                h12 = intersect(h1, h2)
                cross_dim = h1.order * h2.order // h12.order
                for chi in dual_group(h12):
                    for g in ambient.elements():
                        d = two_block_datum(ambient, h1, h2, chi, g)
                        r = realize(d)
                        stats["cases"] += 1
                        case = (repr(ambient), h1.order, h2.order,
                                chi.values, g.coords)
                        grading = verify_grading(r)
                        if not grading.ok:
                            stats["grading_violations"].append(
                                (case, grading.violations))
                        cross = [b for b in r.basis if b.tag[0] == "cross"]
                        if len(cross) != cross_dim:
                            stats["dimension_mismatches"].append(
                                (case, len(cross), cross_dim))
                        links = check_link_equation(r)
                        if not links.ok:
                            stats["link_violations"].append(
                                (case, links.violations))
    return stats


def test_criterion_1_construction_soundness(construction_sweep):
    stats = construction_sweep
    bad = stats["grading_violations"]
    report_line(1, not bad,
                f"{stats['cases']} realizations verified, "
                f"{len(bad)} grading violations")
    assert stats["cases"] >= 1500
    assert bad == []


def test_criterion_2_dimension_formula(construction_sweep):
    stats = construction_sweep
    bad = stats["dimension_mismatches"]
    report_line(2, not bad,
                f"cross components measured |H1||H2|/|H12| in "
                f"{stats['cases']} cases, {len(bad)} mismatches")
    assert bad == []


def test_criterion_3_link_identity(construction_sweep):
    stats = construction_sweep
    bad = stats["link_violations"]
    report_line(3, not bad,
                f"link identity counted in {stats['cases']} cases, "
                f"{len(bad)} violations")
    assert bad == []


# ---------------------------------------------------------------------------
# criteria 4-5: product theorem vs radical oracle, restriction law


@pytest.fixture(scope="module")
def product_sweep():
    stats = {
        "cases": 0,
        "oracle_disagreements": [],
        "count_mismatches": [],
        "restriction_failures": [],
    }
    for ambient in SWEEP_GROUPS:
        subs = all_subgroups(ambient)
        zero = ambient.zero()
        for h1 in subs:
            for h2 in subs:
                d12 = dual_group(intersect(h1, h2))
                for h3 in subs:
                    h13 = intersect(h1, h3)
                    h123 = intersect(h13, h2)
                    expected_count = h13.order // h123.order
                    d23 = dual_group(intersect(h2, h3))
                    for chi12 in d12:
                        r12 = restrict(chi12, h123)
                        for chi23 in d23:
                            m12 = BimoduleClass(h1, h2, [(chi12, zero)])
                            m23 = BimoduleClass(h2, h3, [(chi23, zero)])
                            want = bimodule_product(m12, m23)
                            d = chain_datum(ambient, [h1, h2, h3], [m12, m23])
                            got = radical_square_component(realize(d), "1", "3")
                            stats["cases"] += 1
                            case = (repr(ambient), h1.order, h2.order, h3.order,
                                    chi12.values, chi23.values)
                            if not bimodule_iso(got, want)[0]:
                                stats["oracle_disagreements"].append(case)
                            if (len(want.pairs) != expected_count
                                    or len(got.pairs) != expected_count):
                                stats["count_mismatches"].append(case)
                            law = r12 * restrict(chi23, h123)
                            for cls in (want, got):
                                for chi, _ in cls.pairs:
                                    if restrict(chi, h123) != law:
                                        stats["restriction_failures"].append(case)
    return stats


def test_criterion_4_product_oracle_equivalence(product_sweep):
    stats = product_sweep
    bad = stats["oracle_disagreements"] + stats["count_mismatches"]
    report_line(4, not bad,
                f"{stats['cases']} subgroup-triple products checked against "
                f"the radical oracle, {len(stats['oracle_disagreements'])} "
                f"disagreements, {len(stats['count_mismatches'])} fiber-count "
                f"mismatches")
    assert stats["oracle_disagreements"] == []
    assert stats["count_mismatches"] == []


def test_criterion_5_restriction_law(product_sweep):
    stats = product_sweep
    bad = stats["restriction_failures"]
    report_line(5, not bad,
                f"restriction law held for every output character in "
                f"{stats['cases']} products, {len(bad)} exceptions")
    assert bad == []


# ---------------------------------------------------------------------------
# criterion 6: isomorphism round-trips against the exhaustive oracle


def _random_datum(rng):
    ambient = rng.choice(SWEEP_GROUPS)
    subs = all_subgroups(ambient)
    _, labels, cover_pairs = rng.choice(ACCEPTANCE_SHAPES)
    skeleton = poset_from_relation(labels, cover_pairs)
    # Twists act through the cover intersections, so a good share of the
    # data should keep those intersections big: pick a core subgroup and
    # draw blocks from its supergroups.  The rest is drawn freely.
    weighted = [s for s in subs if s.order > 1] * 3 + list(subs)
    pools = [weighted]
    big = [s for s in subs if s.order >= 3]
    if big and rng.random() < 0.7:
        core = rng.choice(big)
        pools.insert(0, [s for s in subs
                         if all(g in s for g in core.generators)])
    blocks = None
    for pool in pools:
        for _ in range(50):
            candidate = {v: rng.choice(pool) for v in labels}
            total = 1
            for sub in candidate.values():
                total *= sub.order
            if total <= 1024:
                blocks = candidate
                break
        if blocks is not None:
            break
    elems = list(ambient.elements())
    covers = {}
    for (u, w) in skeleton.covers():
        chars = dual_group(intersect(blocks[u], blocks[w]))
        chosen = rng.sample(chars, min(2, len(chars)))
        covers[(u, w)] = BimoduleClass(
            blocks[u], blocks[w],
            [(chi, rng.choice(elems)) for chi in chosen])
    return GradingDatum(ambient, skeleton, blocks, covers)


def _twisted_relabelled(rng, d):
    autos = list(poset_automorphisms(d.skeleton))
    perm = rng.choice(autos)
    mu = {v: rng.choice(dual_group(d.blocks[v])) for v in d.skeleton.elements}
    blocks2 = {perm[v]: d.blocks[v] for v in d.skeleton.elements}
    covers2 = {(perm[u], perm[w]): twist(cls, mu[u], mu[w])
               for (u, w), cls in d.cover_bimodules.items()}
    return GradingDatum(d.ambient, d.skeleton, blocks2, covers2)


def test_criterion_6_isomorphism_roundtrips():
    from incidence_gradings.datum import grading_iso

    rng = random.Random(1009)
    positives = 0
    negatives = 0
    disagreements = []
    for case in range(200):
        d = _random_datum(rng)
        partner = _twisted_relabelled(rng, d)
        flag, witness = grading_iso(d, partner)
        if not flag or not _naive_grading_iso(d, partner):
            disagreements.append(("positive", case))
        positives += 1
        # try to mutate one cover character outside the mu-orbit
        found_negative = False
        for (u, w) in d.cover_bimodules:
            cls = d.cover_bimodules[(u, w)]
            chars = dual_group(cls.middle)
            present = set(cls.characters())
            for position in range(len(cls.pairs)):
                for replacement in chars:
                    if replacement in present:
                        continue
                    pairs = list(cls.pairs)
                    pairs[position] = (replacement, pairs[position][1])
                    mutated = dict(d.cover_bimodules)
                    mutated[(u, w)] = BimoduleClass(cls.left, cls.right, pairs)
                    dm = GradingDatum(d.ambient, d.skeleton, d.blocks, mutated)
                    if not _naive_grading_iso(d, dm):
                        if grading_iso(d, dm)[0]:
                            disagreements.append(("negative", case))
                        found_negative = True
                        negatives += 1
                        break
                if found_negative:
                    break
            if found_negative:
                break
    ok = not disagreements and negatives >= 100
    report_line(6, ok,
                f"200 twisted/relabelled round-trips, {negatives} verified "
                f"out-of-orbit mutations, {len(disagreements)} disagreements "
                f"with the exhaustive search")
    assert disagreements == []
    assert positives == 200
    assert negatives >= 100


# ---------------------------------------------------------------------------
# criterion 7: UT_n recovery


def test_criterion_7_ut_recovery():
    from incidence_gradings.abelian import AbelianGroup

    ambient = AbelianGroup(0, [2])
    t = trivial_subgroup(ambient)
    failures = []
    for n in range(1, 7):
        d = chain_datum(ambient, [t] * n,
                        [BimoduleClass(t, t, [(trivial_character(t),
                                               ambient.zero())])] * (n - 1))
        r = realize(d)
        if len(r.basis) != n * (n + 1) // 2:
            failures.append((n, "dimension"))
            continue
        # identify each basis vector with a matrix unit e_ij
        vertex_of = {}
        for b in r.basis:
            if b.tag[0] == "diag":
                (v,) = [x for x in r.poset.elements
                        if r.block_of_vertex(x) == b.tag[1]]
                vertex_of[b.tag[1]] = v
        unit_index = {}
        for idx, b in enumerate(r.basis):
            if b.tag[0] == "diag":
                unit_index[(b.tag[1], b.tag[1])] = idx
            else:
                unit_index[(b.tag[1], b.tag[2])] = idx
        if len(unit_index) != len(r.basis):
            failures.append((n, "indexing"))
            continue
        # the basis must BE the matrix units and multiply accordingly
        for (i, j), idx in unit_index.items():
            expected = matrix_unit(r.poset, vertex_of[i], vertex_of[j])
            if r.basis[idx].element != expected:
                failures.append((n, "unit", i, j))
        labels = [str(k + 1) for k in range(n)]
        for (i, j) in itertools.product(labels, repeat=2):
            for (k, l) in itertools.product(labels, repeat=2):
                if (i, j) not in unit_index or (k, l) not in unit_index:
                    continue
                prod = (r.basis[unit_index[(i, j)]].element
                        * r.basis[unit_index[(k, l)]].element)
                if j == k and int(i) <= int(l):
                    if prod != r.basis[unit_index[(i, l)]].element:
                        failures.append((n, "table", i, j, k, l))
                elif not prod.is_zero():
                    failures.append((n, "table", i, j, k, l))
    report_line(7, not failures,
                f"chains n=1..6 realize to UT_n with matrix-unit tables, "
                f"{len(failures)} failures")
    assert failures == []


# ---------------------------------------------------------------------------
# criterion 8: mutation sensitivity


def _valid_base(rng):
    while True:
        ambient = rng.choice(SWEEP_GROUPS)
        subs = [s for s in all_subgroups(ambient)]
        h1, h2 = rng.choice(subs), rng.choice(subs)
        if h1.order == 1 and h2.order == 1:
            continue
        chars = dual_group(intersect(h1, h2))
        chi = rng.choice(chars)
        g = rng.choice(list(ambient.elements()))
        return two_block_datum(ambient, h1, h2, chi, g)


def _bump_degree(rng, r):
    ambient = r.ambient
    blocks = r.datum.blocks
    candidates = []
    for idx, b in enumerate(r.basis):
        if b.tag[0] == "diag" and blocks[b.tag[1]].order >= 2:
            candidates.append(idx)
        elif b.tag[0] == "cross" and (blocks[b.tag[1]].order >= 2
                                      or blocks[b.tag[2]].order >= 2):
            candidates.append(idx)
    idx = rng.choice(candidates)
    nonzero = [e for e in ambient.elements() if not e.is_zero()]
    bump = rng.choice(nonzero)
    basis = list(r.basis)
    old = basis[idx]
    basis[idx] = BasisVector(old.element, old.degree + bump, old.tag)
    return RealizedGrading(r.datum, r.poset, r.vertex_data, basis, r.full_raw)


def _corrupt_coefficient(rng, r):
    candidates = [idx for idx, b in enumerate(r.basis)
                  if len(b.element.coeffs) >= 2]
    idx = rng.choice(candidates)
    old = r.basis[idx]
    coeffs = dict(old.element.coeffs)
    pair = rng.choice(sorted(coeffs))
    conductor = max(2, r.datum.ambient.torsion_factors[-1])
    coeffs[pair] = coeffs[pair] * root_of_unity(Fraction(1, conductor))
    basis = list(r.basis)
    basis[idx] = BasisVector(IncidenceElement(r.poset, coeffs),
                             old.degree, old.tag)
    return RealizedGrading(r.datum, r.poset, r.vertex_data, basis, r.full_raw)


def test_criterion_8_mutation_sensitivity():
    rng = random.Random(2027)
    detected = 0
    total = 0
    missed = []
    while total < 50:
        kind = ("degree", "coefficient", "repeat")[total % 3]
        d = _valid_base(rng)
        if kind == "repeat":
            (u, w), cls = next(iter(d.cover_bimodules.items()))
            pairs = list(cls.pairs) + [cls.pairs[0]]
            covers = {(u, w): BimoduleClass(cls.left, cls.right, pairs)}
            dm = GradingDatum(d.ambient, d.skeleton, d.blocks, covers)
            total += 1
            if not validate_datum(dm).valid:
                detected += 1
            else:
                missed.append((kind, total))
            continue
        r = realize(d)
        if kind == "degree":
            corrupted = _bump_degree(rng, r)
        else:
            if not any(len(b.element.coeffs) >= 2 for b in r.basis):
                continue  # all components one-dimensional: resample
            corrupted = _corrupt_coefficient(rng, r)
        total += 1
        if not verify_grading(corrupted).ok:
            detected += 1
        else:
            missed.append((kind, total))
    report_line(8, detected == 50,
                f"{detected}/50 corrupted gradings flagged")
    assert detected == 50, missed
