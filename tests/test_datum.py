import copy
import json
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from incidence_gradings import abelian, bimodules
from incidence_gradings.abelian import (
    AbelianGroup,
    all_subgroups,
    canonicalize,
    full_subgroup,
    intersect,
    subgroup_sum,
    trivial_subgroup,
)
from incidence_gradings.bimodules import BimoduleClass, bimodule_iso, twist
from incidence_gradings.characters import dual_group, trivial_character
from incidence_gradings import datum as datum_mod
from incidence_gradings.cyclo import root_of_unity
from incidence_gradings.datum import (
    GradingDatum,
    derive_full_bimodules,
    grading_iso,
    realize,
    validate_datum,
)
from incidence_gradings.errors import (
    ChainInconsistency,
    InternalTransitivityFailure,
    InvalidDatum,
    NotValid,
)
from incidence_gradings.jsonio import decode_datum, encode_datum, encode_validation_report
from incidence_gradings.oracle import verify_grading
from incidence_gradings.posets import antichain_poset, chain_poset, poset_from_relation

from helpers import (
    ACCEPTANCE_SHAPES,
    SWEEP_GROUPS,
    chain_datum,
    chain_over_z8,
    diamond_datum,
    diamond_over_z2,
    grading_data,
    incidence_dimension,
    reference_relation,
    two_block_datum,
)

Z2 = AbelianGroup(0, [2])
Z4 = AbelianGroup(0, [4])


def sub(group, *gens):
    return canonicalize([group.element(g) for g in gens], group)


def trivial_class(left, right, deg):
    return BimoduleClass(left, right,
                         [(trivial_character(intersect(left, right)), deg)])


# -- construction invariants ------------------------------------------------

def test_datum_rejects_zero_cover():
    h = full_subgroup(Z2)
    skeleton = chain_poset(["1", "2"])
    with pytest.raises(InvalidDatum):
        GradingDatum(Z2, skeleton, {"1": h, "2": h},
                     {("1", "2"): BimoduleClass(h, h, [])})


def test_datum_rejects_wrong_cover_keys():
    h = full_subgroup(Z2)
    skeleton = antichain_poset(["1", "2"])
    cls = trivial_class(h, h, Z2.zero())
    with pytest.raises(InvalidDatum):
        GradingDatum(Z2, skeleton, {"1": h, "2": h}, {("1", "2"): cls})


def test_datum_rejects_block_mismatch():
    h = full_subgroup(Z4)
    two = sub(Z4, [2])
    skeleton = chain_poset(["1", "2"])
    cls = trivial_class(h, h, Z4.zero())
    with pytest.raises(InvalidDatum):
        GradingDatum(Z4, skeleton, {"1": h, "2": two}, {("1", "2"): cls})


# -- derive -----------------------------------------------------------------

def test_derive_single_cover_unchanged():
    t = trivial_subgroup(Z2)
    d = two_block_datum(Z2, t, t, trivial_character(t), Z2.element([1]))
    full = derive_full_bimodules(d)
    assert list(full) == [("1", "2")]
    assert full[("1", "2")] == d.cover_bimodules[("1", "2")]


def test_derive_three_chain_z2():
    h = full_subgroup(Z2)
    sigma = dual_group(h)[1]
    triv = trivial_character(h)
    d = chain_datum(Z2, [h, h, h], [
        BimoduleClass(h, h, [(sigma, Z2.zero())]),
        BimoduleClass(h, h, [(triv, Z2.element([1]))]),
    ])
    full = derive_full_bimodules(d)
    m13 = full[("1", "3")]
    assert m13 == BimoduleClass(h, h, [(sigma, Z2.element([1]))])


def test_derive_diamond_degree_mismatch():
    # all-trivial blocks: chain degrees 0+0 vs 1+0 cannot agree
    t = trivial_subgroup(Z4)
    triv = trivial_character(t)
    zero = Z4.zero()
    one = Z4.element([1])
    d = diamond_datum(Z4, [t, t, t, t], [
        BimoduleClass(t, t, [(triv, zero)]),
        BimoduleClass(t, t, [(triv, one)]),
        BimoduleClass(t, t, [(triv, zero)]),
        BimoduleClass(t, t, [(triv, zero)]),
    ])
    with pytest.raises(ChainInconsistency):
        derive_full_bimodules(d)
    report = validate_datum(d)
    assert not report.valid
    assert any(issue.condition == "3" for issue in report.issues)


def test_derive_four_chain_keeps_raw_degrees():
    # middle blocks must not leak their cosets into the endpoint degree:
    # H1 = H4 = <2>, H2 = Z/4, H3 = 1, cover degrees 0, 0, 1 force the
    # (1,4) degree into the coset 1 + <2>
    two = sub(Z4, [2])
    whole = full_subgroup(Z4)
    triv_12 = trivial_character(intersect(two, whole))
    triv_23 = trivial_character(intersect(whole, trivial_subgroup(Z4)))
    triv_34 = trivial_character(intersect(trivial_subgroup(Z4), two))
    d = chain_datum(Z4, [two, whole, trivial_subgroup(Z4), two], [
        BimoduleClass(two, whole, [(triv_12, Z4.zero())]),
        BimoduleClass(whole, trivial_subgroup(Z4), [(triv_23, Z4.zero())]),
        BimoduleClass(trivial_subgroup(Z4), two, [(triv_34, Z4.element([1]))]),
    ])
    full = derive_full_bimodules(d)
    m14 = full[("1", "4")]
    offsets = {(g - Z4.element([1])).coords for _, g in m14.pairs}
    coset = {e.coords for e in subgroup_sum(two, two).elements()}
    assert offsets <= coset
    assert validate_datum(d).valid
    realize(d)  # must not raise


# -- validate ---------------------------------------------------------------

def test_validate_single_block():
    h = full_subgroup(Z4)
    d = GradingDatum(Z4, chain_poset(["only"]), {"only": h}, {})
    report = validate_datum(d)
    assert report.valid
    assert report.conductor == 4


def test_validate_flags_repeated_character():
    h = sub(Z4, [2])
    chi = dual_group(h)[1]
    skeleton = chain_poset(["1", "2"])
    cls = BimoduleClass(h, h, [(chi, Z4.zero()), (chi, Z4.element([1]))])
    d = GradingDatum(Z4, skeleton, {"1": h, "2": h}, {("1", "2"): cls})
    report = validate_datum(d)
    assert not report.valid
    assert any(i.condition == "2" for i in report.issues)


def test_validate_three_chain_z2_valid():
    h = full_subgroup(Z2)
    sigma = dual_group(h)[1]
    d = chain_datum(Z2, [h, h, h], [
        BimoduleClass(h, h, [(sigma, Z2.zero())]),
        BimoduleClass(h, h, [(trivial_character(h), Z2.element([1]))]),
    ])
    report = validate_datum(d)
    assert report.valid
    assert report.checked_triples == 1


def test_realize_requires_valid():
    h = sub(Z4, [2])
    chi = dual_group(h)[1]
    cls = BimoduleClass(h, h, [(chi, Z4.zero()), (chi, Z4.zero())])
    d = GradingDatum(Z4, chain_poset(["1", "2"]), {"1": h, "2": h},
                     {("1", "2"): cls})
    with pytest.raises(NotValid) as exc:
        realize(d)
    assert not exc.value.report.valid


def test_realize_refuses_a_relation_that_is_not_transitive(monkeypatch):
    # the checking poset constructor re-checks the derived relation: with
    # the derived rows of (1, 3) dropped, the vertices of 1 < 2 < 3 relate
    # through 2 and not directly
    t = trivial_subgroup(Z2)
    d = chain_datum(Z2, [t, t, t], [trivial_class(t, t, Z2.zero())] * 2)
    report = validate_datum(d)
    del report.derived[("1", "3")]
    monkeypatch.setattr(datum_mod, "validate_datum", lambda _: report)
    with pytest.raises(InternalTransitivityFailure,
                       match="derived relation failed transitivity"):
        realize(d)


# -- realize ----------------------------------------------------------------

def test_realize_trivial_chain_is_ut_n():
    t = trivial_subgroup(Z2)
    for n in range(1, 5):
        d = chain_datum(Z2, [t] * n,
                        [trivial_class(t, t, Z2.zero())] * (n - 1))
        r = realize(d)
        assert len(r.poset.elements) == n
        assert incidence_dimension(r.poset) == n * (n + 1) // 2
        assert len(r.basis) == n * (n + 1) // 2
        assert all(b.degree == Z2.zero() for b in r.basis)


def test_realize_fiber_example_counts():
    # H1 = Z/4, H2 = <2>: 6 vertices, 4 cross pairs, dim I(X) = 10
    whole = full_subgroup(Z4)
    two = sub(Z4, [2])
    chi = dual_group(two)[1]
    d = two_block_datum(Z4, whole, two, chi, Z4.zero())
    r = realize(d)
    assert len(r.poset.elements) == 6
    cross = [(x, y) for x, y in r.poset.comparable_pairs()
             if r.block_of_vertex(x) != r.block_of_vertex(y)]
    assert len(cross) == 4
    assert incidence_dimension(r.poset) == 10
    assert len(r.basis) == 10
    # each upper vertex relates to |H1|/|H12| = 2 lower vertices
    for y in r.poset.elements:
        if r.block_of_vertex(y) == "2":
            below = [x for x, yy in cross if yy == y]
            assert len(below) == 2


def test_realize_antichain_is_diagonal():
    h = full_subgroup(Z4)
    skeleton = antichain_poset(["a", "b"])
    d = GradingDatum(Z4, skeleton, {"a": h, "b": h}, {})
    r = realize(d)
    assert incidence_dimension(r.poset) == 8
    assert len(r.basis) == 8
    assert all(b.tag[0] == "diag" for b in r.basis)


def test_realized_relation_matches_the_object_form_rule():
    # realize reads the relation off the fibers tables of the row rule;
    # the reference restricts, multiplies and extends Character objects
    tally = {"valid": 0, "free": 0}

    @settings(max_examples=1000, derandomize=True, database=None,
              deadline=None, suppress_health_check=list(HealthCheck))
    @given(grading_data([(labels, covers) for _, labels, covers in ACCEPTANCE_SHAPES],
                        SWEEP_GROUPS + [AbelianGroup(1, [2])]))
    def check(d):
        if not validate_datum(d).valid:
            return
        tally["valid"] += 1
        tally["free"] += not d.ambient.is_finite
        poset = realize(d).poset
        assert set(poset.comparable_pairs()) == reference_relation(d)

    check()
    assert tally["valid"] >= 500 and tally["free"] >= 50


def test_second_validation_fills_no_fibers_table_entry(monkeypatch):
    # the fibers tables live on their output subgroups, so a second
    # validation of the same datum finds every entry the first one filled
    path = Path(__file__).parent / "data" / "validate" / "boolean4-valid.json"
    d = decode_datum(json.loads(path.read_text(encoding="utf-8")))
    for sub in list(abelian._SUBGROUPS.values()):
        sub._products.clear()
    filled = []
    missing = bimodules._Fibers.__missing__

    def spy(table, key):
        filled.append(key)
        return missing(table, key)

    monkeypatch.setattr(bimodules._Fibers, "__missing__", spy)
    first = validate_datum(d)
    assert first.valid and filled
    del filled[:]
    second = validate_datum(d)
    assert filled == []
    assert (second.checked_triples, second.derived) == (first.checked_triples,
                                                        first.derived)


def test_realize_cross_degrees():
    whole = full_subgroup(Z4)
    two = sub(Z4, [2])
    chi = dual_group(two)[1]
    g = Z4.element([1])
    r = realize(two_block_datum(Z4, whole, two, chi, g))
    cross_degrees = sorted(b.degree.coords for b in r.basis
                           if b.tag[0] == "cross")
    # degrees h + 1 + k over orbit representatives: whole coset 1 + Z/4
    assert len(cross_degrees) == 4
    assert {c for c in cross_degrees} <= {(0,), (1,), (2,), (3,)}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="realize gives the two paths of the diamond degree "
                          "representatives whose products escape their "
                          "component; the datum still validates")
def test_realize_diamond_over_z2_is_graded():
    d = diamond_over_z2()
    assert validate_datum(d).valid
    report = verify_grading(realize(d))
    assert report.ok, sorted({v.kind for v in report.violations})


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="realize gives the chain degree representatives "
                          "whose products escape their component; the "
                          "datum still validates")
def test_realize_chain_over_z8_is_graded():
    d = chain_over_z8()
    assert validate_datum(d).valid
    report = verify_grading(realize(d))
    assert report.ok, sorted({v.kind for v in report.violations})


def _expected_root(r, b, pair):
    """The root of unity realize writes at pair of basis vector b, read
    off the tag: eta(h) on a block, eta_i(h) + eta_j(k) across it."""
    ambient = r.datum.ambient
    if b.tag[0] == "diag":
        return root_of_unity(r.vertex_data[pair[0]][1](ambient.element(b.tag[2])))
    h, k = ambient.element(b.tag[4]), ambient.element(b.tag[5])
    eta_i, eta_j = r.vertex_data[pair[0]][1], r.vertex_data[pair[1]][1]
    return root_of_unity((eta_i(h) + eta_j(k)) % 1)


@pytest.mark.parametrize("shape", ACCEPTANCE_SHAPES, ids=lambda s: s[0])
def test_realize_coefficients_live_in_one_field(shape):
    # every coefficient is written in Q(zeta_N), N = report.conductor, and
    # is the root of unity the tag names, with its own smallest conductor
    _, labels, relation = shape
    skeleton = poset_from_relation(labels, relation)
    rng = random.Random(f"one-field-{shape[0]}")
    realized = conductors = 0
    for _ in range(60):
        ambient = rng.choice(SWEEP_GROUPS)
        subs = [h for h in all_subgroups(ambient) if h.order > 1]
        blocks = {v: rng.choice(subs) for v in labels}
        elems = list(ambient.elements())
        covers = {}
        for u, w in skeleton.covers():
            chars = dual_group(intersect(blocks[u], blocks[w]))
            covers[(u, w)] = BimoduleClass(
                blocks[u], blocks[w],
                [(chi, rng.choice(elems))
                 for chi in rng.sample(chars, min(2, len(chars)))])
        d = GradingDatum(ambient, skeleton, blocks, covers)
        report = validate_datum(d)
        if not report.valid:
            continue
        r = realize(d)
        realized += 1
        for b in r.basis:
            for pair, c in b.element.coeffs.items():
                assert c.conductor == report.conductor
                old = _expected_root(r, b, pair)
                assert c == old
                conductors += old.conductor != report.conductor
    assert realized >= 10
    assert conductors > 0


# -- grading_iso ------------------------------------------------------------

def test_grading_iso_self():
    h = full_subgroup(Z2)
    sigma = dual_group(h)[1]
    d = chain_datum(Z2, [h, h, h], [
        BimoduleClass(h, h, [(sigma, Z2.zero())]),
        BimoduleClass(h, h, [(trivial_character(h), Z2.element([1]))]),
    ])
    flag, witness = grading_iso(d, d)
    assert flag
    alpha, mu = witness
    assert alpha == {"1": "1", "2": "2", "3": "3"}
    # the identity tuple works, but any consistent witness is acceptable
    for (u, w), cls in d.cover_bimodules.items():
        assert bimodule_iso(cls, twist(d.cover_bimodules[(alpha[u], alpha[w])],
                                       mu[u], mu[w]))[0]


def test_grading_iso_twisted_partner():
    whole = full_subgroup(Z4)
    two = sub(Z4, [2])
    chi = dual_group(two)[1]
    d = two_block_datum(Z4, whole, two, chi, Z4.element([1]))
    mu1 = dual_group(whole)[2]
    mu2 = dual_group(two)[1]
    twisted = GradingDatum(
        Z4, d.skeleton, d.blocks,
        {("1", "2"): twist(d.cover_bimodules[("1", "2")], mu1, mu2)})
    flag, _ = grading_iso(d, twisted)
    assert flag


def test_grading_iso_negative_degree_coset():
    # H1 = <2>, H2 trivial: dual of the intersection is trivial, so no
    # twist can bridge degrees 1 vs 0 (not in the same H1+H2 coset)
    two = sub(Z4, [2])
    t = trivial_subgroup(Z4)
    chi = trivial_character(intersect(two, t))
    d1 = two_block_datum(Z4, two, t, chi, Z4.element([1]))
    d2 = two_block_datum(Z4, two, t, chi, Z4.zero())
    assert not grading_iso(d1, d2)[0]
    # same coset instead: 3 = 1 + 2
    d3 = two_block_datum(Z4, two, t, chi, Z4.element([3]))
    assert grading_iso(d1, d3)[0]


def test_grading_iso_2chain_character_twist_bridges():
    # with H1 = H2 = H12 = Z/2, mu twists reach every character of H12
    h = full_subgroup(Z2)
    sigma = dual_group(h)[1]
    triv = trivial_character(h)
    g = Z2.zero()
    d1 = two_block_datum(Z2, h, h, triv, g)
    d2 = two_block_datum(Z2, h, h, sigma, g)
    assert grading_iso(d1, d2)[0]


def test_grading_iso_respects_blocks():
    whole = full_subgroup(Z4)
    two = sub(Z4, [2])
    d1 = two_block_datum(Z4, whole, two,
                         trivial_character(intersect(whole, two)), Z4.zero())
    d2 = two_block_datum(Z4, two, whole,
                         trivial_character(intersect(whole, two)), Z4.zero())
    # blocks swapped: the only poset isomorphism maps 1->1, 2->2 but the
    # subgroup assignment differs, so no candidate alpha survives
    assert not grading_iso(d1, d2)[0]


def _random_valid_pool(rng, count):
    """Valid random chain data plus twisted/relabelled partners."""
    from incidence_gradings.abelian import all_subgroups
    from incidence_gradings.characters import dual_group as duals
    from incidence_gradings.posets import poset_automorphisms

    groups = [Z4, AbelianGroup(0, [2, 2]), AbelianGroup(0, [2, 4])]
    pool = []
    while len(pool) < count:
        ambient = rng.choice(groups)
        subs = all_subgroups(ambient)
        n = rng.randint(2, 3)
        blocks = [rng.choice(subs) for _ in range(n)]
        elems = list(ambient.elements())
        classes = []
        for a, b in zip(blocks, blocks[1:]):
            chars = duals(intersect(a, b))
            chosen = rng.sample(chars, rng.randint(1, min(2, len(chars))))
            classes.append(BimoduleClass(a, b, [(chi, rng.choice(elems))
                                                for chi in chosen]))
        d = chain_datum(ambient, blocks, classes)
        if not validate_datum(d).valid:
            continue
        pool.append(d)
        # a twisted partner under a random automorphism and mu tuple
        perm = rng.choice(list(poset_automorphisms(d.skeleton)))
        mu = {v: rng.choice(duals(d.blocks[v])) for v in d.skeleton.elements}
        partner = GradingDatum(
            ambient, d.skeleton,
            {perm[v]: d.blocks[v] for v in d.skeleton.elements},
            {(perm[u], perm[w]): twist(cls, mu[u], mu[w])
             for (u, w), cls in d.cover_bimodules.items()})
        pool.append(partner)
    return pool


def test_grading_iso_is_equivalence_relation():
    rng = random.Random(79)
    pool = _random_valid_pool(rng, 10)
    for d in pool:
        assert grading_iso(d, d)[0]
    flags = {}
    for a_idx, a in enumerate(pool):
        for b_idx, b in enumerate(pool):
            if a.ambient != b.ambient:
                continue
            flags[(a_idx, b_idx)] = grading_iso(a, b)[0]
    for (i, j), f in flags.items():
        assert flags[(j, i)] == f
        for k in range(len(pool)):
            if f and flags.get((j, k)):
                assert flags[(i, k)]


def test_grading_iso_implies_isomorphic_realized_posets():
    from incidence_gradings.posets import poset_isomorphisms

    rng = random.Random(83)
    pool = _random_valid_pool(rng, 8)
    checked = 0
    for a in pool:
        for b in pool:
            if a.ambient != b.ambient or not grading_iso(a, b)[0]:
                continue
            pa, pb = realize(a).poset, realize(b).poset
            assert next(iter(poset_isomorphisms(pa, pb)), None) is not None
            checked += 1
    assert checked >= len(pool)  # at least the diagonal plus partners


def test_grading_iso_relabelled_skeleton():
    h = full_subgroup(Z2)
    sigma = dual_group(h)[1]
    skel1 = poset_from_relation(["a", "b", "c"], [("a", "b")])
    skel2 = poset_from_relation(["x", "y", "z"], [("z", "x")])
    cls = BimoduleClass(h, h, [(sigma, Z2.zero())])
    d1 = GradingDatum(Z2, skel1, {"a": h, "b": h, "c": h}, {("a", "b"): cls})
    d2 = GradingDatum(Z2, skel2, {"x": h, "y": h, "z": h}, {("z", "x"): cls})
    flag, (alpha, _) = grading_iso(d1, d2)
    assert flag
    assert alpha["a"] == "z" and alpha["b"] == "x" and alpha["c"] == "y"


def test_datum_survives_copy_and_pickle():
    # every part of a datum rebuilds through its constructor; the groups and
    # subgroups come back as the same objects
    d = diamond_over_z2()
    for twin in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert twin.ambient is d.ambient
        assert all(twin.blocks[v] is h for v, h in d.blocks.items())
        assert encode_datum(twin) == encode_datum(d)
        assert twin.skeleton.covers() == d.skeleton.covers()
        assert (encode_validation_report(validate_datum(twin))
                == encode_validation_report(validate_datum(d)))


def test_realize_labels_each_vertex_once(monkeypatch):
    labelled = []
    label = datum_mod.vertex_label

    def counting(block, chi):
        labelled.append((block, chi.exps))
        return label(block, chi)

    monkeypatch.setattr(datum_mod, "vertex_label", counting)
    h = canonicalize([Z4.element([2])], Z4)
    r = realize(chain_datum(Z4, [full_subgroup(Z4), h, full_subgroup(Z4)],
                            [trivial_class(full_subgroup(Z4), h, Z4.zero()),
                             trivial_class(h, full_subgroup(Z4), Z4.element([1]))]))
    assert len(labelled) == len(set(labelled)) == len(r.poset.elements) == 10
