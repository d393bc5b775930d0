"""The memoised chain derivation against listing every saturated chain.

helpers.reference_derive composes along each chain separately, on
Character and GroupElement objects; the package derives each distinct
chain state once, on integer rows.  Both must report the same issues, in
the same order with the same messages, and the same raw data, down to the
key order of the result (helpers.reference_derive_rows writes the
reference's data as rows).  helpers.reference_validate runs the triple
check, with its own copy of the two-step composition, on every triple
whose three pairs are derived; validate_datum leaves out the triples the
walk has already decided and must report the same issues.
"""

import itertools
import json
import random
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from incidence_gradings import datum as datum_mod
from incidence_gradings import jsonio
from incidence_gradings.abelian import AbelianGroup, Subgroup, canonicalize, full_subgroup
from incidence_gradings.bimodules import BimoduleClass, _merge_state
from incidence_gradings.characters import dual_group, trivial_character
from incidence_gradings.cli import main
from incidence_gradings.datum import GradingDatum, realize, validate_datum
from incidence_gradings.errors import ChainInconsistency, DegreeConflict, NotValid
from incidence_gradings.oracle import verify_grading
from incidence_gradings.posets import poset_from_relation

from helpers import (
    BOOLEAN3,
    CHARACTER_GROUPS,
    b3_over_z3,
    grading_data,
    reference_derive,
    reference_derive_rows,
    reference_validate,
    saturated_chains,
)

DATA = Path(__file__).parent / "data"

DIAMOND = [("1", "2"), ("1", "3"), ("2", "4"), ("3", "4")]

SHAPES = [
    # the eight shapes of the acceptance sweep (the diamond among them)
    (["1", "2"], [("1", "2")]),
    (["1", "2", "3"], [("1", "2"), ("2", "3")]),
    (["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4")]),
    (["1", "2", "3"], [("1", "2"), ("1", "3")]),
    (["1", "2", "3"], [("1", "3"), ("2", "3")]),
    (["1", "2", "3", "4"], DIAMOND),
    (["1", "2", "3"], [("1", "2")]),
    (["1", "2", "3", "4"], [("1", "2"), ("2", "3")]),
    # B_3, and a chain below a diamond
    (["0", "a", "b", "c", "ab", "ac", "bc", "t"], BOOLEAN3),
    (["0", "1", "2", "3", "4"], [("0", "1")] + DIAMOND),
    # label orders that are not linear extensions
    (["4", "2", "1", "3"], DIAMOND),
    (["t", "bc", "c", "ab", "0", "ac", "b", "a"], BOOLEAN3),
]

# five finite groups and Z x Z/2 x Z/4, whose free coordinates the
# degree sums must leave unreduced
GROUPS = ([AbelianGroup(0, t) for t in ([2], [3], [4], [2, 2], [6])]
          + [g for g in CHARACTER_GROUPS if not g.is_finite])


def _issue_form(report):
    return [(i.condition, i.location, i.message) for i in report.issues]


def _assert_same_derivation(d):
    want_issues, got_issues = [], []
    want = reference_derive_rows(d, want_issues)
    got = datum_mod._derive(d, got_issues)
    assert got_issues == want_issues
    assert list(got.items()) == list(want.items())
    # the raising form stops at the same first issue
    errors = []
    for derive in (reference_derive, datum_mod._derive):
        try:
            derive(d)
            errors.append(None)
        except (DegreeConflict, ChainInconsistency) as exc:
            errors.append((type(exc), str(exc)))
    assert errors[0] == errors[1]
    # and the full report, triple checks included, is unchanged
    got_report = validate_datum(d)
    assert (_issue_form(got_report), got_report.checked_triples) == reference_validate(d)
    return got_report


def _two_conflicts_diamond():
    """Diamond over Z/8 with every block <4>: the path through 2 forces
    the trivial character into two cosets of <4>, the path through 3 the
    other character, so the first chain decides the message."""
    z8 = AbelianGroup(0, [8])
    h = canonicalize([z8.element([4])], z8)
    triv, sigma = dual_group(h)
    cls = [BimoduleClass(h, h, [(sigma, z8.zero()), (triv, z8.element([g]))])
           for g in (1, 0, 1, 1)]
    return GradingDatum(z8, poset_from_relation(["1", "2", "3", "4"], DIAMOND),
                        {v: h for v in "1234"}, dict(zip(DIAMOND, cls)))


def _z6_datum():
    """0 <. 1 <. {2, 3} <. 4 over Z/6, blocks <3>, <3>, <2>, <2>, <3>;
    cover (0, 1) = {0 @ 1, 1/2 @ 0}, every other cover trivial @ 0.  Only
    the triple (0, 1, 4) refuses it."""
    doc = json.loads((DATA / "validate" / "z6-triple.json").read_text(encoding="utf-8"))
    return jsonio.decode_datum(doc)


def _boolean_coboundary(n, rng, broken=False):
    """Full Z/4 blocks on B_n; the cover u <. w carries mu_u / mu_w with
    degree p_w - p_u, so every chain telescopes and the datum is valid.
    broken multiplies one cover character by a nontrivial character, as
    the classify benchmark does, which breaks the squares through it."""
    z4 = AbelianGroup(0, [4])
    full = full_subgroup(z4)
    labels = [frozenset(s) for r in range(n + 1)
              for s in itertools.combinations(range(n), r)]
    name = {s: "".join(map(str, sorted(s))) or "e" for s in labels}
    covers = [(name[s], name[s | {x}]) for s in labels for x in range(n) if x not in s]
    dual = dual_group(full)
    mu = {name[s]: rng.choice(dual) for s in labels}
    pot = {name[s]: z4.element([rng.randrange(4)]) for s in labels}
    chars = {(u, w): mu[u] * mu[w].inverse() for u, w in covers}
    if broken:
        bad = rng.choice(covers)
        chars[bad] = chars[bad] * rng.choice(dual[1:])
    return GradingDatum(z4, poset_from_relation([name[s] for s in labels], covers),
                        {name[s]: full for s in labels},
                        {(u, w): BimoduleClass(full, full, [(chars[(u, w)],
                                                             pot[w] - pot[u])])
                         for u, w in covers})


@st.composite
def _derivation_data(draw):
    """grading_data over SHAPES and GROUPS; about one draw in ten is instead
    a Boolean B_4 coboundary datum with one broken cover."""
    if draw(st.integers(0, 9)) == 0:
        return _boolean_coboundary(4, draw(st.randoms(use_true_random=False)),
                                   broken=True)
    return draw(grading_data(SHAPES, GROUPS))


def test_memoised_derivation_matches_chain_enumeration():
    tally = Counter()

    @settings(max_examples=2000, derandomize=True, database=None,
              deadline=None)
    @given(_derivation_data())
    @example(_two_conflicts_diamond())
    @example(_z6_datum())
    def check(d):
        report = _assert_same_derivation(d)
        tally["data"] += 1
        tally["issues"] += not report.valid
        tally["valid"] += report.valid
        kind = ("boolean" if len(d.skeleton) == 16
                else "free" if not d.ambient.is_finite else "finite")
        tally[kind, report.valid] += 1

    check()
    assert tally["data"] >= 2000
    # both outcomes are well represented, over the free-rank ambient too
    assert tally["issues"] >= 200 and tally["valid"] >= 200
    assert tally["free", False] >= 50 and tally["free", True] >= 50
    # a broken cover is refused, usually through the squares above it
    assert tally["boolean", False] >= 30


def test_b3_over_z3_chains_disagree():
    d = b3_over_z3()
    issues = _assert_same_derivation(d).issues
    assert issues and all("saturated chains" in i.message for i in issues)
    with pytest.raises(NotValid):
        realize(d)
    # deriving along one chain per pair and leaving chain independence to
    # the triple checks would accept the datum, and its realization is
    # not graded
    def first_chain(skeleton, i, j):
        return saturated_chains(skeleton, i, j)[:1]

    with mock.patch("helpers.saturated_chains", first_chain), \
            mock.patch.object(datum_mod, "_derive", reference_derive_rows):
        assert validate_datum(d).valid
        assert not verify_grading(realize(d)).ok


def test_realize_and_verify_derive_once(tmp_path, capsys):
    d = b3_over_z3()
    # make it valid: every cover trivial, the degrees telescoping to 0
    covers = {c: BimoduleClass(cls.left, cls.right,
                               [(trivial_character(cls.middle), d.ambient.zero())])
              for c, cls in d.cover_bimodules.items()}
    d = GradingDatum(d.ambient, d.skeleton, d.blocks, covers)
    path = tmp_path / "d.json"
    path.write_text(jsonio.dumps_canonical(jsonio.encode_datum(d)), encoding="utf-8")
    with mock.patch.object(datum_mod, "_derive", wraps=datum_mod._derive) as spy:
        realize(d)
        assert spy.call_count == 1
        spy.reset_mock()
        assert main(["verify", str(path)]) == 0
        assert spy.call_count == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["valid"] is True and doc["ok"] is True


def test_z6_datum_is_refused_by_the_triple_check_alone():
    d = _z6_datum()
    assert _issue_form(validate_datum(d)) == [(
        "3", "triple ('0', '1', '4')",
        "degree of Character(0) differs between the two-step product and "
        "the derived class")]
    # the chains to 4 agree, so without the triple check the datum
    # validates, and its realization is not graded
    with mock.patch.object(datum_mod, "_triple_issue", return_value=None):
        assert validate_datum(d).valid
        report = verify_grading(realize(d))
    assert [v.kind for v in report.violations] == ["product-escape"] * 32


def _spy_triples(d):
    with mock.patch.object(datum_mod, "_triple_issue",
                           wraps=datum_mod._triple_issue) as spy:
        report = validate_datum(d)
    return report, spy.call_count


def test_walk_decides_the_triples_below_a_cover():
    d = _boolean_coboundary(4, random.Random(4))
    report, calls = _spy_triples(d)
    assert report.valid and report.checked_triples == 110
    # only the triples i < k < j whose step k < j is not a cover are checked
    assert calls == 34
    # a repeated character on one cover: every triple with its three
    # pairs derived is checked again
    (u, w), cls = next(iter(d.cover_bimodules.items()))
    covers = dict(d.cover_bimodules)
    covers[(u, w)] = BimoduleClass(cls.left, cls.right, cls.pairs * 2)
    d = GradingDatum(d.ambient, d.skeleton, d.blocks, covers)
    report, calls = _spy_triples(d)
    assert _issue_form(report) == [
        ("2", f"cover ({u!r}, {w!r})",
         "repeated character: not a submodule of the regular module")]
    assert report.checked_triples == 110
    derived = report.derived
    assert calls == sum((i, k) in derived and (k, j) in derived and (i, j) in derived
                        for i, j in d.comparable_block_pairs()
                        for k in d.skeleton.strictly_between(i, j)) == 110


def test_merge_state_forms_cosets_for_repeated_characters_only():
    z8 = AbelianGroup(0, [8])
    four = canonicalize([z8.element([4])], z8)
    a, b = (chi.exps for chi in dual_group(four))
    g = [(n,) for n in range(8)]
    with mock.patch.object(Subgroup, "coset_key", autospec=True,
                           side_effect=Subgroup.coset_key) as spy:
        assert _merge_state([(a, g[1]), (b, g[2])], four, four) == \
            ((a, g[1]), (b, g[2]))
        assert spy.call_count == 0
        # a repeat in the same coset of <4>: the first degree is kept
        assert _merge_state([(a, g[1]), (b, g[2]), (a, g[5])], four, four) == \
            ((a, g[1]), (b, g[2]))
        assert spy.call_count == 2
        # both characters conflict; the first conflicting entry is b's,
        # named as a Character on the domain
        with pytest.raises(DegreeConflict) as exc:
            _merge_state([(a, g[0]), (b, g[0]), (b, g[1]), (a, g[1])], four, four)
    assert str(exc.value) == \
        "character Character(1/2) forced into two distinct degree cosets"
