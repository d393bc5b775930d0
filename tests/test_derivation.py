"""The memoised chain derivation against listing every saturated chain.

helpers.reference_derive composes along each chain separately; the
package derives each distinct chain state once.  Both must report the
same issues, in the same order with the same messages, and the same raw
data, down to the key order of the result.  helpers.reference_triple_issue
is the triple check with its own copy of the two-step composition.
"""

import json
from unittest import mock

import pytest
from hypothesis import example, given, settings

from incidence_gradings import datum as datum_mod
from incidence_gradings import jsonio
from incidence_gradings.abelian import AbelianGroup, canonicalize
from incidence_gradings.bimodules import BimoduleClass
from incidence_gradings.characters import dual_group, trivial_character
from incidence_gradings.cli import main
from incidence_gradings.datum import GradingDatum, realize, validate_datum
from incidence_gradings.errors import ChainInconsistency, DegreeConflict, NotValid
from incidence_gradings.oracle import verify_grading
from incidence_gradings.posets import poset_from_relation

from helpers import (
    BOOLEAN3,
    b3_over_z3,
    grading_data,
    reference_derive,
    reference_triple_issue,
    saturated_chains,
)

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

GROUPS = [AbelianGroup(0, t) for t in ([2], [3], [4], [2, 2], [6])]


def _raw_form(raw):
    return [(pair, [(chi.values, deg.coords) for chi, deg in state])
            for pair, state in raw.items()]


def _issue_form(report):
    return [(i.condition, i.location, i.message) for i in report.issues]


def _assert_same_derivation(d):
    want_issues, got_issues = [], []
    want = reference_derive(d, want_issues)
    got = datum_mod._derive(d, got_issues)
    assert got_issues == want_issues
    assert _raw_form(got) == _raw_form(want)
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
    with mock.patch.object(datum_mod, "_derive", reference_derive), \
            mock.patch.object(datum_mod, "_triple_issue", reference_triple_issue):
        want_report = validate_datum(d)
    got_report = validate_datum(d)
    assert _issue_form(got_report) == _issue_form(want_report)
    assert got_report.checked_triples == want_report.checked_triples
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


def test_memoised_derivation_matches_chain_enumeration():
    tally = {"data": 0, "issues": 0, "valid": 0}

    @settings(max_examples=2000, derandomize=True, database=None,
              deadline=None)
    @given(grading_data(SHAPES, GROUPS))
    @example(_two_conflicts_diamond())
    def check(d):
        report = _assert_same_derivation(d)
        tally["data"] += 1
        tally["issues"] += not report.valid
        tally["valid"] += report.valid

    check()
    assert tally["data"] >= 2000
    # both outcomes are well represented
    assert tally["issues"] >= 200 and tally["valid"] >= 200


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
            mock.patch.object(datum_mod, "_derive", reference_derive):
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
