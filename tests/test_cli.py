import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from incidence_gradings import abelian, characters, cli, cyclo, datum, jsonio, oracle
from incidence_gradings.abelian import (
    AbelianGroup,
    canonicalize,
    full_subgroup,
    intersect,
    trivial_subgroup,
)
from incidence_gradings.bimodules import BimoduleClass
from incidence_gradings.characters import dual_group, trivial_character
from incidence_gradings.cli import main
from incidence_gradings.posets import poset_from_relation

from helpers import (
    chain_datum,
    plant_malformed_basis,
    two_block_datum,
    with_reversed_cross_pair,
)

Z2 = AbelianGroup(0, [2])
Z4 = AbelianGroup(0, [4])
DATA = Path(__file__).parent / "data"
GOLDEN = ["z12-chain2", "z24-wedge", "z16-chain3", "z2xz4-chain3", "z2xz2-chain4",
          "z32-full-trivial", "z64-full-trivial", "z64-trivial-full-trivial",
          "empty-skeleton", "boolean4-z4"]


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(jsonio.dumps_canonical(doc) + "\n", encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _two_block(ambient=Z4):
    whole = full_subgroup(ambient)
    two = canonicalize([ambient.element([2])], ambient)
    chi = dual_group(intersect(whole, two))[1]
    return two_block_datum(ambient, whole, two, chi, ambient.element([1]))


def test_validate_ok(tmp_path, capsys):
    path = write_json(tmp_path, "d.json", jsonio.encode_datum(_two_block()))
    code, out, err = run(capsys, "validate", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True
    assert doc["conductor"] == 4


def test_validate_invalid_exits_1(tmp_path, capsys):
    h = canonicalize([Z4.element([2])], Z4)
    chi = dual_group(h)[1]
    d = two_block_datum(Z4, h, h, chi, Z4.zero())
    doc = jsonio.encode_datum(d)
    # duplicate the character: condition (2) violation
    doc["bimodules"]["1,2"]["pairs"].append(doc["bimodules"]["1,2"]["pairs"][0])
    path = write_json(tmp_path, "bad.json", doc)
    code, out, err = run(capsys, "validate", path)
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False
    assert any(issue["condition"] == "2" for issue in report["issues"])


def test_realize_trivial_chain(tmp_path, capsys):
    t = trivial_subgroup(Z2)
    d = two_block_datum(Z2, t, t, trivial_character(t), Z2.zero())
    path = write_json(tmp_path, "d.json", jsonio.encode_datum(d))
    code, out, err = run(capsys, "realize", path)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["poset"]["elements"]) == 2
    assert len(doc["poset"]["covers"]) == 1
    assert len(doc["basis"]) == 3


def test_realize_dot_output(tmp_path, capsys):
    t = trivial_subgroup(Z2)
    d = two_block_datum(Z2, t, t, trivial_character(t), Z2.zero())
    path = write_json(tmp_path, "d.json", jsonio.encode_datum(d))
    code, out, err = run(capsys, "realize", path, "--dot")
    assert code == 0
    assert out.startswith("digraph hasse {")
    assert "->" in out


def test_realize_dot_escapes_labels(tmp_path, capsys):
    # skeleton labels may be any strings; `a"b` < `c\d` over trivial blocks
    trivial = {"generators": []}
    doc = {"ambient": {"free_rank": 0, "torsion": [2]},
           "blocks": {'a"b': trivial, "c\\d": trivial},
           "bimodules": {'a"b,c\\d': {
               "left": trivial, "right": trivial,
               "pairs": [{"char": {"domain": trivial, "values": []},
                          "deg": [1]}]}},
           "skeleton": {"elements": ['a"b', "c\\d"],
                        "covers": [['a"b', "c\\d"]]}}
    code, out, err = run(capsys, "realize", write_json(tmp_path, "d.json", doc),
                         "--dot")
    assert code == 0
    quoted = r'"(?:[^"\\]|\\.)*"'
    body = out.splitlines()[2:-1]
    nodes = [line for line in body if "->" not in line]
    assert len(nodes) == 2
    for line in nodes:
        assert re.fullmatch(f"  {quoted};", line), line
    for line in body[len(nodes):]:
        assert re.fullmatch(f"  {quoted} -> {quoted};", line), line
    # DOT escapes `"` and `\` as JSON does, so the IDs read back as labels
    ids = [json.loads(line.strip()[:-1]) for line in nodes]
    assert [i.split("|")[0] for i in ids] == ['a"b', "c\\d"]


def test_verify_clean(tmp_path, capsys):
    h = full_subgroup(Z2)
    sigma = dual_group(h)[1]
    d = chain_datum(Z2, [h, h, h], [
        BimoduleClass(h, h, [(sigma, Z2.zero())]),
        BimoduleClass(h, h, [(trivial_character(h), Z2.element([1]))]),
    ])
    path = write_json(tmp_path, "d.json", jsonio.encode_datum(d))
    code, out, err = run(capsys, "verify", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["grading"]["ok"] is True
    assert doc["links"]["ok"] is True
    assert doc["radical_products"] == [{"pair": ["1", "3"], "agree": True}]


@pytest.mark.parametrize("name", GOLDEN)
def test_verify_matches_golden_output(capsys, name):
    # NAME.verify.json is the stdout of `verify NAME.json`, byte for byte
    code, out, err = run(capsys, "verify", str(DATA / f"{name}.json"))
    assert code == 0
    assert err == ""
    assert out == (DATA / f"{name}.verify.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("name, code", [
    ("boolean4-valid", 0),       # coboundary covers on B_4 over Z/4
    ("boolean5-broken", 1),      # the same on B_5, one cover character moved
    ("b3-over-z3", 1),           # chains disagree though every triple agrees
    ("z6-triple", 1),            # refused by the triple check alone
    ("repeated-character", 1),   # condition (2) fails, every triple still runs
    # over Z x Z/2: degrees (1, 0) and (0, 0) of one character, and two
    # chains, differ only in the free coordinate
    ("zxz2-degree-conflict", 1),
    ("zxz2-chains-disagree", 1),
    # B_4 over Z/6 around the Z/6 triple datum: DegreeConflicts from four
    # sources, two of them read from the step memo, and two failing
    # triples with one verdict between them
    ("boolean4-z6-conflict", 1),
])
def test_validate_matches_golden_output(capsys, name, code):
    # validate/NAME.validate.json is the stdout of `validate NAME.json`
    got = run(capsys, "validate", str(DATA / "validate" / f"{name}.json"))
    want = (DATA / "validate" / f"{name}.validate.json").read_text(encoding="utf-8")
    assert got == (code, want, "")
    assert json.loads(want)["valid"] is (code == 0)


@pytest.mark.parametrize("name, code", [
    ("z2xz4-fibers", 0),   # every product character has two extensions
    ("zxz2-free", 0),      # degrees keep their free coordinates
    ("zxz2-conflict", 1),  # 1/2 produced at (2, 0) and at (0, 0)
])
def test_product_matches_golden_output(capsys, name, code):
    # product/NAME.product.json is the stdout of `product NAME.m12.json
    # NAME.m23.json`, empty when the product fails
    stem = DATA / "product" / name
    out_code, out, err = run(capsys, "product", f"{stem}.m12.json", f"{stem}.m23.json")
    want = Path(f"{stem}.product.json").read_text(encoding="utf-8")
    assert (out_code, out) == (code, want)
    if code:
        assert json.loads(err) == {"error": {
            "type": "DegreeConflict",
            "message": "character Character(1/2) forced into two distinct degree cosets"}}
    else:
        assert err == ""


@pytest.mark.parametrize("name", GOLDEN)
def test_realize_matches_golden_hash(capsys, name):
    # NAME.realize.sha256 holds the sha256 of `realize NAME.json` stdout
    code, out, err = run(capsys, "realize", str(DATA / f"{name}.json"))
    assert (code, err) == (0, "")
    want = (DATA / f"{name}.realize.sha256").read_text(encoding="utf-8").strip()
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want


@pytest.mark.parametrize("name", GOLDEN)
def test_iso_grading_golden_is_self_isomorphic(capsys, name):
    path = str(DATA / f"{name}.json")
    code, out, err = run(capsys, "iso-grading", path, path)
    assert (code, err) == (0, "")
    assert json.loads(out)["isomorphic"] is True


def _names(test):
    """The names a golden test is parametrized over."""
    (mark,) = test.pytestmark
    return sorted(case[0] for case in mark.args[1])


def test_golden_cases_name_every_data_file():
    # a data file that no golden case names would go unchecked
    assert sorted(GOLDEN) == sorted(
        p.stem for p in DATA.glob("*.json") if not p.name.endswith(".verify.json"))
    assert _names(test_validate_matches_golden_output) == sorted(
        p.stem for p in (DATA / "validate").glob("*.json")
        if not p.name.endswith(".validate.json"))
    assert _names(test_product_matches_golden_output) == sorted(
        p.name[:-len(".m12.json")] for p in (DATA / "product").glob("*.m12.json"))


def test_verify_corrupted_exits_1(tmp_path, capsys):
    h = canonicalize([Z4.element([2])], Z4)
    chi = dual_group(h)[1]
    d = two_block_datum(Z4, h, h, chi, Z4.zero())
    doc = jsonio.encode_datum(d)
    doc["bimodules"]["1,2"]["pairs"].append(doc["bimodules"]["1,2"]["pairs"][0])
    path = write_json(tmp_path, "bad.json", doc)
    code, out, err = run(capsys, "verify", path)
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_verify_names_an_incomparable_root_member(capsys, monkeypatch):
    # realize writes members unchecked; one planted over a reversed pair is
    # a named violation of the grading, or a named error of the projectors
    # where the datum has a two-step product, never a traceback
    planted = []

    def realize_planted(d):
        r, idx = with_reversed_cross_pair(datum.realize(d))
        planted.append(idx)
        return r

    monkeypatch.setattr(cli, "realize", realize_planted)
    code, out, err = run(capsys, "verify", str(DATA / "z12-chain2.json"))
    assert (code, err) == (1, "")
    doc = json.loads(out)
    assert (doc["valid"], doc["ok"]) == (True, False)
    assert doc["grading"]["violations"] == [{
        "kind": "incomparable-support", "location": f"basis[{planted[0]}]",
        "message": "support pair that is not comparable in the poset"}]
    code, out, err = run(capsys, "verify", str(DATA / "z16-chain3.json"))
    assert (code, out) == (1, "")
    assert _one_error_line(err)["type"] == "InvalidElement"


def test_verify_refuses_a_member_of_a_second_degree_coset(capsys, monkeypatch):
    # a (1, 2) cross member planted one degree off: its products with the
    # (2, 3) members put one character into two cosets of H_1 + H_3
    monkeypatch.setattr(cli, "realize", lambda d: plant_malformed_basis(
        datum.realize(d), "shifted-degree"))
    code, out, err = run(capsys, "verify", str(DATA / "z16-chain3.json"))
    assert (code, out) == (1, "")
    assert _one_error_line(err)["type"] == "DegreeConflict"


def test_product_command(tmp_path, capsys):
    h = full_subgroup(Z2)
    sigma = dual_group(h)[1]
    m12 = BimoduleClass(h, h, [(sigma, Z2.zero())])
    m23 = BimoduleClass(h, h, [(trivial_character(h), Z2.element([1]))])
    p1 = write_json(tmp_path, "m12.json", jsonio.encode_bimodule_standalone(m12))
    p2 = write_json(tmp_path, "m23.json", jsonio.encode_bimodule_standalone(m23))
    code, out, err = run(capsys, "product", p1, p2)
    assert code == 0
    result = jsonio.decode_bimodule_standalone(json.loads(out))
    assert result == BimoduleClass(h, h, [(sigma, Z2.element([1]))])


def test_product_degree_conflict(tmp_path, capsys):
    t = trivial_subgroup(Z4)
    chi = trivial_character(t)
    m12 = BimoduleClass(t, t, [(chi, Z4.zero())])
    m23 = BimoduleClass(t, t, [(chi, Z4.zero()), (chi, Z4.element([1]))])
    p1 = write_json(tmp_path, "m12.json", jsonio.encode_bimodule_standalone(m12))
    p2 = write_json(tmp_path, "m23.json", jsonio.encode_bimodule_standalone(m23))
    code, out, err = run(capsys, "product", p1, p2)
    assert code == 1
    assert json.loads(err)["error"]["type"] == "DegreeConflict"


def test_iso_bimodule_command(tmp_path, capsys):
    h = canonicalize([Z4.element([2])], Z4)
    chi = dual_group(h)[1]
    m = BimoduleClass(h, h, [(chi, Z4.element([1]))])
    n = BimoduleClass(h, h, [(chi, Z4.element([3]))])
    p1 = write_json(tmp_path, "m.json", jsonio.encode_bimodule_standalone(m))
    p2 = write_json(tmp_path, "n.json", jsonio.encode_bimodule_standalone(n))
    code, out, err = run(capsys, "iso-bimodule", p1, p2)
    assert code == 0
    doc = json.loads(out)
    assert doc["isomorphic"] is True
    assert doc["witness"] == [0]


def test_iso_grading_command(tmp_path, capsys):
    d = _two_block()
    p1 = write_json(tmp_path, "d1.json", jsonio.encode_datum(d))
    p2 = write_json(tmp_path, "d2.json", jsonio.encode_datum(d))
    code, out, err = run(capsys, "iso-grading", p1, p2)
    assert code == 0
    doc = json.loads(out)
    assert doc["isomorphic"] is True
    assert doc["witness"]["alpha"] == {"1": "1", "2": "2"}


def test_dual_command(tmp_path, capsys):
    doc = {"ambient": jsonio.encode_group(Z4),
           "generators": [[2]]}
    path = write_json(tmp_path, "sub.json", doc)
    code, out, err = run(capsys, "dual", path)
    assert code == 0
    chars = json.loads(out)["characters"]
    assert len(chars) == 2
    assert chars[0]["values"] == ["0/1"]
    assert chars[1]["values"] == ["1/2"]


def test_malformed_input_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "MalformedInput"
    # schema violation, not just bad JSON
    path2 = write_json(tmp_path, "schema.json", {"ambient": []})
    code, out, err = run(capsys, "validate", path2)
    assert code == 2


@pytest.mark.parametrize("raw", [
    b'{"a": "\xff"}',
    b"[" * 100000 + b"]" * 100000,
], ids=["not-utf8", "too-deep"])
def test_unreadable_json_exits_2(tmp_path, capsys, raw):
    path = tmp_path / "raw.json"
    path.write_bytes(raw)
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "MalformedInput"


def _assert_malformed(tmp_path, capsys, doc):
    path = write_json(tmp_path, "hostile.json", doc)
    code, out, err = run(capsys, "validate", path)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "MalformedInput"
    return json.loads(err)["error"]["message"]


def test_float_torsion_is_rejected(tmp_path, capsys):
    doc = jsonio.encode_datum(_two_block())
    doc["ambient"]["torsion"] = [4.7]
    message = _assert_malformed(tmp_path, capsys, doc)
    assert "datum.ambient.torsion[0]" in message


def test_zero_torsion_factor_is_rejected(tmp_path, capsys):
    doc = jsonio.encode_datum(_two_block())
    doc["ambient"]["torsion"] = [0, 4]
    message = _assert_malformed(tmp_path, capsys, doc)
    assert ">= 2" in message


def test_bool_free_rank_is_rejected(tmp_path, capsys):
    # over Z with trivial blocks the datum is valid when free_rank is 1
    z = AbelianGroup(1, [])
    t = trivial_subgroup(z)
    doc = jsonio.encode_datum(
        two_block_datum(z, t, t, trivial_character(t), z.element([3])))
    assert doc["ambient"]["free_rank"] == 1
    doc["ambient"]["free_rank"] = True
    message = _assert_malformed(tmp_path, capsys, doc)
    assert "datum.ambient.free_rank" in message


@pytest.mark.parametrize("coords", [[0, 1.9], [0, True]], ids=["float", "bool"])
def test_non_integer_coordinates_are_rejected(tmp_path, capsys, coords):
    z2z4 = AbelianGroup(0, [2, 4])
    t = trivial_subgroup(z2z4)
    doc = jsonio.encode_datum(
        two_block_datum(z2z4, t, t, trivial_character(t), z2z4.element([0, 1])))
    doc["bimodules"]["1,2"]["pairs"][0]["deg"] = coords
    message = _assert_malformed(tmp_path, capsys, doc)
    assert "pairs[0].deg[1]" in message


@pytest.mark.parametrize("where", ["elements", "covers"])
def test_unhashable_label_exits_2(tmp_path, capsys, where):
    doc = jsonio.encode_datum(_two_block())
    if where == "elements":
        doc["skeleton"]["elements"] = [["x"]]
    else:
        doc["skeleton"]["covers"] = [[["x"], "2"]]
    _assert_malformed(tmp_path, capsys, doc)


def test_duplicate_key_is_rejected(tmp_path, capsys):
    text = jsonio.dumps_canonical(jsonio.encode_datum(_two_block()))
    # block "1" given twice: read last-wins, the datum would be valid
    block = '"blocks":{"1":{"generators":[[1]]}'
    assert block in text
    path = tmp_path / "duplicate.json"
    path.write_text(text.replace(
        block, '"blocks":{"1":{"generators":[[2]]},"1":{"generators":[[1]]}'),
        encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "MalformedInput"
    assert "duplicate key" in error["message"]


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io
    doc = jsonio.dumps_canonical(jsonio.encode_datum(_two_block()))
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, err = run(capsys, "validate", "-")
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_memo_eviction_changes_nothing(capsys):
    path = DATA / "z16-chain3.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    commands = ("validate", "realize", "verify")
    before = jsonio.decode_datum(doc)
    outputs = [run(capsys, command, str(path)) for command in commands]
    # by name: oracle holds cyclo's memos too
    memos = {name: f for module in (abelian, cyclo, oracle)
             for name, f in vars(module).items() if hasattr(f, "cache_clear")}
    assert len(memos) == 5
    for memo in memos.values():
        memo.cache_clear()
    # and the per-object fibers tables of the two-step rule
    for sub in list(abelian._SUBGROUPS.values()):
        sub._products.clear()
    after = jsonio.decode_datum(doc)
    for label, block in before.blocks.items():
        # `before` keeps each block alive: the weak table finds it again
        assert after.blocks[label] is block
    assert [run(capsys, command, str(path)) for command in commands] == outputs


def test_conductor_budget_exits_1_in_every_command(tmp_path, capsys):
    # blocks Z/10**7 and its subgroup of order 2: validate used to accept
    # the datum that realize and verify then refused (its dual group)
    half = [[10 ** 7 // 2]]
    doc = {"ambient": {"free_rank": 0, "torsion": [10 ** 7]},
           "skeleton": {"elements": ["1", "2"], "covers": [["1", "2"]]},
           "blocks": {"1": {"generators": [[1]]}, "2": {"generators": half}},
           "bimodules": {"1,2": {
               "left": {"generators": [[1]]}, "right": {"generators": half},
               "pairs": [{"char": {"domain": {"generators": half},
                                   "values": ["1/2"]},
                          "deg": [1]}]}}}
    path = write_json(tmp_path, "d.json", doc)
    for command in ("validate", "realize", "verify"):
        code, out, err = run(capsys, command, path)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": {
            "type": "BudgetExceeded",
            "message": "conductor 10000000 exceeds the conductor budget "
                       f"of {datum.CONDUCTOR_BUDGET}"}}


def _rename(key, new):
    def edit(obj):
        obj[new] = obj.pop(key)
    return edit


# one misspelt or extra key per object kind: (steps to the object, edit,
# the path the error names, the unknown key)
PAIR = ["bimodules", "1,2", "pairs", 0]
UNKNOWN_KEYS = {
    "datum": ([], _rename("skeleton", "skeletons"), "datum", "skeletons"),
    "ambient": (["ambient"], _rename("torsion", "torsoin"),
                "datum.ambient", "torsoin"),
    "skeleton": (["skeleton"], _rename("covers", "cover"),
                 "datum.skeleton", "cover"),
    "block": (["blocks", "2"], _rename("generators", "gens"),
              "datum.blocks[2]", "gens"),
    "bimodule": (PAIR[:2], _rename("pairs", "pair"),
                 "datum.bimodules[1,2]", "pair"),
    "pair": (PAIR, _rename("deg", "degree"),
             "datum.bimodules[1,2].pairs[0]", "degree"),
    "character": (PAIR + ["char"], _rename("values", "value"),
                  "datum.bimodules[1,2].pairs[0].char", "value"),
    "domain": (PAIR + ["char", "domain"], lambda obj: obj.update(ambient={}),
               "datum.bimodules[1,2].pairs[0].char.domain", "ambient"),
}


@pytest.mark.parametrize("kind", list(UNKNOWN_KEYS))
def test_unknown_key_in_datum_exits_2(tmp_path, capsys, kind):
    steps, edit, path, key = UNKNOWN_KEYS[kind]
    doc = jsonio.encode_datum(_two_block())
    obj = doc
    for step in steps:
        obj = obj[step]
    edit(obj)
    message = _assert_malformed(tmp_path, capsys, doc)
    assert message == f"{path}: unknown key {key!r}"


@pytest.mark.parametrize("text", ["1e-1", "0.5", " 1/2", "1_0/20"])
def test_non_digit_rational_exits_2(tmp_path, capsys, text):
    # "1e-1000000" would build a 3.3-million-bit denominator before
    # anything else could reject it; the small exponent takes the same path
    doc = jsonio.encode_datum(_two_block())
    doc["bimodules"]["1,2"]["pairs"][0]["char"]["values"][0] = text
    message = _assert_malformed(tmp_path, capsys, doc)
    assert message == (f"datum.bimodules[1,2].pairs[0].char.values[0]: "
                       f"not a rational: {text!r}")


@pytest.mark.parametrize("command", ["product", "iso-bimodule"])
def test_unknown_key_in_standalone_bimodule_exits_2(tmp_path, capsys, command):
    m = BimoduleClass(full_subgroup(Z2), full_subgroup(Z2),
                      [(dual_group(full_subgroup(Z2))[1], Z2.zero())])
    good = jsonio.encode_bimodule_standalone(m)
    assert "ambient" in good  # beside the bimodule's own keys, and accepted
    code, out, err = run(capsys, command, write_json(tmp_path, "m.json", good),
                         write_json(tmp_path, "n.json", good))
    assert code == 0
    good["note"] = "x"
    code, out, err = run(capsys, command, write_json(tmp_path, "m.json", good),
                         write_json(tmp_path, "n.json", good))
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "MalformedInput"
    assert error["message"] == "bimodule: unknown key 'note'"


def test_unknown_key_in_dual_subgroup_exits_2(tmp_path, capsys):
    # {"gens": ...} would otherwise be read as the trivial subgroup
    doc = {"ambient": jsonio.encode_group(Z4), "gens": [[2]]}
    code, out, err = run(capsys, "dual", write_json(tmp_path, "sub.json", doc))
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "MalformedInput"
    assert error["message"] == "subgroup: unknown key 'gens'"


def _one_error_line(err):
    assert err.endswith("\n") and err.count("\n") == 1
    return json.loads(err)["error"]


def test_realize_invalid_datum_exits_1_with_the_report(capsys):
    path = DATA / "validate" / "boolean5-broken.json"
    code, out, err = run(capsys, "realize", str(path))
    assert (code, out) == (1, "")
    report = json.loads((DATA / "validate" / "boolean5-broken.validate.json")
                        .read_text(encoding="utf-8"))
    assert _one_error_line(err) == {"type": "NotValid",
                                    "message": "datum fails validation",
                                    "report": report}


@pytest.mark.parametrize("doc, message", [
    ([], "subgroup: expected an object"),
    ({"ambient": {"free_rank": 1}, "generators": [[1]]},
     "subgroup: dual group requires a finite subgroup"),
], ids=["not-an-object", "infinite"])
def test_dual_refuses_exits_2(tmp_path, capsys, doc, message):
    code, out, err = run(capsys, "dual", write_json(tmp_path, "sub.json", doc))
    assert (code, out) == (2, "")
    assert _one_error_line(err) == {"type": "MalformedInput", "message": message}


def test_infinite_block_exits_2(tmp_path, capsys):
    doc = {"ambient": {"free_rank": 1},
           "skeleton": {"elements": ["1"], "covers": []},
           "blocks": {"1": {"generators": [[1]]}}, "bimodules": {}}
    code, out, err = run(capsys, "validate", write_json(tmp_path, "d.json", doc))
    assert (code, out) == (2, "")
    assert _one_error_line(err) == {
        "type": "MalformedInput",
        "message": "datum: block '1' must be a finite subgroup"}


def test_iso_grading_over_different_ambients_exits_1(tmp_path, capsys):
    def one_vertex(torsion):
        doc = {"ambient": {"torsion": torsion},
               "skeleton": {"elements": ["1"], "covers": []},
               "blocks": {"1": {"generators": []}}, "bimodules": {}}
        return write_json(tmp_path, f"z{torsion[0]}.json", doc)

    code, out, err = run(capsys, "iso-grading", one_vertex([2]), one_vertex([3]))
    assert (code, out) == (1, "")
    assert _one_error_line(err) == {"type": "AmbientMismatch",
                                    "message": "data over different ambient groups"}


def test_enumeration_budget_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(abelian, "ENUMERATION_BUDGET", 3)
    doc = {"ambient": jsonio.encode_group(Z4), "generators": [[1]]}
    code, out, err = run(capsys, "dual", write_json(tmp_path, "sub.json", doc))
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "BudgetExceeded"
    assert "enumeration budget of 3" in error["message"]
    path = write_json(tmp_path, "d.json", jsonio.encode_datum(_two_block()))
    code, out, err = run(capsys, "verify", path)
    assert code == 1
    assert json.loads(err)["error"]["type"] == "BudgetExceeded"
    # the realized poset would have 4 + 2 vertices: past a budget of 3
    code, out, err = run(capsys, "validate", path)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["message"] == \
        "6 realized vertices exceed the enumeration budget of 3"
    # within it, validating a two-block datum asks only coset questions:
    # no subgroup or dual group is listed
    monkeypatch.setattr(abelian, "ENUMERATION_BUDGET", 6)
    listed = []
    for module in (abelian, characters):
        monkeypatch.setattr(module, "check_enumeration_budget",
                            lambda order, what: listed.append(what))
    code, out, err = run(capsys, "validate", path)
    assert code == 0
    assert json.loads(out)["valid"] is True
    assert listed == []


def test_vertex_budget_exits_1_in_every_command(tmp_path, capsys):
    # three blocks of order 2^15 in (Z/2)^15: each is within the
    # enumeration budget, the rank and the conductor within theirs, but the
    # realized poset would have 3 * 2^15 vertices
    rank = 15
    whole = {"generators": [[int(a == b) for b in range(rank)] for a in range(rank)]}
    doc = {"ambient": {"free_rank": 0, "torsion": [2] * rank},
           "skeleton": {"elements": ["1", "2", "3"], "covers": []},
           "blocks": {v: whole for v in "123"}, "bimodules": {}}
    path = write_json(tmp_path, "d.json", doc)
    for command in ("validate", "realize", "verify"):
        start = time.perf_counter()
        code, out, err = run(capsys, command, path)
        # refused before any character is listed
        assert time.perf_counter() - start < 10
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": {
            "type": "BudgetExceeded",
            "message": f"{3 * 2 ** rank} realized vertices exceed the "
                       f"enumeration budget of {abelian.ENUMERATION_BUDGET}"}}


def _capped(limit):
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    return cap


def test_support_budget_exits_1_under_a_memory_cap(tmp_path):
    # one (Z/2)^16 block: 2^16 vertices, within the vertex budget, but
    # 2^32 basis entries.  realize refuses it before allocating, so both
    # commands exit 1 in a process whose address space is 512 MB.
    rank = 16
    whole = {"generators": [[int(a == b) for b in range(rank)] for a in range(rank)]}
    doc = {"ambient": {"free_rank": 0, "torsion": [2] * rank},
           "skeleton": {"elements": ["1"], "covers": []},
           "blocks": {"1": whole}, "bimodules": {}}
    path = write_json(tmp_path, "d.json", doc)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    for command in ("realize", "verify"):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "incidence_gradings.cli", command, path],
            capture_output=True, text=True, env=env, timeout=60,
            preexec_fn=_capped(512 * 2 ** 20))
        assert time.perf_counter() - start < 10
        assert (done.returncode, done.stdout) == (1, "")
        assert json.loads(done.stderr) == {"error": {
            "type": "BudgetExceeded",
            "message": f"the realized basis has {2 ** 32} nonzero entries, "
                       f"over the support budget of {datum.SUPPORT_BUDGET}"}}


def test_iso_grading_search_budget_exits_1(tmp_path, capsys):
    # a star of nine leaves over full Z/4 blocks: every cover carries two
    # characters a character of order 4 apart, except one leaf of the
    # partner, whose two lie an order-2 character apart.  Each of the 9!
    # skeleton maps fails only at that leaf, so the search runs out of budget.
    h = full_subgroup(Z4)
    dual = dual_group(h)
    labels = ["c"] + [f"l{i}" for i in range(9)]
    skeleton = poset_from_relation(labels, [("c", leaf) for leaf in labels[1:]])

    def star(apart):
        return datum.GradingDatum(Z4, skeleton, {v: h for v in labels}, {
            ("c", leaf): BimoduleClass(h, h, [(dual[0], Z4.zero()),
                                              (dual[apart.get(leaf, 1)], Z4.zero())])
            for leaf in labels[1:]})

    d = write_json(tmp_path, "d.json", jsonio.encode_datum(star({})))
    d2 = write_json(tmp_path, "d2.json", jsonio.encode_datum(star({"l0": 2})))
    code, out, err = run(capsys, "iso-grading", d, d)
    assert code == 0 and json.loads(out)["isomorphic"] is True
    code, out, err = run(capsys, "iso-grading", d, d2)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": {
        "type": "BudgetExceeded",
        "message": "grading_iso search exceeds the enumeration budget of "
                   f"{abelian.ENUMERATION_BUDGET} nodes"}}


def test_iso_grading_refuses_unequal_cover_degrees_without_search(tmp_path, capsys):
    # a star of nine leaves over the blocks 2Z/8, every cover in degree 0
    # but, in the partner, one leaf's in degree 1: the skeletons, blocks and
    # characters admit all 9! skeleton maps, and only the multiset of cover
    # degrees tells the data apart, before any of them is tried
    z8 = AbelianGroup(0, [8])
    h = canonicalize([z8.element([2])], z8)
    dual = dual_group(h)
    labels = ["c"] + [f"l{i}" for i in range(9)]
    skeleton = poset_from_relation(labels, [("c", leaf) for leaf in labels[1:]])

    def star(degree):
        return datum.GradingDatum(z8, skeleton, {v: h for v in labels}, {
            ("c", leaf): BimoduleClass(h, h, [(dual[0], degree.get(leaf, z8.zero())),
                                              (dual[1], degree.get(leaf, z8.zero()))])
            for leaf in labels[1:]})

    d2 = star({"l0": z8.element([1])})
    assert datum.grading_iso(star({}), d2) == (False, None)
    code, out, err = run(capsys, "iso-grading",
                         write_json(tmp_path, "d.json", jsonio.encode_datum(star({}))),
                         write_json(tmp_path, "d2.json", jsonio.encode_datum(d2)))
    assert (code, err) == (0, "")
    assert json.loads(out)["isomorphic"] is False

@pytest.mark.parametrize("ambient", [{"torsion": [2] * 65},
                                     {"free_rank": 10 ** 18, "torsion": []}],
                         ids=["65-factors", "free-rank-10**18"])
def test_rank_budget_exits_1(tmp_path, capsys, ambient):
    # the Hermite and Smith forms cost the cube of the rank: refused first
    doc = {"ambient": ambient, "generators": []}
    code, out, err = run(capsys, "dual", write_json(tmp_path, "sub.json", doc))
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "BudgetExceeded"
    assert error["message"].endswith("exceeds the rank budget of 64")


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        first = run(capsys, "verify", str(DATA / "z12-chain2.json"))
        assert run(capsys, "verify", str(DATA / "z12-chain2.json")) == first
        # a usage error still exits 2 through argparse
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--no-such-option"])
        assert exc.value.code == 2
    finally:
        cli._parser.cache_clear()
    assert built == [1]
