import json
import random
from fractions import Fraction

import pytest

from incidence_gradings import jsonio
from incidence_gradings.abelian import (
    AbelianGroup,
    all_subgroups,
    canonicalize,
    full_subgroup,
    intersect,
    trivial_subgroup,
)
from incidence_gradings.bimodules import BimoduleClass
from incidence_gradings.characters import dual_group, trivial_character
from incidence_gradings.cyclo import CycloNumber, root_of_unity
from incidence_gradings.datum import GradingDatum, realize, validate_datum
from incidence_gradings.errors import InvalidDatum, MalformedInput
from incidence_gradings.incidence import IncidenceElement
from incidence_gradings.posets import chain_poset, poset_from_relation

from helpers import decode_incidence_element, two_block_datum

Z4 = AbelianGroup(0, [4])
Z2xZ4 = AbelianGroup(0, [2, 4])


def test_group_roundtrip():
    for group in (Z4, Z2xZ4, AbelianGroup(2, [3, 6])):
        doc = jsonio.encode_group(group)
        assert jsonio.decode_group(json.loads(json.dumps(doc))) == group


def test_rational_strings():
    assert jsonio.encode_rational(Fraction(0)) == "0/1"
    assert jsonio.encode_rational(Fraction(2, 4)) == "1/2"
    assert jsonio.decode_rational("3/4") == Fraction(3, 4)
    with pytest.raises(MalformedInput):
        jsonio.decode_rational("x/y")


def test_rational_strings_are_digits_only():
    for text, value in (("3/4", Fraction(3, 4)), ("-3/4", Fraction(-3, 4)),
                        ("6/8", Fraction(3, 4)), ("7", Fraction(7)),
                        ("-0", Fraction(0)), (5, Fraction(5))):
        assert jsonio.decode_rational(text) == value
    # Fraction() takes all of these; "1e-1" stands for the exponent forms
    # whose denominators run to millions of bits (only small ones run here)
    for bad in ("0.25", " 3/4 ", "3/4\n", "1_000/3", "1e-1", "1E5", "+1/2",
                "3/-4", "1/0", "", "/2", "1/", "\u0661/2", "inf", "nan"):
        with pytest.raises(MalformedInput, match=r"^where: not a rational"):
            jsonio.decode_rational(bad, "where")
    with pytest.raises(MalformedInput, match=r"^cyclo\.coeffs\[1\]: not a rational"):
        jsonio.decode_cyclo({"conductor": 4, "coeffs": ["1/2", "1e-3"]})


def test_subgroup_roundtrip_random():
    rng = random.Random(71)
    for group in (Z4, Z2xZ4):
        elems = list(group.elements())
        for _ in range(20):
            sub = canonicalize([rng.choice(elems)
                                for _ in range(rng.randint(0, 3))], group)
            doc = jsonio.encode_subgroup(sub)
            assert jsonio.decode_subgroup(doc, group) == sub


def test_character_roundtrip():
    for h in all_subgroups(Z2xZ4):
        for chi in dual_group(h):
            doc = jsonio.encode_character(chi)
            assert jsonio.decode_character(doc, Z2xZ4) == chi


def test_cyclo_roundtrip():
    values = [root_of_unity(Fraction(1, 8)) * Fraction(3, 2),
              CycloNumber.from_rational(Fraction(-7, 3)),
              root_of_unity(Fraction(2, 3)) + root_of_unity(Fraction(1, 4))]
    for c in values:
        doc = jsonio.encode_cyclo(c)
        assert jsonio.decode_cyclo(json.loads(json.dumps(doc))) == c


def test_poset_roundtrip():
    p = poset_from_relation(["a", "b", "c", "d"],
                            [("a", "b"), ("b", "d"), ("a", "c")])
    doc = jsonio.encode_poset(p)
    assert jsonio.decode_poset(doc) == p


def test_incidence_element_roundtrip():
    p = chain_poset(["x", "y", "z"])
    elem = IncidenceElement(p, {
        ("x", "y"): root_of_unity(Fraction(1, 4)),
        ("y", "z"): CycloNumber.from_rational(Fraction(5, 6)),
    })
    doc = jsonio.encode_incidence_element(elem)
    assert decode_incidence_element(doc, p) == elem


def test_bimodule_roundtrip():
    whole = full_subgroup(Z4)
    two = canonicalize([Z4.element([2])], Z4)
    chi = dual_group(intersect(whole, two))[1]
    m = BimoduleClass(whole, two, [(chi, Z4.element([3]))])
    doc = jsonio.encode_bimodule_standalone(m)
    assert jsonio.decode_bimodule_standalone(json.loads(json.dumps(doc))) == m


def test_datum_roundtrip_and_canonical_bytes():
    whole = full_subgroup(Z4)
    two = canonicalize([Z4.element([2])], Z4)
    chi = dual_group(intersect(whole, two))[1]
    d = two_block_datum(Z4, whole, two, chi, Z4.element([1]))
    doc = jsonio.encode_datum(d)
    text = jsonio.dumps_canonical(doc)
    back = jsonio.decode_datum(json.loads(text))
    assert back.ambient == d.ambient
    assert back.skeleton == d.skeleton
    assert back.blocks == d.blocks
    assert back.cover_bimodules == d.cover_bimodules
    # canonical serialization: byte-identical round trip
    assert jsonio.dumps_canonical(jsonio.encode_datum(back)) == text


def _colliding_covers():
    # labels holding "," give the covers a,b < c and a < b,c one key
    labels = ["a,b", "c", "a", "b,c"]
    skeleton = poset_from_relation(labels, [("a,b", "c"), ("a", "b,c")])
    t = trivial_subgroup(Z4)
    cls = BimoduleClass(t, t, [(trivial_character(t), Z4.zero())])
    return GradingDatum(Z4, skeleton, dict.fromkeys(labels, t),
                        {("a,b", "c"): cls, ("a", "b,c"): cls})


def test_encode_rejects_colliding_cover_keys():
    with pytest.raises(InvalidDatum, match="share the key 'a,b,c'"):
        jsonio.encode_datum(_colliding_covers())


def test_decode_names_colliding_cover_key():
    d = _colliding_covers()
    cls = d.cover_bimodules[("a", "b,c")]
    doc = {"ambient": jsonio.encode_group(Z4),
           "skeleton": jsonio.encode_poset(d.skeleton),
           "blocks": {label: jsonio.encode_subgroup(sub)
                      for label, sub in d.blocks.items()},
           "bimodules": {"a,b,c": jsonio.encode_bimodule(cls)}}
    with pytest.raises(MalformedInput, match="share the key 'a,b,c'"):
        jsonio.decode_datum(doc)


def test_realized_export_shape():
    t = trivial_subgroup(Z4)
    d = two_block_datum(Z4, t, t, trivial_character(t), Z4.element([2]))
    r = realize(d)
    doc = jsonio.encode_realized(r)
    assert set(doc) == {"poset", "basis"}
    assert len(doc["basis"]) == 3
    parsed_poset = jsonio.decode_poset(doc["poset"])
    for entry in doc["basis"]:
        elem = decode_incidence_element(entry["element"], parsed_poset)
        assert not elem.is_zero()
    report = jsonio.encode_validation_report(validate_datum(d))
    assert report["valid"] is True


def test_decoders_reject_bool_and_float_integers():
    for bad in ({"free_rank": True}, {"torsion": [4.0]}, {"torsion": [True, 4]},
                {"torsion": ["4"]}):
        with pytest.raises(MalformedInput):
            jsonio.decode_group(bad)
    with pytest.raises(MalformedInput):
        jsonio.decode_element([2.0], Z4)
    with pytest.raises(MalformedInput):
        jsonio.decode_rational(True)
    with pytest.raises(MalformedInput):
        jsonio.decode_cyclo({"conductor": True, "coeffs": ["1/1"]})
    assert jsonio.decode_element([5], Z4) == Z4.element([1])


def test_decode_rejects_garbage():
    with pytest.raises(MalformedInput):
        jsonio.decode_group([1, 2])
    with pytest.raises(MalformedInput):
        jsonio.decode_group({"free_rank": 0, "torsion": [4, 2]})
    with pytest.raises(MalformedInput):
        jsonio.decode_subgroup({"generators": [[1, 2, 3]]}, Z4)
    with pytest.raises(MalformedInput):
        jsonio.decode_character({"domain": {"generators": []},
                                 "values": ["1/3"]}, Z4)
    with pytest.raises(MalformedInput):
        jsonio.decode_poset({"elements": [1, 2], "covers": [[1, 2], [2, 1]]})
    with pytest.raises(MalformedInput):
        jsonio.decode_datum({"ambient": {"free_rank": 0, "torsion": [2]},
                             "skeleton": {"elements": ["a"], "covers": []},
                             "blocks": {},
                             "bimodules": {"a,b": {}}})


def test_decoders_outside_the_cli_reject_unknown_keys():
    # the CLI reaches every other decoder (tests/test_cli.py)
    with pytest.raises(MalformedInput, match="cyclo: unknown key 'coef'"):
        jsonio.decode_cyclo({"conductor": 1, "coef": ["1/1"]})
    p = chain_poset(["x", "y"])
    entry = {"from": "x", "to": "y", "coeff": {"conductor": 1, "coeffs": ["1/1"]}}
    assert not decode_incidence_element([entry], p).is_zero()
    with pytest.raises(MalformedInput,
                       match=r"incidence\[0\]: unknown key 'weight'"):
        decode_incidence_element([dict(entry, weight=1)], p)
