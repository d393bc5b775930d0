"""Canonical JSON encoding of every domain type.

Rationals travel as reduced "p/q" strings with positive denominator, so
exactness survives any JSON parser; a decoder takes a JSON integer or a
string of decimal digits "p" or "p/q", optionally signed, and nothing else.  Serialization is canonical: equal
values produce byte-identical documents (sorted keys, compact separators,
canonical in-memory forms).  Decoders raise MalformedInput with a path
hint on any schema violation, an unknown key included; a missing key takes
its default.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import lcm

from .abelian import AbelianGroup, canonicalize
from .bimodules import BimoduleClass
from .characters import Character
from .cyclo import CycloNumber
from .datum import GradingDatum, ValidationReport
from .errors import IncidenceGradingsError, InvalidDatum, MalformedInput
from .posets import poset_from_relation


def dumps_canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _fail(path, message):
    raise MalformedInput(f"{path}: {message}")


def _has_type(data, typ):
    # bool is a subclass of int, but true/false is not a JSON integer
    return isinstance(data, typ) and not (typ is int and isinstance(data, bool))


def _expect(data, typ, path):
    if not _has_type(data, typ):
        _fail(path, f"expected {typ.__name__}, got {type(data).__name__}")
    return data


def _expect_object(data, keys, path):
    # a misspelt key would otherwise be dropped and its default used
    for key in _expect(data, dict, path):
        if key not in keys:
            _fail(path, f"unknown key {key!r}")
    return data


def _standalone(data, decode, path):
    """Decode an object that carries its "ambient" group beside its keys."""
    _expect(data, dict, path)
    ambient = decode_group(data.get("ambient", {}), f"{path}.ambient")
    return decode({k: v for k, v in data.items() if k != "ambient"}, ambient, path)


def encode_rational(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


# Fraction() alone would also take "0.25", " 3/4 ", "1_000/3" and
# "1e-1000000", whose denominator has 3.3 million bits
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def decode_rational(data, path="rational"):
    if _has_type(data, int):
        return Fraction(data)
    text = _expect(data, str, path)
    if _RATIONAL.fullmatch(text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass  # a zero denominator, or more digits than int() converts
    _fail(path, f"not a rational: {text!r}")


# -- groups and subgroups -----------------------------------------------------

def encode_group(group):
    return {"free_rank": group.free_rank, "torsion": list(group.torsion_factors)}


def decode_group(data, path="group"):
    _expect_object(data, ("free_rank", "torsion"), path)
    free_rank = _expect(data.get("free_rank", 0), int, f"{path}.free_rank")
    torsion = [_expect(d, int, f"{path}.torsion[{n}]") for n, d in
               enumerate(_expect(data.get("torsion", []), list, path))]
    try:
        return AbelianGroup(free_rank, torsion)
    except ValueError as exc:
        _fail(path, str(exc))


def encode_element(g):
    return list(g.coords)


def decode_element(data, ambient, path="element"):
    for n, c in enumerate(_expect(data, list, path)):
        _expect(c, int, f"{path}[{n}]")
    try:
        return ambient.element(data)
    except IncidenceGradingsError as exc:
        _fail(path, str(exc))


def encode_subgroup(sub):
    return {"generators": [encode_element(g) for g in sub.generators]}


def decode_subgroup(data, ambient, path="subgroup"):
    _expect_object(data, ("generators",), path)
    gens_data = _expect(data.get("generators", []), list, path)
    gens = [decode_element(g, ambient, f"{path}.generators[{n}]")
            for n, g in enumerate(gens_data)]
    return canonicalize(gens, ambient)


def decode_subgroup_standalone(data, path="subgroup"):
    return _standalone(data, decode_subgroup, path)


# -- characters ---------------------------------------------------------------

def encode_character(chi):
    return {"domain": encode_subgroup(chi.domain),
            "values": [encode_rational(v) for v in chi.values]}


def decode_character(data, ambient, path="character"):
    _expect_object(data, ("domain", "values"), path)
    domain = decode_subgroup(data.get("domain", {}), ambient, f"{path}.domain")
    values = [decode_rational(v, f"{path}.values[{n}]")
              for n, v in enumerate(_expect(data.get("values", []), list, path))]
    try:
        return Character(domain, values)
    except IncidenceGradingsError as exc:
        _fail(path, str(exc))


# -- cyclotomic numbers and incidence elements --------------------------------

def encode_cyclo(c):
    return {"conductor": c.conductor,
            "coeffs": [encode_rational(v) for v in c.coefficients]}


def decode_cyclo(data, path="cyclo"):
    _expect_object(data, ("conductor", "coeffs"), path)
    conductor = _expect(data.get("conductor", 1), int, f"{path}.conductor")
    coeffs = [decode_rational(v, f"{path}.coeffs[{n}]")
              for n, v in enumerate(_expect(data.get("coeffs", []), list, path))]
    try:
        nums = [c.numerator for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs)) if coeffs else 1
        return CycloNumber(conductor,
                           [x * (den // c.denominator) for x, c in
                            zip(nums, coeffs)], den)
    except (ValueError, TypeError) as exc:
        _fail(path, str(exc))


def encode_incidence_element(elem):
    entries = []
    for (x, y) in sorted(elem.coeffs, key=lambda p: (str(p[0]), str(p[1]))):
        entries.append({"from": x, "to": y,
                        "coeff": encode_cyclo(elem.coeffs[(x, y)])})
    return entries


# -- posets --------------------------------------------------------------------

def encode_poset(p):
    return {"elements": list(p.elements),
            "covers": [[x, y] for x, y in p.covers()]}


def decode_poset(data, path="poset"):
    _expect_object(data, ("elements", "covers"), path)
    elements = _expect(data.get("elements", []), list, path)
    covers = _expect(data.get("covers", []), list, path)
    # labels are hashed below, so their type is checked first
    for label in elements:
        if not isinstance(label, str):
            _fail(path, "skeleton labels must be strings")
    pairs = []
    for n, pair in enumerate(covers):
        _expect(pair, list, f"{path}.covers[{n}]")
        if len(pair) != 2:
            _fail(f"{path}.covers[{n}]", "cover must be a pair")
        if not all(isinstance(label, str) for label in pair):
            _fail(f"{path}.covers[{n}]", "cover labels must be strings")
        pairs.append((pair[0], pair[1]))
    try:
        return poset_from_relation(elements, pairs)
    except (IncidenceGradingsError, ValueError) as exc:
        _fail(path, str(exc))


# -- bimodule classes -----------------------------------------------------------

def encode_bimodule(m):
    return {"left": encode_subgroup(m.left),
            "right": encode_subgroup(m.right),
            "pairs": [{"char": encode_character(chi), "deg": encode_element(g)}
                      for chi, g in m.pairs]}


def decode_bimodule(data, ambient, path="bimodule"):
    _expect_object(data, ("left", "right", "pairs"), path)
    left = decode_subgroup(data.get("left", {}), ambient, f"{path}.left")
    right = decode_subgroup(data.get("right", {}), ambient, f"{path}.right")
    pairs = []
    for n, entry in enumerate(_expect(data.get("pairs", []), list, path)):
        _expect_object(entry, ("char", "deg"), f"{path}.pairs[{n}]")
        chi = decode_character(entry.get("char", {}), ambient,
                               f"{path}.pairs[{n}].char")
        deg = decode_element(entry.get("deg", []), ambient,
                             f"{path}.pairs[{n}].deg")
        pairs.append((chi, deg))
    try:
        return BimoduleClass(left, right, pairs)
    except IncidenceGradingsError as exc:
        _fail(path, str(exc))


def encode_bimodule_standalone(m):
    doc = encode_bimodule(m)
    doc["ambient"] = encode_group(m.left.ambient)
    return doc


def decode_bimodule_standalone(data, path="bimodule"):
    return _standalone(data, decode_bimodule, path)


# -- grading data ----------------------------------------------------------------

def _cover_keys(skeleton):
    """{"i,j": (i, j)} over the covers; labels holding "," may collide."""
    keys = {}
    for i, j in skeleton.covers():
        key = f"{i},{j}"
        if keys.setdefault(key, (i, j)) != (i, j):
            raise InvalidDatum(
                f"covers {keys[key]!r} and {(i, j)!r} share the key {key!r}")
    return keys


def encode_datum(d):
    return {
        "ambient": encode_group(d.ambient),
        "skeleton": encode_poset(d.skeleton),
        "blocks": {label: encode_subgroup(sub)
                   for label, sub in d.blocks.items()},
        "bimodules": {key: encode_bimodule(d.cover_bimodules[cover])
                      for key, cover in _cover_keys(d.skeleton).items()},
    }


def decode_datum(data, path="datum"):
    _expect_object(data, ("ambient", "skeleton", "blocks", "bimodules"), path)
    ambient = decode_group(data.get("ambient", {}), f"{path}.ambient")
    skeleton = decode_poset(data.get("skeleton", {}), f"{path}.skeleton")
    blocks_data = _expect(data.get("blocks", {}), dict, path)
    blocks = {label: decode_subgroup(sub, ambient, f"{path}.blocks[{label}]")
              for label, sub in blocks_data.items()}
    bimodules_data = _expect(data.get("bimodules", {}), dict, path)
    covers = {}
    try:
        expected = _cover_keys(skeleton)
    except InvalidDatum as exc:
        _fail(f"{path}.bimodules", str(exc))
    for key, entry in bimodules_data.items():
        if key not in expected:
            _fail(f"{path}.bimodules", f"{key!r} is not a cover of the skeleton")
        covers[expected[key]] = decode_bimodule(entry, ambient,
                                                f"{path}.bimodules[{key}]")
    try:
        return GradingDatum(ambient, skeleton, blocks, covers)
    except IncidenceGradingsError as exc:
        _fail(path, str(exc))


def encode_realized(r):
    return {
        "poset": encode_poset(r.poset),
        "basis": [{"element": encode_incidence_element(b.element),
                   "degree": encode_element(b.degree)} for b in r.basis],
    }


# -- reports ----------------------------------------------------------------------

def encode_validation_report(report: ValidationReport):
    return {
        "valid": report.valid,
        "conductor": report.conductor,
        "checked_covers": report.checked_covers,
        "checked_triples": report.checked_triples,
        "issues": [{"condition": i.condition, "location": i.location,
                    "message": i.message} for i in report.issues],
    }


def encode_verification_report(report):
    return {
        "ok": report.ok,
        "dimension": report.dimension,
        "basis_size": report.basis_size,
        "checked_products": report.checked_products,
        "violations": [{"kind": v.kind, "location": v.location,
                        "message": v.message} for v in report.violations],
    }


def encode_link_report(report):
    return {
        "ok": report.ok,
        "checked_pairs": report.checked_pairs,
        "violations": [list(v) for v in report.violations],
    }
