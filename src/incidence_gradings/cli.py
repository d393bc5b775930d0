"""Command-line interface.

Every subcommand reads JSON from file arguments ("-" for standard input)
and writes a single canonical JSON document to standard output.  Exit
codes: 0 success, 1 validation/computation failure, 2 malformed input.
Failures are structured JSON objects on standard error, never prose only.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import jsonio
from .bimodules import _class_of_rows, bimodule_iso, bimodule_product
from .characters import dual_group
from .datum import grading_iso, realize, validate_datum
from .errors import IncidenceGradingsError, MalformedInput, NotValid
from .oracle import (
    check_link_equation,
    radical_square_component,
    verify_grading,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MALFORMED = 2


def _unique_keys(pairs):
    doc = dict(pairs)
    if len(doc) != len(pairs):
        raise MalformedInput("duplicate key in a JSON object")
    return doc


def _read_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin, object_pairs_hook=_unique_keys)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    # ValueError: bad JSON or not UTF-8; RecursionError: nested too deep
    except (OSError, ValueError, RecursionError, MalformedInput) as exc:
        raise MalformedInput(f"{path}: {exc}") from exc


def _emit(doc):
    sys.stdout.write(jsonio.dumps_canonical(doc) + "\n")


def _emit_error(kind, message, extra=None):
    doc = {"error": {"type": kind, "message": message}}
    if extra:
        doc["error"].update(extra)
    sys.stderr.write(jsonio.dumps_canonical(doc) + "\n")


def cmd_validate(args):
    datum = jsonio.decode_datum(_read_json(args.datum))
    report = validate_datum(datum)
    _emit(jsonio.encode_validation_report(report))
    return EXIT_OK if report.valid else EXIT_INVALID


def cmd_realize(args):
    datum = jsonio.decode_datum(_read_json(args.datum))
    realized = realize(datum)
    if args.dot:
        sys.stdout.write(hasse_dot(realized.poset))
        return EXIT_OK
    _emit(jsonio.encode_realized(realized))
    return EXIT_OK


def cmd_verify(args):
    datum = jsonio.decode_datum(_read_json(args.datum))
    try:
        realized = realize(datum)
    except NotValid as exc:
        _emit({"valid": False,
               "validation": jsonio.encode_validation_report(exc.report)})
        return EXIT_INVALID
    grading_report = verify_grading(realized)
    link_report = check_link_equation(realized)
    product_checks = []
    products_ok = True
    for (i, j), state in realized.full_raw.items():
        if (i, j) in datum.cover_bimodules:
            continue  # no block strictly between
        agree = (_class_of_rows(datum.blocks[i], datum.blocks[j], state)
                 == radical_square_component(realized, i, j))
        products_ok = products_ok and agree
        product_checks.append({"pair": [i, j], "agree": agree})
    ok = grading_report.ok and link_report.ok and products_ok
    _emit({
        "valid": True,
        "ok": ok,
        "grading": jsonio.encode_verification_report(grading_report),
        "links": jsonio.encode_link_report(link_report),
        "radical_products": product_checks,
    })
    return EXIT_OK if ok else EXIT_INVALID


def cmd_product(args):
    m12 = jsonio.decode_bimodule_standalone(_read_json(args.m12))
    m23 = jsonio.decode_bimodule_standalone(_read_json(args.m23))
    _emit(jsonio.encode_bimodule_standalone(bimodule_product(m12, m23)))
    return EXIT_OK


def cmd_iso_bimodule(args):
    m = jsonio.decode_bimodule_standalone(_read_json(args.m))
    n = jsonio.decode_bimodule_standalone(_read_json(args.n))
    flag, sigma = bimodule_iso(m, n)
    _emit({"isomorphic": flag,
           "witness": list(sigma) if sigma is not None else None})
    return EXIT_OK


def cmd_iso_grading(args):
    d = jsonio.decode_datum(_read_json(args.d))
    d2 = jsonio.decode_datum(_read_json(args.d2))
    flag, witness = grading_iso(d, d2)
    doc = {"isomorphic": flag, "witness": None}
    if flag:
        alpha, mu = witness
        doc["witness"] = {
            "alpha": {str(k): v for k, v in alpha.items()},
            "mu": {str(k): jsonio.encode_character(chi)
                   for k, chi in mu.items()},
        }
    _emit(doc)
    return EXIT_OK


def cmd_dual(args):
    data = _read_json(args.subgroup)
    if not isinstance(data, dict):
        raise MalformedInput("subgroup: expected an object")
    sub = jsonio.decode_subgroup_standalone(data)
    if not sub.is_finite:
        raise MalformedInput("subgroup: dual group requires a finite subgroup")
    _emit({"ambient": jsonio.encode_group(sub.ambient),
           "characters": [jsonio.encode_character(chi)
                          for chi in dual_group(sub)]})
    return EXIT_OK


def _dot_id(label):
    escaped = str(label).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def hasse_dot(poset):
    """Graphviz text for the Hasse diagram (covers only)."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for v in poset.elements:
        lines.append(f"  {_dot_id(v)};")
    for x, y in poset.covers():
        lines.append(f"  {_dot_id(x)} -> {_dot_id(y)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def build_parser():
    parser = argparse.ArgumentParser(
        prog="incidence-gradings",
        description="Construct, validate, multiply and classify group "
                    "gradings on finite-dimensional incidence algebras.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check the realizability conditions")
    p.add_argument("datum")
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("realize",
                        help="build the graded incidence algebra of a datum")
    p.add_argument("datum")
    p.add_argument("--dot", action="store_true",
                   help="emit the Hasse diagram as graphviz text instead")
    p.set_defaults(func=cmd_realize)

    p = subs.add_parser("verify",
                        help="realize, then re-check everything brute-force")
    p.add_argument("datum")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("product", help="two-step product of bimodule classes")
    p.add_argument("m12")
    p.add_argument("m23")
    p.set_defaults(func=cmd_product)

    p = subs.add_parser("iso-bimodule", help="graded bimodule isomorphism test")
    p.add_argument("m")
    p.add_argument("n")
    p.set_defaults(func=cmd_iso_bimodule)

    p = subs.add_parser("iso-grading", help="grading isomorphism test")
    p.add_argument("d")
    p.add_argument("d2")
    p.set_defaults(func=cmd_iso_grading)

    p = subs.add_parser("dual", help="list the characters of a finite subgroup")
    p.add_argument("subgroup")
    p.set_defaults(func=cmd_dual)
    return parser


@functools.lru_cache(maxsize=1)
def _parser():
    # one parser per process: building it costs about as much as a small
    # verify, and parse_args leaves it unchanged
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except MalformedInput as exc:
        _emit_error("MalformedInput", str(exc))
        return EXIT_MALFORMED
    except NotValid as exc:
        _emit_error("NotValid", str(exc),
                    {"report": jsonio.encode_validation_report(exc.report)})
        return EXIT_INVALID
    except IncidenceGradingsError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
