"""The CLI contract under hostile input: exit 0, 1 or 2, never a traceback,
and every line written to stdout or stderr is one JSON document.

The mutated data keep their integers small, so that malformed input is
tested apart from size.  Large integers have a test of their own: one
integer of a datum, or the numerator or denominator of one of its
rational strings, becomes a value from +-2^31 up to 10^300 (`LARGE`), and
the size budgets or the input checks must answer it within the contract.
"""

import contextlib
import copy
import io
import json
import re
from pathlib import Path

from hypothesis import given, settings, strategies as st

from incidence_gradings.cli import main

DATA = Path(__file__).parent / "data"
DATA_DOCS = [json.loads(path.read_text(encoding="utf-8"))
             for path in sorted(DATA.glob("*.json"))
             if not path.name.endswith(".verify.json")]
COMMANDS = st.sampled_from(["validate", "realize", "verify"])
FUZZ = settings(max_examples=1000, derandomize=True, database=None, deadline=None)

SMALL_INTS = st.integers(-40, 40)
SMALL_VALUES = st.one_of(
    SMALL_INTS,
    st.text(max_size=4),
    st.builds(lambda p, q: f"{p}/{q}", SMALL_INTS, SMALL_INTS),
    st.lists(SMALL_INTS, min_size=1, max_size=3),  # coordinates, torsion
)


def _children(node):
    if isinstance(node, dict):
        return list(node)
    return list(range(len(node))) if isinstance(node, list) else []


@st.composite
def mutated_data(draw):
    """A tests/data datum with 1-3 subtrees deleted or replaced by a small
    JSON value.  Each subtree is found by a random walk down from the root,
    so shallow fields such as the torsion list are hit far more often than
    a uniform pick over all subtrees would hit them."""
    doc = copy.deepcopy(draw(st.sampled_from(DATA_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        parent = doc
        key = draw(st.sampled_from(_children(parent)))
        while _children(parent[key]) and draw(st.booleans()):
            parent = parent[key]
            key = draw(st.sampled_from(_children(parent)))
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(SMALL_VALUES)
    return json.dumps(doc).encode("utf-8")


def _check_contract(tmp_path_factory, raw, command):
    path = tmp_path_factory.getbasetemp() / "fuzz-input.json"
    path.write_bytes(raw)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path)])
    assert code in (0, 1, 2)
    for line in out.getvalue().splitlines() + err.getvalue().splitlines():
        json.loads(line)


@FUZZ
@given(raw=st.binary(max_size=64), command=COMMANDS)
def test_arbitrary_bytes_keep_the_contract(tmp_path_factory, raw, command):
    _check_contract(tmp_path_factory, raw, command)


@FUZZ
@given(raw=mutated_data(), command=COMMANDS)
def test_mutated_data_keep_the_contract(tmp_path_factory, raw, command):
    _check_contract(tmp_path_factory, raw, command)


LARGE = st.sampled_from([2 ** 31, -2 ** 31, 2 ** 63, -2 ** 63, 10 ** 18, 10 ** 40,
                         3 ** 80, 10 ** 300])
RATIONAL = re.compile(r"(-?[0-9]+)/(-?[0-9]+)")


def _integer_sites(node, path=()):
    """(path, part) for every integer of a JSON document (part None) and
    for the numerator (0) and denominator (1) of every rational string."""
    if isinstance(node, bool):
        return
    if isinstance(node, int):
        yield path, None
    elif isinstance(node, str) and RATIONAL.fullmatch(node):
        yield path, 0
        yield path, 1
    else:
        for key in _children(node):
            yield from _integer_sites(node[key], path + (key,))


DATA_SITES = [list(_integer_sites(doc)) for doc in DATA_DOCS]


@st.composite
def large_integer_data(draw):
    """A tests/data datum with one integer, numerator or denominator
    replaced by a `LARGE` value."""
    n = draw(st.integers(0, len(DATA_DOCS) - 1))
    doc = copy.deepcopy(DATA_DOCS[n])
    path, part = draw(st.sampled_from(DATA_SITES[n]))
    value = draw(LARGE)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if part is None:
        parent[path[-1]] = value
    else:
        parts = parent[path[-1]].split("/")
        parts[part] = str(value)
        parent[path[-1]] = "/".join(parts)
    return json.dumps(doc).encode("utf-8")


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(raw=large_integer_data(), command=COMMANDS)
def test_large_integers_keep_the_contract(tmp_path_factory, raw, command):
    _check_contract(tmp_path_factory, raw, command)
