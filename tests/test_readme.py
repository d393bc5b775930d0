"""The README's examples run as written."""

import json
import re
from pathlib import Path

from incidence_gradings import jsonio
from incidence_gradings.datum import validate_datum

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _block(language):
    """The first fenced code block of the given language."""
    return re.search(rf"```{language}\n(.*?)```", README, re.S).group(1)


def test_readme_examples_run_as_written():
    # the quick start's comment states the realized poset's size and the
    # dimension of I(X); the JSON datum decodes and validates
    source = _block("python")
    vertices, dim = map(int, re.search(
        r"# (\d+) poset vertices, dim I\(X\) = (\d+)", source).groups())
    assert (vertices, dim) == (6, 10)
    namespace = {}
    exec(compile(source, "README.md", "exec"), namespace)
    graded = namespace["graded"]
    assert len(graded.poset.elements) == vertices
    assert len(graded.poset.comparable_pairs()) == dim
    d = jsonio.decode_datum(json.loads(_block("json")))
    assert validate_datum(d).valid
