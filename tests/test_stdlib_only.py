"""The package imports nothing outside the standard library.

pyproject.toml declares no dependencies, so an import of numpy or any
other installed package would break every installation that lacks it.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Run in a fresh isolated interpreter (-I: no PYTHONPATH, no user site).
# Modules already loaded before the package, by the interpreter and by
# the site packages' .pth files, are not the package's doing; every
# top-level module the package and its submodules add must be the
# package itself or in the standard library.
PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import incidence_gradings
names = sorted(m.name for m in pkgutil.iter_modules(incidence_gradings.__path__))
for name in names:
    importlib.import_module("incidence_gradings." + name)
added = {n.partition(".")[0] for n in set(sys.modules) - before}
print(json.dumps({"submodules": names,
                  "foreign": sorted(added - {"incidence_gradings"}
                                    - set(sys.stdlib_module_names))}))
"""


def test_package_imports_only_the_standard_library():
    done = subprocess.run([sys.executable, "-I", "-c", PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    assert {"cli", "datum", "oracle", "posets"} <= set(found["submodules"])
    assert found["foreign"] == []
