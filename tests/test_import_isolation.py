"""Optional dependencies must stay out of the default import graph.

The pure-python leg (the list column backend) runs on interpreters
without numpy/scipy/ortools installed, so importing every
non-extra module must succeed with those distributions absent.  The static
half of this contract is the ``import-hygiene`` lint rule; this test is
the runtime half: a subprocess installs a meta-path blocker that raises on
any optional-dependency import, then imports the whole package and
exercises numpy-free end-to-end measurements, including ``I_lin_R`` on a
DC of width 3 (the exact covering-LP path).  Nothing selects the backend:
detection itself must fall back to the list store, and the session must
report that it ran there.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import pkgutil
import sys

BLOCKED = {"numpy", "scipy", "ortools"}


class Blocker:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in BLOCKED:
            raise ImportError(f"optional dependency {name!r} imported eagerly")
        return None


sys.meta_path.insert(0, Blocker())

import repro

# Import every module in the package except the numpy-native column
# backend, which is the one designated eager home (only ever loaded
# lazily, behind the availability probe).
skipped = {"repro.session.vectorized"}
for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
    if info.name in skipped:
        continue
    __import__(info.name)

# Backend detection falls back on its own: no option selects it.
from repro.session import VECTOR_BACKEND

assert VECTOR_BACKEND == "list", VECTOR_BACKEND

# Real measurements must run end to end on the list backend.
from repro import (
    Database,
    FunctionalDependency,
    MeasurementSession,
    Schema,
    make_measure,
)

schema = Schema.from_dict({"R": ["zip", "city"]})
db = Database.from_rows(schema, "R", [("1", "a"), ("1", "b"), ("1", "c")])
fd = FunctionalDependency("R", ["zip"], ["city"])
with MeasurementSession([fd], db) as session:
    value = session.measure(make_measure("I_MI"))
    backend = session.stats()["vector_backend"]
assert value == 3.0, value
assert backend == "list", backend

# A width-3 DC (at most two facts) puts its one MI set of three facts on
# the covering-LP path of I_lin_R, which must solve without numpy.
from repro.properties.counterexamples import at_most_k_dc

ids = Database.from_rows(Schema.from_dict({"R": ["Id"]}), "R", [(1,), (2,), (3,)])
value = make_measure("I_lin_R").value([at_most_k_dc(2)], ids)
assert value == 1.0, value
print("OK")
"""


def test_package_imports_without_optional_dependencies():
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env={"PYTHONPATH": str(_SRC), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().endswith("OK")


def test_measures_import_leaves_the_numpy_backend_unloaded():
    """Importing the measures compiles no numpy column-store code: the
    numpy backend loads only when a store is built on it.  A cold
    ``-B`` import of this chain is what a one-shot measurement pays."""
    probe = (
        "import sys\n"
        "from repro.measures import make_measures\n"
        "assert 'repro.session.vectorized' not in sys.modules\n"
        "print('OK')\n"
    )
    result = subprocess.run(
        [sys.executable, "-B", "-c", probe],
        env={"PYTHONPATH": str(_SRC), "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "OK"
