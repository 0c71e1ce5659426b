"""The import-hygiene rule: eager/lazy placement and taint propagation."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.config import OPTIONAL_DEPENDENCIES
from repro.analysis.rules import ImportHygieneRule

from .util import findings_of, make_module, surviving

#: A manifest mirroring the real one, small enough to reason about.
DEPS = {
    "numpy": {
        "eager": frozenset({"repro.vec"}),
        "lazy": frozenset({"repro.probe"}),
    },
}


def rule() -> ImportHygieneRule:
    return ImportHygieneRule(dependencies=DEPS)


class TestDirectImports:
    def test_eager_numpy_outside_designated_fires(self):
        module = make_module("repro.core", "import numpy as np\n")
        (finding,) = findings_of(rule(), module)
        assert "eager import of optional dependency 'numpy'" in finding.message

    def test_eager_numpy_in_designated_module_is_clean(self):
        module = make_module("repro.vec", "import numpy as np\n")
        assert not findings_of(rule(), module)

    def test_lazy_numpy_in_designated_module_is_clean(self):
        module = make_module(
            "repro.probe",
            """
            def detect():
                import numpy
                return numpy
            """,
        )
        assert not findings_of(rule(), module)

    def test_lazy_numpy_outside_designated_fires(self):
        module = make_module(
            "repro.core",
            """
            def compute():
                import numpy as np
                return np.zeros(3)
            """,
        )
        (finding,) = findings_of(rule(), module)
        assert "lazy import" in finding.message

    def test_from_numpy_import_fires(self):
        module = make_module("repro.core", "from numpy import ndarray\n")
        assert findings_of(rule(), module)

    def test_type_checking_import_is_free(self):
        module = make_module(
            "repro.core",
            """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                import numpy as np
            """,
        )
        assert not findings_of(rule(), module)

    def test_guarded_try_import_still_fires(self):
        # try/except at module level still executes at import time.
        module = make_module(
            "repro.core",
            """
            try:
                import numpy as np
            except ImportError:
                np = None
            """,
        )
        assert findings_of(rule(), module)


class TestTaintPropagation:
    def test_eager_import_of_gated_module_fires(self):
        vec = make_module("repro.vec", "import numpy as np\n")
        core = make_module("repro.core", "from repro.vec import kernel\n")
        findings = findings_of(rule(), vec, core)
        assert len(findings) == 1
        assert "'repro.vec'" in findings[0].message
        assert findings[0].path == "repro/core.py"

    def test_taint_propagates_transitively(self):
        vec = make_module("repro.vec", "import numpy as np\n")
        middle = make_module("repro.middle", "import repro.vec\n")
        outer = make_module("repro.outer", "from repro import middle\n")
        findings = findings_of(rule(), vec, middle, outer)
        paths = {finding.path for finding in findings}
        assert "repro/middle.py" in paths  # imports the gated home directly
        assert "repro/outer.py" in paths  # gated transitively

    def test_lazy_import_of_gated_module_is_clean(self):
        vec = make_module("repro.vec", "import numpy as np\n")
        core = make_module(
            "repro.core",
            """
            def backend():
                from repro.vec import kernel
                return kernel
            """,
        )
        assert not findings_of(rule(), vec, core)

    def test_relative_import_resolves(self):
        vec = make_module("repro.vec", "import numpy as np\n")
        core = make_module("repro.core", "from .vec import kernel\n")
        findings = findings_of(rule(), vec, core)
        assert len(findings) == 1
        assert findings[0].path == "repro/core.py"

    def test_one_finding_per_import_statement(self):
        vec = make_module("repro.vec", "import numpy as np\n")
        core = make_module("repro.core", "from .vec import a, b, c\n")
        assert len(findings_of(rule(), vec, core)) == 1


class TestTestsRealm:
    def test_eager_numpy_in_test_module_fires(self):
        module = make_module(
            "test_kernels",
            "import numpy as np\n",
            realm="tests",
            path="tests/test_kernels.py",
        )
        (finding,) = findings_of(rule(), module)
        assert "importorskip" in finding.message

    def test_importorskip_pattern_is_clean(self):
        module = make_module(
            "test_kernels",
            'import pytest\n\nnp = pytest.importorskip("numpy")\n',
            realm="tests",
            path="tests/test_kernels.py",
        )
        assert not findings_of(rule(), module)

    def test_pragma_silences_in_tests(self):
        module = make_module(
            "test_kernels",
            "import numpy as np  # repro: allow(import-hygiene)\n",
            realm="tests",
            path="tests/test_kernels.py",
        )
        assert not surviving(rule(), module)


class TestRealManifest:
    def test_real_designations_hold(self):
        # The shipped manifest allows exactly these placements.
        default = ImportHygieneRule()
        vec = make_module("repro.session.vectorized", "import numpy as np\n")
        probe = make_module(
            "repro.session.columnar",
            "def _detect():\n    import numpy\n    return numpy\n",
        )
        assert not findings_of(default, vec, probe)

    def test_solvers_may_not_import_numpy(self):
        # The covering LP is pure python; numpy has no lazy home in solvers.
        simplex = make_module(
            "repro.solvers.simplex",
            "def covering_lp(sets):\n    import numpy as np\n    return np\n",
        )
        (finding,) = findings_of(ImportHygieneRule(), simplex)
        assert "numpy" in finding.message

    def test_every_designated_module_exists(self, repo_root: Path):
        # A stale entry would silently re-permit the dependency wherever a
        # module of that name reappears.
        for dependency, placements in OPTIONAL_DEPENDENCIES.items():
            for placement, modules in placements.items():
                for name in modules:
                    relative = Path("src", *name.split("."))
                    assert (repo_root / relative.with_suffix(".py")).is_file() or (
                        repo_root / relative / "__init__.py"
                    ).is_file(), f"{dependency} {placement}: no module {name}"

    def test_scipy_never_allowed_in_src(self):
        default = ImportHygieneRule()
        module = make_module(
            "repro.solvers.simplex",
            "def check():\n    import scipy.optimize\n",
        )
        (finding,) = findings_of(default, module)
        assert "scipy" in finding.message

    def test_ortools_never_allowed_in_src(self):
        # No module is a home for ortools, not even the anytime runtime
        # that once probed it: every hard measure solves in pure python.
        default = ImportHygieneRule()
        module = make_module(
            "repro.solvers.anytime",
            "def probe():\n    from ortools.sat.python import cp_model\n",
        )
        (finding,) = findings_of(default, module)
        assert "ortools" in finding.message
