"""Optional-dependency import hygiene.

The core package is dependency-free on purpose (see ``setup.py``): numpy
only speeds the column kernels up, and the pure-python leg — the list
column backend numpy-free installs run — must import every non-extra
module on a bare interpreter without the dependency installed.  Roots
that are no dependency at all (ortools, scipy) are listed with no
designated modules, so any import of them in ``src/`` is a finding.  That dies the moment someone writes an eager
``import numpy`` at module top, and nothing in the type system stops them.

The rule enforces the manifest in :mod:`repro.analysis.config`:

* an optional dependency may be imported **eagerly** (module top) only in
  its designated home modules (``repro.session.vectorized`` for numpy) —
  modules which are themselves only ever imported lazily;
* it may be imported **lazily** (inside a function) only in the designated
  lazy importers (the column backend's availability probe);
* a module that eagerly imports a gated module becomes gated itself — the
  taint propagates over the eager-import graph, so an innocent-looking
  ``from .vectorized import X`` at module top is flagged exactly like a
  direct ``import numpy``;
* ``if TYPE_CHECKING:`` imports are free (they never execute);
* in ``tests/``, eager imports of the dependency are flagged too — the
  numpy-free CI leg must *collect* every test file, so tests take the
  dependency via ``pytest.importorskip`` inside the module body instead.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .. import config
from ..astutil import eager_imports, imported_module_names, lazy_imports
from ..core import Finding, Project, Rule, SourceModule


def _root(name: str) -> str:
    return name.split(".")[0]


class ImportHygieneRule(Rule):
    name = "import-hygiene"
    description = (
        "numpy imported eagerly, or lazily outside the designated modules, "
        "ortools/scipy imported at all; eager imports of gated modules "
        "propagate the taint"
    )

    def __init__(
        self,
        dependencies: dict[str, dict[str, frozenset[str]]] | None = None,
        package_root: str = config.PACKAGE_ROOT,
    ) -> None:
        self.dependencies = (
            dependencies
            if dependencies is not None
            else config.OPTIONAL_DEPENDENCIES
        )
        self.package_root = package_root

    # ------------------------------------------------------------------
    # Project pass: taint propagation needs the whole import graph
    # ------------------------------------------------------------------
    def finish(self, project: Project) -> Iterable[Finding]:
        dep_roots = set(self.dependencies)
        # Pass 1: direct dependency imports, and the eager-import graph.
        edges: dict[str, list[tuple[str, SourceModule, ast.stmt]]] = {}
        gated: set[str] = set()  # modules that touch a dep at import time
        for dep, places in self.dependencies.items():
            gated |= set(places["eager"])
        direct: list[tuple[SourceModule, ast.stmt, str]] = []
        for module in project.realm("src"):
            for node, _ in eager_imports(module.tree):
                node_roots: set[str] = set()
                node_targets: set[str] = set()
                for target in imported_module_names(node, module.name):
                    root = _root(target)
                    if root in dep_roots:
                        if root not in node_roots:
                            node_roots.add(root)
                            direct.append((module, node, root))
                        gated.add(module.name)
                    elif root == self.package_root:
                        if target not in node_targets:
                            node_targets.add(target)
                            edges.setdefault(module.name, []).append(
                                (target, module, node)
                            )
        # Pass 2: propagate gating over eager package-internal imports to a
        # fixpoint.  An importer of a gated module is itself gated (its
        # import would pull the dependency in transitively).
        while True:
            grew = False
            for importer, imports in edges.items():
                if importer in gated:
                    continue
                if any(self._hits_gated(target, gated) for target, _, _ in imports):
                    gated.add(importer)
                    grew = True
            if not grew:
                break
        allowed_eager = set()
        for places in self.dependencies.values():
            allowed_eager |= places["eager"]
        # Findings for direct eager dependency imports.
        for module, node, root in direct:
            if module.name not in self.dependencies[root]["eager"]:
                yield module.finding(
                    self.name,
                    node,
                    f"eager import of optional dependency '{root}' outside "
                    f"its designated modules; import it lazily inside the "
                    f"function that needs it",
                )
        # Findings for eager imports of gated modules.
        reported: set[tuple[str, int, str]] = set()
        for importer, imports in edges.items():
            if importer in allowed_eager:
                continue
            for target, module, node in imports:
                hit = self._hits_gated(target, gated)
                mark = (module.name, node.lineno, hit or "")
                if hit and hit != importer and mark not in reported:
                    reported.add(mark)
                    yield module.finding(
                        self.name,
                        node,
                        f"eager import of '{hit}', which touches an "
                        f"optional dependency at import time; import it "
                        f"lazily instead",
                    )
        # Lazy imports of the dependency outside the designated modules.
        for module in project.realm("src"):
            for node in lazy_imports(module.tree):
                for root in {
                    _root(target)
                    for target in imported_module_names(node, module.name)
                }:
                    if root not in dep_roots:
                        continue
                    places = self.dependencies[root]
                    if module.name not in places["lazy"] | places["eager"]:
                        yield module.finding(
                            self.name,
                            node,
                            f"lazy import of optional dependency '{root}' "
                            f"outside its designated modules; route through "
                            f"the designated accessor module instead",
                        )
        # Tests: eager dependency imports break collection on the bare leg.
        for module in project.realm("tests"):
            for node, _ in eager_imports(module.tree):
                for root in sorted(
                    {
                        _root(target)
                        for target in imported_module_names(node, module.name)
                    }
                ):
                    if root in dep_roots:
                        yield module.finding(
                            self.name,
                            node,
                            f"test module imports optional dependency "
                            f"'{root}' at module top, which fails collection "
                            f"on the {root}-free leg; use "
                            f"pytest.importorskip('{root}')",
                        )

    def _hits_gated(self, target: str, gated: set[str]) -> str | None:
        """The gated module *target* resolves to, if any.

        ``from .vectorized import X`` yields both ``...vectorized`` and
        ``...vectorized.X`` as touched names; match on prefix so either
        form hits.
        """
        if target in gated:
            return target
        prefix = target.rsplit(".", 1)[0]
        if prefix in gated:
            return prefix
        return None
