"""Preview purity: the speculative read path must not write live state.

Batched speculation's whole contract is that scoring a candidate set
leaves the session's derived state untouched: candidates are previewed
through ``ComponentTopology.preview`` (a read-only regional status pass)
and the live topology, witness stores and assembled-index cache are never
written — so the memoized base snapshot stays valid and the batch ends by
*dropping* its balanced dirty marks instead of flushing.  One assignment
to the wrong attribute anywhere in that call tree silently corrupts the
maintained state for every later read.

The rule builds the intra-package call graph from the preview entry points
(manifest: ``PREVIEW_ROOTS``) and flags any assignment/deletion of a
protected attribute (``PREVIEW_PROTECTED_ATTRS`` — the topology's
maintained structures, the session's stores and caches) in reachable code,
and any item store into one (a subscript target whose base is a protected
attribute, in an assignment, augmented assignment or deletion).

Call resolution is syntactic and deliberately conservative-but-bounded:

* ``self.m(...)`` resolves within the class (and its in-package bases);
* ``alias.f(...)`` through a module alias resolves exactly;
* ``obj.m(...)`` with an unknown receiver resolves to *every* in-package
  method named ``m`` — except the builtin-collection names in
  ``PREVIEW_SKIP_METHODS``, which would wire the graph to every
  ``set.add``/``dict.get`` call site;
* documented mutation barriers (``PREVIEW_STOP_EDGES`` — the pre-batch
  flush, the whole-database measures' index-free read) are not descended
  into; each carries its justification in the manifest.

Every ``PREVIEW_ROOTS`` / ``PREVIEW_STOP_EDGES`` entry must name a
function in ``src/``; a stale entry (a renamed root, a moved barrier) is
reported against the manifest module, since it would otherwise quietly
leave part of the preview unchecked.

Method-call mutation (``store.add(...)``) is invisible to an
assignment-based scan; the randomized preview-identity suites cover that
side.  This rule makes the *structural* half — no reachable function may
even contain a protected-state assignment — fail in CI before a test has
to get lucky.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .. import config
from ..astutil import imported_names, iter_functions, module_aliases
from ..core import Finding, Project, Rule, qualname

_FuncKey = tuple[str, str | None, str]  # (module, class | None, function)


class _FunctionInfo:
    __slots__ = ("key", "node", "module")

    def __init__(self, key: _FuncKey, node: ast.AST, module) -> None:
        self.key = key
        self.node = node
        self.module = module

    @property
    def qualified(self) -> str:
        mod, cls, func = self.key
        return f"{mod}:{qualname(cls, func)}"


class PreviewPurityRule(Rule):
    name = "preview-purity"
    description = (
        "functions reachable from the speculation preview must not assign "
        "to live-topology/store/cache attributes"
    )

    def __init__(
        self,
        roots: tuple[str, ...] = config.PREVIEW_ROOTS,
        stop_edges: frozenset[str] = config.PREVIEW_STOP_EDGES,
        protected: frozenset[str] = config.PREVIEW_PROTECTED_ATTRS,
        skip_methods: frozenset[str] = config.PREVIEW_SKIP_METHODS,
    ) -> None:
        self.roots = roots
        self.stop_edges = stop_edges
        self.protected = protected
        self.skip_methods = skip_methods

    # ------------------------------------------------------------------
    def finish(self, project: Project) -> Iterable[Finding]:
        functions: dict[_FuncKey, _FunctionInfo] = {}
        by_method: dict[str, list[_FuncKey]] = {}
        by_function: dict[str, list[_FuncKey]] = {}
        bases: dict[tuple[str, str], list[str]] = {}
        for module in project.realm("src"):
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef):
                    bases[(module.name, node.name)] = [
                        base.id
                        for base in node.bases
                        if isinstance(base, ast.Name)
                    ]
            for cls, func in iter_functions(module.tree):
                key = (module.name, cls, func.name)
                functions[key] = _FunctionInfo(key, func, module)
                if cls is None:
                    by_function.setdefault(func.name, []).append(key)
                else:
                    by_method.setdefault(func.name, []).append(key)

        resolve_cache: dict[_FuncKey, list[_FuncKey]] = {}

        def callees(key: _FuncKey) -> list[_FuncKey]:
            cached = resolve_cache.get(key)
            if cached is None:
                cached = self._callees(
                    functions[key], functions, by_method, by_function, bases
                )
                resolve_cache[key] = cached
            return cached

        # A manifest entry that names no function would silently shrink
        # the checked call graph (a renamed root leaves nothing to check),
        # so every stale entry is a finding of its own.
        yield from self._stale_entries(project, functions)

        # BFS from the roots, skipping documented stop edges.
        reachable: dict[_FuncKey, _FuncKey | None] = {}
        queue: list[_FuncKey] = []
        for root in self.roots:
            key = self._parse_ref(root)
            if key in functions:
                reachable[key] = None
                queue.append(key)
        while queue:
            current = queue.pop()
            for target in callees(current):
                if target in reachable:
                    continue
                if functions[target].qualified in self.stop_edges:
                    continue
                reachable[target] = current
                queue.append(target)

        # Scan reachable bodies for protected-attribute writes.
        for key in reachable:
            info = functions[key]
            for finding in self._scan_writes(info, reachable):
                yield finding

    # ------------------------------------------------------------------
    def _stale_entries(
        self, project: Project, functions: dict[_FuncKey, _FunctionInfo]
    ) -> Iterable[Finding]:
        manifest = project.module(config.__name__)
        if manifest is None:
            return  # the manifest is not part of the tree (fixture projects)
        for kind, refs in (
            ("PREVIEW_ROOTS", self.roots),
            ("PREVIEW_STOP_EDGES", self.stop_edges),
        ):
            for ref in sorted(refs):
                if self._parse_ref(ref) not in functions:
                    yield manifest.finding(
                        self.name,
                        manifest.tree,
                        f"{kind} entry '{ref}' resolves to no function in "
                        f"src/ (stale preview manifest entry)",
                    )

    def _parse_ref(self, ref: str) -> _FuncKey:
        mod, _, rest = ref.partition(":")
        cls, dot, func = rest.partition(".")
        if dot:
            return (mod, cls, func)
        return (mod, None, rest)

    def _callees(
        self,
        info: _FunctionInfo,
        functions: dict[_FuncKey, _FunctionInfo],
        by_method: dict[str, list[_FuncKey]],
        by_function: dict[str, list[_FuncKey]],
        bases: dict[tuple[str, str], list[str]],
    ) -> list[_FuncKey]:
        module = info.module
        mod_name, own_class, _ = info.key
        aliases = module_aliases(module.tree, mod_name)
        from_imports = imported_names(module.tree, mod_name)
        targets: set[_FuncKey] = set()
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
                if (mod_name, None, name) in functions:
                    targets.add((mod_name, None, name))
                elif name in from_imports:
                    source, original = from_imports[name]
                    if (source, None, original) in functions:
                        targets.add((source, None, original))
            elif isinstance(func, ast.Attribute):
                attr = func.attr
                receiver = func.value
                if isinstance(receiver, ast.Name) and receiver.id == "self":
                    resolved = self._resolve_self(
                        mod_name, own_class, attr, functions, bases
                    )
                    if resolved is not None:
                        targets.add(resolved)
                        continue
                if isinstance(receiver, ast.Name) and receiver.id in aliases:
                    source = aliases[receiver.id]
                    if (source, None, attr) in functions:
                        targets.add((source, None, attr))
                        continue
                if attr in self.skip_methods:
                    continue
                targets.update(by_method.get(attr, ()))
        return sorted(targets, key=lambda key: (key[0], key[1] or "", key[2]))

    def _resolve_self(
        self,
        mod_name: str,
        own_class: str | None,
        attr: str,
        functions: dict[_FuncKey, _FunctionInfo],
        bases: dict[tuple[str, str], list[str]],
        seen: frozenset[tuple[str, str]] = frozenset(),
    ) -> _FuncKey | None:
        if own_class is None:
            return None
        key = (mod_name, own_class, attr)
        if key in functions:
            return key
        # Walk base classes by name within the package (same module or any
        # module defining a class of that name).
        for base in bases.get((mod_name, own_class), ()):
            for (base_mod, base_cls), _ in list(bases.items()):
                if base_cls != base or (base_mod, base_cls) in seen:
                    continue
                resolved = self._resolve_self(
                    base_mod,
                    base_cls,
                    attr,
                    functions,
                    bases,
                    seen | {(base_mod, base_cls)},
                )
                if resolved is not None:
                    return resolved
        return None

    # ------------------------------------------------------------------
    def _scan_writes(
        self,
        info: _FunctionInfo,
        reachable: dict[_FuncKey, _FuncKey | None],
    ) -> Iterable[Finding]:
        for node in ast.walk(info.node):
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, ast.AugAssign) or (
                isinstance(node, ast.AnnAssign) and node.value is not None
            ):
                targets = [node.target]
            else:
                continue
            for target in targets:
                # An item store (``self._tags[w] = ...``, ``x[k] += ...``,
                # ``del self._binding[f]``) writes its base attribute.
                kind = "write to"
                while isinstance(target, ast.Subscript):
                    kind = "item store into"
                    target = target.value
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in self.protected
                ):
                    mod, cls, func = info.key
                    yield info.module.finding(
                        self.name,
                        target,
                        f"{kind} protected attribute '{target.attr}' in "
                        f"'{qualname(cls, func)}', which is reachable from "
                        f"the read-only speculation preview "
                        f"({self._path(info.key, reachable)})",
                        symbol=qualname(cls, func),
                    )

    def _path(
        self,
        key: _FuncKey,
        reachable: dict[_FuncKey, _FuncKey | None],
    ) -> str:
        chain: list[str] = []
        cursor: _FuncKey | None = key
        while cursor is not None and len(chain) < 12:
            mod, cls, func = cursor
            chain.append(qualname(cls, func))
            cursor = reachable.get(cursor)
        return " <- ".join(chain)
