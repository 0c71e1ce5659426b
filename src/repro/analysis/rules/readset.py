"""Componentwise read-set discipline for the component hooks.

``ComponentwiseMeasure.component_value`` is the locality contract the whole
incremental engine leans on: a component's part may depend only on that
component's MI family (and the facts of its problematic members), because
``component_cache_key`` content-addresses exactly that input and the
``ComponentValueCache`` and the components' own values replay parts
without re-running the measure.  An implementation that peeks anywhere else — the database at
large, the per-constraint stores, session state — computes values the cache
key does not capture, and warm restores silently serve wrong numbers.  The
budgeted hooks ``bounded_value`` and ``component_bounds`` answer in
``component_value``'s place under a budget (and ``bounded_value``'s exact
float is cached the same way), so they carry the same contract.

The rule finds every subclass of ``ComponentwiseMeasure`` (name-based, over
the collected ``src/`` tree, transitively) and checks the body of each hook
named in ``COMPONENT_ENTRIES``:

* the *component* parameter may be read only through the accessors in
  ``COMPONENT_ACCESSORS`` (the MI family and its derived views) or handed
  whole to an audited helper (``COMPONENT_HELPERS``) or to another method
  of the same class — which is then checked with the same role;
* the *database* parameter may be subscripted (``database[fact_id]`` — a
  fact lookup by problematic-member id) or handed to the same audited
  helpers / same-class methods, and nothing else: no attribute reads, no
  iteration, no aliasing;
* any other use (aliasing into a local, returning the raw parameter,
  passing to an unaudited callee) is flagged — aliasing would defeat the
  check, so it is conservatively treated as a violation.

Parameters are identified positionally from the contract signature
``(self, constraints, database, component, ...)`` every hook shares; the
*constraints* parameter is unrestricted (measures legitimately inspect the
constraint set).
"""

from __future__ import annotations

import ast
from typing import Iterable

from .. import config
from ..core import Finding, Project, Rule, SourceModule, qualname

_ClassKey = tuple[str, str]  # (module name, class name)


class ComponentReadSetRule(Rule):
    name = "component-readset"
    description = (
        "component hooks (component_value, bounded_value, component_bounds) "
        "read components only through the MI-family accessors and the "
        "database only via fact subscripts or audited helpers"
    )

    def __init__(
        self,
        base_class: str = config.COMPONENTWISE_BASE,
        accessors: frozenset[str] = config.COMPONENT_ACCESSORS,
        helpers: frozenset[str] = config.COMPONENT_HELPERS,
    ) -> None:
        self.base_class = base_class
        self.accessors = accessors
        self.helpers = helpers

    # ------------------------------------------------------------------
    def finish(self, project: Project) -> Iterable[Finding]:
        classes: dict[_ClassKey, tuple[ast.ClassDef, SourceModule]] = {}
        bases: dict[_ClassKey, list[str]] = {}
        for module in project.realm("src"):
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef):
                    key = (module.name, node.name)
                    classes[key] = (node, module)
                    bases[key] = [
                        base.id
                        for base in node.bases
                        if isinstance(base, ast.Name)
                    ] + [
                        base.attr
                        for base in node.bases
                        if isinstance(base, ast.Attribute)
                    ]

        componentwise = {
            key
            for key in classes
            if self._is_componentwise(key, bases, set())
        }
        for key in sorted(componentwise):
            node, module = classes[key]
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name in config.COMPONENT_ENTRIES
                ):
                    yield from self._check_entry(module, node, item)

    def _is_componentwise(
        self,
        key: _ClassKey,
        bases: dict[_ClassKey, list[str]],
        seen: set[_ClassKey],
    ) -> bool:
        if key in seen:
            return False
        seen.add(key)
        for base in bases.get(key, ()):
            if base == self.base_class:
                return True
            for other in bases:
                if other[1] == base and self._is_componentwise(
                    other, bases, seen
                ):
                    return True
        return False

    # ------------------------------------------------------------------
    def _check_entry(
        self,
        module: SourceModule,
        cls: ast.ClassDef,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterable[Finding]:
        params = [arg.arg for arg in func.args.args]
        if params and params[0] == "self":
            params = params[1:]
        roles: dict[str, str] = {}
        # Contract signature: (constraints, database, component, ...).
        if len(params) >= 2:
            roles[params[1]] = "database"
        if len(params) >= 3:
            roles[params[2]] = "component"
        yield from self._check_function(
            module, cls, func, roles, visited=set()
        )

    def _check_function(
        self,
        module: SourceModule,
        cls: ast.ClassDef,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        roles: dict[str, str],
        visited: set[tuple[str, frozenset[tuple[str, str]]]],
    ) -> Iterable[Finding]:
        mark = (func.name, frozenset(roles.items()))
        if mark in visited or not roles:
            return
        visited.add(mark)
        parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(func):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        # Lambdas rebind names: a lambda parameter shadowing a tracked name
        # makes uses inside it untracked.
        shadowed: set[ast.AST] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Lambda):
                bound = {arg.arg for arg in node.args.args}
                if bound & roles.keys():
                    shadowed.update(ast.walk(node.body))
        for node in ast.walk(func):
            if (
                not isinstance(node, ast.Name)
                or node.id not in roles
                or node in shadowed
                or isinstance(node.ctx, (ast.Store, ast.Del))
            ):
                continue
            role = roles[node.id]
            verdict = self._classify_use(node, role, parents, cls)
            if verdict is None:
                continue
            if isinstance(verdict, str):
                yield module.finding(
                    self.name,
                    node,
                    verdict,
                    symbol=qualname(cls.name, func.name),
                )
            else:
                # Propagate into a same-class method with the role attached.
                target, new_roles = verdict
                yield from self._check_function(
                    module, cls, target, new_roles, visited
                )

    # ------------------------------------------------------------------
    def _class_method(
        self, cls: ast.ClassDef, name: str
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        for item in cls.body:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == name
            ):
                return item
        return None

    def _classify_use(
        self,
        node: ast.Name,
        role: str,
        parents: dict[ast.AST, ast.AST],
        cls: ast.ClassDef,
    ):
        """``None`` if allowed, a message if flagged, or a propagation target."""
        parent = parents.get(node)
        if isinstance(parent, ast.Subscript) and parent.value is node:
            if role == "database":
                return None  # database[fact_id]: the sanctioned fact lookup
            return (
                f"subscript access on the component parameter; read it "
                f"through the MI-family accessors "
                f"({', '.join(sorted(self.accessors))})"
            )
        if isinstance(parent, ast.Attribute) and parent.value is node:
            if role == "component" and parent.attr in self.accessors:
                return None
            return (
                f"read of '.{parent.attr}' on the {role} parameter in a "
                f"component hook; the componentwise contract allows only "
                + (
                    f"the accessors {', '.join(sorted(self.accessors))}"
                    if role == "component"
                    else "fact subscripts and audited helpers"
                )
            )
        if isinstance(parent, ast.Call) and node in parent.args:
            callee = parent.func
            if isinstance(callee, ast.Name) and callee.id in self.helpers:
                return None
            if isinstance(callee, ast.Attribute):
                if callee.attr in self.helpers:
                    return None
                if (
                    isinstance(callee.value, ast.Name)
                    and callee.value.id == "self"
                ):
                    target = self._class_method(cls, callee.attr)
                    if target is not None:
                        position = parent.args.index(node)
                        params = [arg.arg for arg in target.args.args]
                        if params and params[0] == "self":
                            params = params[1:]
                        if position < len(params):
                            return (target, {params[position]: role})
                        return None
            name = (
                callee.attr
                if isinstance(callee, ast.Attribute)
                else callee.id
                if isinstance(callee, ast.Name)
                else "?"
            )
            return (
                f"{role} parameter handed whole to unaudited callee "
                f"'{name}()'; only the audited helpers "
                f"({', '.join(sorted(self.helpers))}) may take it"
            )
        if isinstance(parent, ast.keyword):
            call = parents.get(parent)
            if isinstance(call, ast.Call):
                callee = call.func
                callee_name = (
                    callee.id
                    if isinstance(callee, ast.Name)
                    else callee.attr
                    if isinstance(callee, ast.Attribute)
                    else "?"
                )
                if callee_name in self.helpers:
                    return None
                return (
                    f"{role} parameter handed whole to unaudited callee "
                    f"'{callee_name}()' as a keyword argument"
                )
        return (
            f"raw use of the {role} parameter (aliasing, return, or "
            f"comparison) in a component hook; aliasing defeats the read-set "
            f"contract behind component_cache_key"
        )
