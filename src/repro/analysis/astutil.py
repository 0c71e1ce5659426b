"""Shared AST helpers for the lint rules.

Name and import resolution here is deliberately *syntactic*: the rules run
on one file set with no interpreter, so they resolve what the source spells
out (module aliases, ``from`` imports, module-level string constants,
relative imports) and nothing more.  Every rule documents which
approximations it rides on.
"""

from __future__ import annotations

import ast
from typing import Iterator


def iter_functions(
    tree: ast.Module,
) -> Iterator[tuple[str | None, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """Yield ``(class name | None, function)`` for module- and class-level defs.

    Nested functions and lambdas are *not* yielded separately — their
    bodies belong to the enclosing definition (``ast.walk`` over the parent
    reaches them), which is exactly the attribution call-graph and
    write-scan rules want.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, item


def is_type_checking(test: ast.expr) -> bool:
    """Whether *test* is the ``TYPE_CHECKING`` / ``typing.TYPE_CHECKING`` guard."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def resolve_relative(module_name: str, level: int, target: str | None) -> str:
    """Absolute dotted name of a relative import found in *module_name*.

    ``from ..solvers import anytime`` inside ``repro.session.session``
    resolves to ``repro.solvers`` (the imported *names* are appended by the
    caller when needed).
    """
    if level == 0:
        return target or ""
    parts = module_name.split(".")
    # Level 1 = current package: drop the module's own basename.
    base = parts[: len(parts) - level]
    if target:
        base = base + target.split(".")
    return ".".join(base)


def eager_imports(tree: ast.Module) -> Iterator[tuple[ast.stmt, ast.AST]]:
    """Module-level import statements, skipping ``if TYPE_CHECKING`` blocks.

    Yields ``(import node, enclosing node)`` for imports at module level
    and inside module-level ``if``/``try`` blocks (a guarded module-level
    import still executes at import time).
    """

    def walk(body: list[ast.stmt]) -> Iterator[tuple[ast.stmt, ast.AST]]:
        for node in body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield node, node
            elif isinstance(node, ast.If):
                if is_type_checking(node.test):
                    yield from walk(node.orelse)
                else:
                    yield from walk(node.body)
                    yield from walk(node.orelse)
            elif isinstance(node, ast.Try):
                yield from walk(node.body)
                for handler in node.handlers:
                    yield from walk(handler.body)
                yield from walk(node.orelse)
                yield from walk(node.finalbody)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                yield from walk(node.body)

    yield from walk(tree.body)


def lazy_imports(tree: ast.Module) -> Iterator[ast.stmt]:
    """Import statements inside function bodies (the lazy form)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    yield inner


def imported_module_names(
    node: ast.stmt, module_name: str
) -> list[str]:
    """Absolute module names an import statement binds or loads.

    For ``import a.b`` this is ``a.b``; for ``from p import x, y`` it is
    ``p.x`` and ``p.y`` *plus* ``p`` itself (importing a name from a
    package loads the package; whether ``x`` is a module or an object the
    conservative reading is "both were touched").
    """
    names: list[str] = []
    if isinstance(node, ast.Import):
        for alias in node.names:
            names.append(alias.name)
    elif isinstance(node, ast.ImportFrom):
        base = resolve_relative(module_name, node.level, node.module)
        if base:
            names.append(base)
            for alias in node.names:
                if alias.name != "*":
                    names.append(f"{base}.{alias.name}")
    return names


def module_aliases(tree: ast.Module, module_name: str) -> dict[str, str]:
    """Names bound at module level that refer to *modules*: alias -> dotted.

    Covers ``import x.y as z`` (z -> x.y), ``import x`` (x -> x) and
    ``from pkg import mod`` / ``from . import mod`` (mod -> pkg.mod).  The
    last form is ambiguous between a module and an object; callers treat a
    hit as "may be this module" and verify against the project index.
    """
    aliases: dict[str, str] = {}
    for node, _ in eager_imports(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[bound] = target
        elif isinstance(node, ast.ImportFrom):
            base = resolve_relative(module_name, node.level, node.module)
            if not base:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{base}.{alias.name}"
    return aliases


def imported_names(tree: ast.Module, module_name: str) -> dict[str, tuple[str, str]]:
    """``from X import f`` bindings: local name -> (module X, original name)."""
    names: dict[str, tuple[str, str]] = {}
    for node, _ in eager_imports(tree):
        if isinstance(node, ast.ImportFrom):
            base = resolve_relative(module_name, node.level, node.module)
            if not base:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                names[alias.asname or alias.name] = (base, alias.name)
    return names


def module_string_constants(tree: ast.Module) -> dict[str, ast.Assign]:
    """Module-level ``NAME = "literal"`` assignments: name -> assign node."""
    constants: dict[str, ast.Assign] = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    constants[target.id] = node
    return constants


def is_set_expression(node: ast.expr) -> bool:
    """Whether *node* is a syntactically unordered collection.

    Set literals, set comprehensions and direct ``set(...)`` /
    ``frozenset(...)`` calls.  (Dicts are insertion-ordered and not
    flagged.)  Name-typed sets are invisible to syntax — the rule
    documents that approximation.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    return False
