"""Determinism lint: sources of run-to-run nondeterminism on critical paths.

The engine's headline invariant is *bit-identity*: maintained,
speculative, warm-restored and batch-enumerated results must equal the
from-scratch rebuild bit for bit, which in particular fixes the float
summation order of component parts and the emission order of every
maintained view.  Four classes of code can silently break that:

``id()``-based ordering
    ``sorted(..., key=lambda x: id(x))`` (or ``min``/``max``/``.sort``)
    orders by allocation address — different every process.  Flagged
    everywhere, ``src/`` and ``tests/`` alike; ``id()`` as a *dict key*
    is fine and not matched.

unordered-set iteration feeding order-sensitive consumption
    Iterating a set into a list/tuple, summing floats straight out of a
    set, or keyed ``min``/``max`` over a set (ties break by iteration
    order) — flagged in the bit-identity-critical modules listed in the
    manifest.  Detection is syntactic (set literals/comprehensions and
    direct ``set()``/``frozenset()`` calls); name-typed sets are the
    randomized conformance suites' job.

unseeded global randomness
    Module-level ``random.random()``/``choice``/``shuffle``/... share
    interpreter-global state.  Every random decision in ``src/`` must flow
    through an explicitly seeded ``random.Random`` instance.

wall-clock reads
    ``time.time``/``perf_counter``/``monotonic`` and ``datetime.now`` make
    output depend on the scheduler.  Allowed only in the designated timing
    modules (the budget runtime, the experiment drivers, the ingest
    latency counters).
"""

from __future__ import annotations

import ast
from typing import Iterable

from .. import config
from ..astutil import is_set_expression
from ..core import Finding, Rule, SourceModule

_RANDOM_GLOBAL = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

_CLOCK_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    }
)

_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

_SORTERS = frozenset({"sorted", "min", "max"})


class DeterminismRule(Rule):
    name = "determinism"
    description = (
        "id()-based sort keys, unseeded global random, wall-clock reads, "
        "and unordered-set iteration feeding order-sensitive emission"
    )

    def __init__(
        self,
        bit_critical: frozenset[str] = config.BIT_CRITICAL_MODULES,
        clock_modules: frozenset[str] = config.CLOCK_MODULES,
        package_root: str = config.PACKAGE_ROOT,
    ) -> None:
        self.bit_critical = bit_critical
        self.clock_modules = clock_modules
        self.package_root = package_root

    def check_module(self, module: SourceModule) -> Iterable[Finding]:
        in_src = module.realm == "src"
        in_critical = module.name in self.bit_critical
        check_clock = in_src and module.name not in self.clock_modules
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_sort_key(module, node)
                if in_src:
                    yield from self._check_global_random(module, node)
                if in_critical:
                    yield from self._check_set_consumption(module, node)
            elif isinstance(node, ast.Attribute) and check_clock:
                yield from self._check_clock(module, node)
            elif isinstance(node, ast.For) and in_critical:
                if is_set_expression(node.iter):
                    yield module.finding(
                        self.name,
                        node.iter,
                        "iteration over an unordered set expression on a "
                        "bit-identity-critical path; sort it first",
                    )

    # ------------------------------------------------------------------
    # id()-based ordering
    # ------------------------------------------------------------------
    def _key_argument(self, call: ast.Call) -> ast.expr | None:
        is_sorter = (
            isinstance(call.func, ast.Name) and call.func.id in _SORTERS
        ) or (isinstance(call.func, ast.Attribute) and call.func.attr == "sort")
        if not is_sorter:
            return None
        for keyword in call.keywords:
            if keyword.arg == "key":
                return keyword.value
        return None

    def _check_sort_key(
        self, module: SourceModule, call: ast.Call
    ) -> Iterable[Finding]:
        key = self._key_argument(call)
        if key is None:
            return
        uses_id = (isinstance(key, ast.Name) and key.id == "id") or any(
            isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Name)
            and inner.func.id == "id"
            for inner in ast.walk(key)
        )
        if uses_id:
            yield module.finding(
                self.name,
                call,
                "id()-based sort key orders by allocation address, which "
                "differs between runs; order by content instead",
            )

    # ------------------------------------------------------------------
    # unordered-set consumption on critical paths
    # ------------------------------------------------------------------
    def _check_set_consumption(
        self, module: SourceModule, call: ast.Call
    ) -> Iterable[Finding]:
        if not isinstance(call.func, ast.Name):
            return
        name = call.func.id
        first = call.args[0] if call.args else None
        if first is None:
            return
        if name in {"list", "tuple"} and is_set_expression(first):
            yield module.finding(
                self.name,
                call,
                f"{name}() over an unordered set expression emits in hash "
                "order on a bit-identity-critical path; wrap in sorted()",
            )
        elif name in {"sum", "fsum"} and self._unordered_source(first):
            yield module.finding(
                self.name,
                call,
                "accumulation over an unordered set expression fixes no "
                "float-summation order; sort the operands first",
            )
        elif name in {"min", "max"} and is_set_expression(first):
            if any(keyword.arg == "key" for keyword in call.keywords):
                yield module.finding(
                    self.name,
                    call,
                    f"keyed {name}() over an unordered set breaks ties by "
                    "iteration order; use a total key or sort first",
                )

    def _unordered_source(self, node: ast.expr) -> bool:
        if is_set_expression(node):
            return True
        if isinstance(node, ast.GeneratorExp):
            return any(
                is_set_expression(comp.iter) for comp in node.generators
            )
        return False

    # ------------------------------------------------------------------
    # unseeded global randomness
    # ------------------------------------------------------------------
    def _check_global_random(
        self, module: SourceModule, call: ast.Call
    ) -> Iterable[Finding]:
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "random"
            and func.attr in _RANDOM_GLOBAL
        ):
            yield module.finding(
                self.name,
                call,
                f"random.{func.attr}() draws from the unseeded interpreter-"
                "global stream; use an explicitly seeded random.Random",
            )

    # ------------------------------------------------------------------
    # wall clock
    # ------------------------------------------------------------------
    def _check_clock(
        self, module: SourceModule, node: ast.Attribute
    ) -> Iterable[Finding]:
        value = node.value
        if (
            isinstance(value, ast.Name)
            and value.id == "time"
            and node.attr in _CLOCK_ATTRS
        ):
            yield module.finding(
                self.name,
                node,
                f"wall-clock read time.{node.attr} outside the designated "
                "timing modules",
            )
        elif node.attr in _DATETIME_ATTRS and (
            (isinstance(value, ast.Name) and value.id in {"datetime", "date"})
            or (
                isinstance(value, ast.Attribute)
                and value.attr in {"datetime", "date"}
            )
        ):
            yield module.finding(
                self.name,
                node,
                f"wall-clock read datetime.{node.attr} outside the "
                "designated timing modules",
            )
