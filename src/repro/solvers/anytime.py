"""The anytime solver runtime: budgets, bounds-with-status, one budgeted solve.

The hard measures (``I_MC`` — #P-complete MIS counting, ``I_R`` — NP-hard
weighted hitting sets) used to be exact-or-hang: on hub-shaped conflict
components the component *is* the database, component localization cannot
help, and a sweep either finished or stalled.  This module converts every
hard per-component solve into a **budgeted, interruptible, status-carrying
computation**:

* A :class:`Budget` carries a wall-clock allowance through ``measure`` /
  ``measure_all`` / ``speculate`` / ``speculate_batch`` on both session
  flavors.  Inside a budgeted call the runtime slices the remaining time
  across the hard component solves still ahead (:class:`SolveScope`), so
  one pathological component cannot starve the rest.
* Each hard measure overrides two hooks of
  :class:`~repro.measures.base.ComponentwiseMeasure`: ``bounded_value``,
  the pure-python exact solve that polls its :class:`Deadline` and
  degrades to bounds when it expires, and ``component_bounds``, a
  bounds-only computation (greedy upper bound + LP / half-integral lower
  bound for ``I_R``, Moon–Moser for ``I_MC``) that cannot time out.
  :func:`solve_component` runs the first and, when it crashes, answers
  from the second.
* A solve that could not prove optimality returns a :class:`BoundedValue`
  — a ``float`` subclass carrying ``lower``/``upper`` bounds and a
  ``status`` in {``OPTIMAL``, ``FALLBACK``, ``TIMEOUT``} — instead of
  hanging or raising.  Plain floats mean OPTIMAL; the sessions' caches
  admit **only** optimal values, so a tight budget can never poison later
  unbudgeted reads.

Status semantics (severity-ordered; combining takes the worst):

``OPTIMAL``
    Exact value, identical to the unbudgeted solver; ``lower == upper``.
``FALLBACK``
    The exact solve crashed; the bounds answered (honest, possibly even
    tight).
``TIMEOUT``
    The slice expired; ``value`` is the best available estimate inside
    ``[lower, upper]``.

Without a budget nothing changes: no scope is active, every solver runs
the historical exact path, and results are bit-identical to every release
since the measures existed.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, Sequence

from ..testing import faults

# ----------------------------------------------------------------------
# Statuses
# ----------------------------------------------------------------------
OPTIMAL = "OPTIMAL"
FALLBACK = "FALLBACK"
TIMEOUT = "TIMEOUT"

#: Severity order for combining per-component statuses (worst wins).
_SEVERITY = {OPTIMAL: 0, FALLBACK: 1, TIMEOUT: 2}

#: Fault-injection points owned by the runtime (see repro.testing.faults).
FAULT_DEADLINE = "solver.deadline"
FAULT_BACKEND = "solver.backend"


def worst_status(statuses: Sequence[str]) -> str:
    """The most severe status among *statuses* (empty → OPTIMAL)."""
    worst = OPTIMAL
    for status in statuses:
        if _SEVERITY[status] > _SEVERITY[worst]:
            worst = status
    return worst


def status_of(value) -> str:
    """The status a (possibly bounded) measure value carries."""
    return value.status if isinstance(value, BoundedValue) else OPTIMAL


class SolveTimeout(RuntimeError):
    """Raised inside a solver when its deadline expires mid-search.

    Internal to the runtime: the measures' ``bounded_value`` solves catch
    it and degrade to bounds with status ``TIMEOUT``; it never escapes a
    budgeted session call.
    """


class BoundedValue(float):
    """A measure value with honest bounds and a solve status.

    A ``float`` subclass, so every numeric consumer (series, reports,
    comparisons) keeps working on the point estimate; the bounds and the
    status ride along for callers that look.  ``lower ≤ true value ≤
    upper`` always holds; for OPTIMAL results the three coincide (and the
    runtime returns a plain float instead).
    """

    __slots__ = ("lower", "upper", "status")

    def __new__(
        cls, value: float, lower: float, upper: float, status: str
    ) -> "BoundedValue":
        if status not in _SEVERITY:
            raise ValueError(f"unknown solve status {status!r}")
        self = super().__new__(cls, value)
        self.lower = float(lower)
        self.upper = float(upper)
        self.status = status
        return self

    def __reduce__(self):
        return (
            BoundedValue,
            (float(self), self.lower, self.upper, self.status),
        )

    def as_dict(self) -> dict:
        """Plain-data form for JSON reports and benchmarks."""
        return {
            "value": float(self),
            "lower": self.lower,
            "upper": self.upper,
            "status": self.status,
        }

    def __repr__(self) -> str:
        return (
            f"BoundedValue({float(self)!r}, lower={self.lower!r}, "
            f"upper={self.upper!r}, status={self.status!r})"
        )


def bounded(value: float, lower: float, upper: float, status: str):
    """A :class:`BoundedValue`, collapsing OPTIMAL results to plain float."""
    if status == OPTIMAL:
        return float(value)
    # Float fuzz between independently computed bounds must never produce
    # an empty interval around the estimate.
    lower = min(float(lower), float(value))
    upper = max(float(upper), float(value))
    return BoundedValue(value, lower, upper, status)


# ----------------------------------------------------------------------
# Budgets and deadlines
# ----------------------------------------------------------------------
class Budget:
    """A wall-clock allowance for one budgeted session call.

    ``Budget(2.0)`` gives the whole call two seconds; ``Budget(None)`` is
    explicit "no limit" (identical to not passing a budget at all).  The
    deadline starts ticking at construction, so build the budget right
    before the call it governs.  Negative and NaN seconds are rejected.
    """

    __slots__ = ("seconds", "deadline_at", "_clock")

    def __init__(
        self,
        seconds: float | None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        # ``not >=`` so NaN is rejected too: it would compare neither
        # expired nor live and report 0 s remaining.
        if seconds is not None and not seconds >= 0:
            raise ValueError("budget seconds must be a non-negative number")
        self.seconds = None if seconds is None else float(seconds)
        self._clock = clock
        self.deadline_at = (
            None if seconds is None else clock() + float(seconds)
        )

    def remaining(self) -> float | None:
        """Seconds left, or None when unlimited (never negative)."""
        if self.deadline_at is None:
            return None
        return max(0.0, self.deadline_at - self._clock())

    def expired(self) -> bool:
        return self.deadline_at is not None and self._clock() >= self.deadline_at


def as_budget(budget) -> Budget | None:
    """Coerce a session-level budget argument.

    ``None`` stays None (unlimited, exact), a :class:`Budget` passes
    through, and a bare number means seconds — the convenient form for CLI
    flags and sweep drivers.
    """
    if budget is None or isinstance(budget, Budget):
        return budget
    return Budget(float(budget))


class Deadline:
    """One solve's slice of a budget — the object solvers actually poll.

    ``at=None`` never expires.  :meth:`expired` consults the
    fault-injection point ``solver.deadline`` first, so degradation drills
    exercise the timeout path without burning wall-clock.
    """

    __slots__ = ("at", "_clock")

    def __init__(
        self,
        at: float | None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.at = at
        self._clock = clock

    def expired(self) -> bool:
        if faults.fires(FAULT_DEADLINE):
            return True
        return self.at is not None and self._clock() >= self.at

    def remaining(self) -> float | None:
        if self.at is None:
            return None
        return max(0.0, self.at - self._clock())

    def check(self) -> None:
        """Raise :class:`SolveTimeout` when expired (solver inner loops)."""
        if self.expired():
            raise SolveTimeout("solve deadline expired")


#: A deadline that never expires (still honours injected deadline faults).
NO_DEADLINE = Deadline(None)


class SolveScope:
    """The active budget plus the per-component time-slicing state.

    *plan* is the caller's estimate of how many hard solves lie ahead
    (components × hard measures); each :meth:`begin_solve` hands the next
    solve an equal share of the time still remaining, so early finishers
    donate their leftovers to later components and one adversarial
    component cannot eat the entire budget.  Solves beyond the plan (or
    with no plan) get everything that remains.
    """

    __slots__ = ("budget", "solves_left")

    def __init__(self, budget: Budget, plan: int | None = None) -> None:
        self.budget = budget
        self.solves_left = plan

    def begin_solve(self) -> Deadline:
        remaining = self.budget.remaining()
        if remaining is None:
            return Deadline(None, self.budget._clock)
        solves = self.solves_left
        share = remaining if not solves or solves <= 1 else remaining / solves
        if solves and solves > 0:
            self.solves_left = solves - 1
        return Deadline(self.budget._clock() + share, self.budget._clock)


_SCOPE: ContextVar[SolveScope | None] = ContextVar(
    "repro_solver_scope", default=None
)


def current_scope() -> SolveScope | None:
    """The innermost active :class:`SolveScope`, or None (exact mode)."""
    return _SCOPE.get()


@contextmanager
def solver_scope(
    budget: Budget | None, plan: int | None = None
) -> Iterator[SolveScope | None]:
    """Activate *budget* for the ``with`` body (no-op when None).

    The sessions wrap every budgeted evaluation in one scope; measures
    consult it through :func:`solve_component`, so the budget reaches the
    per-component solvers without widening the measure protocol.
    """
    if budget is None:
        yield None
        return
    scope = SolveScope(budget, plan)
    token = _SCOPE.set(scope)
    try:
        yield scope
    finally:
        _SCOPE.reset(token)


def solve_component(
    measure,
    constraints,
    database,
    component,
    exact: Callable[[], float],
):
    """One hard component solve under the active budget, if any.

    Outside a budget scope this is exactly ``exact()`` — the historical
    bit-identical path.  Inside a scope the solve takes its time slice and
    runs the measure's deadline-aware
    :meth:`~repro.measures.base.ComponentwiseMeasure.bounded_value`, which
    returns the exact float or TIMEOUT bounds.  When that solve raises (a
    crashed backend, including an injected ``solver.backend`` fault) the
    measure's bounds-only
    :meth:`~repro.measures.base.ComponentwiseMeasure.component_bounds`
    answers, tagged ``FALLBACK`` even when its bounds meet — so the value
    never enters a component cache.
    """
    scope = current_scope()
    if scope is None:
        return exact()
    deadline = scope.begin_solve()
    try:
        faults.trip(FAULT_BACKEND)
        return measure.bounded_value(
            constraints, database, component, deadline
        )
    except Exception:
        # A crashed solve must never take the measurement down; the bounds
        # need no deadline and no backend, so a failure there surfaces.
        value, lower, upper = measure.component_bounds(
            constraints, database, component
        )
        return bounded(value, lower, upper, FALLBACK)


# ----------------------------------------------------------------------
# Combining per-component parts that may carry bounds
# ----------------------------------------------------------------------
def combine_bounds(
    combine: Callable[[Sequence[float]], float], parts: Sequence
):
    """Apply a monoid *combine* to values, lowers and uppers separately.

    Correct whenever *combine* is monotone in every argument over the
    feasible range — true for the measures' sum and (non-negative-count)
    product.  Returns ``(value, lower, upper, status)``.
    """
    values = [float(part) for part in parts]
    lowers = [
        part.lower if isinstance(part, BoundedValue) else float(part)
        for part in parts
    ]
    uppers = [
        part.upper if isinstance(part, BoundedValue) else float(part)
        for part in parts
    ]
    status = worst_status([status_of(part) for part in parts])
    return (
        float(combine(values)),
        float(combine(lowers)),
        float(combine(uppers)),
        status,
    )


# ----------------------------------------------------------------------
# Shared bound helpers for the hard measures
# ----------------------------------------------------------------------
def moon_moser_bound(vertex_count: int) -> float:
    """Upper bound on the number of maximal independent sets: ``3^(n/3)``."""
    if vertex_count <= 0:
        return 1.0
    try:
        return float(3.0 ** (vertex_count / 3.0))
    except OverflowError:
        return math.inf


def subset_count_bound(element_count: int) -> float:
    """Trivial upper bound on a family of subsets of an n-set: ``2^n``."""
    if element_count <= 0:
        return 1.0
    try:
        return float(2.0**element_count)
    except OverflowError:
        return math.inf
