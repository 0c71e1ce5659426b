"""Inconsistency reduction vs. information loss (Grant & Hunter 2011).

The paper's concluding remarks name this trade-off as the key future
direction: an operation is beneficial when it buys a large reduction in
inconsistency at a small loss of information.  This module implements the
stepwise-resolution framework in the database setting:

* **information loss** of an operation: deleted cells count fully, updated
  cells count 1 each, insertions count 0 (they add information);
* **benefit**: ``ΔI(o, D) / (loss(o) + ε)``;
* a greedy stepwise resolver that repeatedly applies the highest-benefit
  operation until consistency (or a step budget) is reached — a cleaning
  strategy that any measure plugs into.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..constraints.base import Constraint
from ..measures.base import InconsistencyMeasure
from ..relational.database import Database
from ..session import MeasurementSession
from ..solvers.anytime import (
    OPTIMAL,
    as_budget,
    solver_scope,
    status_of,
    worst_status,
)
from ..violations.minimal import ViolationIndex, build_violation_index
from .operations import (
    DeleteOperation,
    InsertOperation,
    Operation,
    RestoreOperation,
    UpdateOperation,
)
from .system import RepairSystem, subset_system


def information_loss(operation: Operation, database: Database) -> float:
    """Cells of information destroyed by *operation* on *database*."""
    if isinstance(operation, DeleteOperation):
        if operation.identifier not in database:
            return 0.0
        return float(database[operation.identifier].arity)
    if isinstance(operation, UpdateOperation):
        return 1.0 if operation.is_applicable(database) else 0.0
    if isinstance(operation, (InsertOperation, RestoreOperation)):
        return 0.0  # adding facts (back) never destroys information
    raise TypeError(f"unknown operation type {type(operation).__name__}")


@dataclass
class ScoredOperation:
    """An operation with its measured effect.

    ``status`` is the worst solver status behind the before/after pair —
    ``OPTIMAL`` means the reduction is exact; anything else means a
    budgeted solve degraded and the reduction compares bounded estimates.
    """

    operation: Operation
    inconsistency_reduction: float
    loss: float
    status: str = OPTIMAL

    @property
    def benefit(self) -> float:
        """Reduction per unit of information lost (ε-smoothed)."""
        return self.inconsistency_reduction / (self.loss + 1e-9)


def score_operations(
    measure: InconsistencyMeasure,
    constraints: Sequence[Constraint],
    database: Database,
    system: RepairSystem | None = None,
    limit: int | None = None,
    index: ViolationIndex | None = None,
    session: MeasurementSession | None = None,
    time_budget: float | None = None,
) -> list[ScoredOperation]:
    """Score every applicable operation, best benefit first.

    *limit* bounds the number of *scored* candidates; operations skipped by
    the problematic-fact filter do not consume the budget.

    *session* switches candidate evaluation to batched speculation: the
    whole candidate set goes through
    :meth:`~repro.session.MeasurementSession.speculate_batch`, which
    resolves the base component values once and charges each candidate only
    its affected region — no database copy, no index rebuild, values
    identical to the copy path.  A deletion of a live fact, every candidate of the default
    ``R⊆`` system, is scored without being applied; any other operation
    costs one savepoint apply/rollback.  The session must
    own *database*.  *index* (copy path only) lets callers reuse a
    precomputed violation index.  *time_budget* (seconds) caps the solver
    work per scoring pass; each :class:`ScoredOperation` then reports the
    worst status behind its reduction.
    """
    system = system or subset_system()
    if session is not None:
        if session.database is not database:
            raise ValueError("session must own the database being scored")
        current = session.measure(measure, budget=time_budget)
        problematic = session.problematic_facts()
    else:
        if index is None:
            index = build_violation_index(constraints, database)
        if time_budget is not None:
            with solver_scope(as_budget(time_budget)):
                current = measure.value(constraints, database, index)
        else:
            current = measure.value(constraints, database, index)
        problematic = index.problematic
    # Only operations touching problematic facts can reduce inconsistency
    # under anti-monotonic constraints; restrict the scan accordingly.
    candidates: list[Operation] = []
    for operation in system.applicable_operations(database):
        if limit is not None and len(candidates) >= limit:
            break
        target = getattr(operation, "identifier", None)
        if target is not None and problematic and target not in problematic:
            continue
        candidates.append(operation)
    if session is not None:
        afters = [
            values[measure.name]
            for values in session.speculate_batch(
                [[operation] for operation in candidates],
                [measure],
                budget=time_budget,
            )
        ]
    elif time_budget is not None:
        with solver_scope(as_budget(time_budget)):
            afters = [
                measure.value(constraints, operation.apply(database))
                for operation in candidates
            ]
    else:
        afters = [
            measure.value(constraints, operation.apply(database))
            for operation in candidates
        ]
    scored = [
        ScoredOperation(
            operation=operation,
            inconsistency_reduction=float(current) - float(after),
            loss=information_loss(operation, database),
            status=worst_status((status_of(current), status_of(after))),
        )
        for operation, after in zip(candidates, afters)
    ]
    scored.sort(key=lambda s: (-s.benefit, str(s.operation)))
    return scored


@dataclass
class ResolutionTrace:
    """Outcome of a stepwise resolution run.

    ``final_status`` qualifies ``final_inconsistency``: ``OPTIMAL`` for an
    exact value, otherwise the status of the bounded estimate a budgeted
    run ended on.
    """

    steps: list[ScoredOperation]
    final_inconsistency: float
    total_loss: float
    consistent: bool
    final_status: str = OPTIMAL


def stepwise_resolve(
    measure: InconsistencyMeasure,
    constraints: Sequence[Constraint],
    database: Database,
    system: RepairSystem | None = None,
    max_steps: int = 100,
    warm_start=None,
    time_budget: float | None = None,
) -> ResolutionTrace:
    """Greedy highest-benefit-first resolution (mutates a copy).

    Stops at consistency, at *max_steps*, or when no operation has positive
    benefit (which, for measures violating progression, can happen while
    still inconsistent — the trace reports it).  *warm_start* accepts a
    snapshot of the dirty base: resolution runs over a working
    ``database.copy()`` (identifiers and allocator preserved), so one
    snapshot warms repeated trade-off runs — e.g. the same base resolved
    under several measures (mismatches cold-build; traces identical).
    *time_budget* (seconds) caps the solver work of every scoring round;
    the steps (and the trace's final value) then carry solver statuses.
    """
    system = system or subset_system()
    working = database.copy()
    steps: list[ScoredOperation] = []
    total_loss = 0.0
    # One operation per round changes one fact: the session's maintained
    # topology replaces a full violation rebuild per round (and per
    # consistency check), and the round's candidates are scored as one
    # speculative batch against it — each candidate costs its affected
    # region instead of a copy plus a rebuild.
    with MeasurementSession(
        list(constraints), working, warm_start=warm_start
    ) as session:
        for _ in range(max_steps):
            if session.is_consistent():
                break
            candidates = score_operations(
                measure,
                constraints,
                working,
                system,
                session=session,
                time_budget=time_budget,
            )
            if not candidates or candidates[0].inconsistency_reduction <= 1e-12:
                break
            best = candidates[0]
            best.operation.apply_in_place(working)
            steps.append(best)
            total_loss += best.loss
        final = session.measure(measure, budget=time_budget)
        return ResolutionTrace(
            steps=steps,
            final_inconsistency=float(final),
            total_loss=total_loss,
            consistent=session.is_consistent(),
            final_status=status_of(final),
        )
