"""Running-time experiments (Table 3, Figure 6b, Appendix Figure 11).

Times each measure end to end — *including* violation detection, since the
paper's key observation is that the SQL step dominates at scale while the
repair solvers (exact hitting set, covering LP) dominate at high error
rates on small data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from ..constraints.base import Constraint
from ..measures.base import InconsistencyMeasure
from ..relational.database import Database


@dataclass
class TimingRow:
    """Per-measure wall-clock seconds for one (dataset, state)."""

    dataset: str
    seconds: dict[str, float] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)
    timed_out: set[str] = field(default_factory=set)


def time_measures(
    database: Database,
    constraints: Sequence[Constraint],
    measures: Sequence[InconsistencyMeasure],
    *,
    dataset_name: str = "",
    timeout_seconds: float | None = None,
    repetitions: int = 1,
) -> TimingRow:
    """Average wall-clock time of each measure (fresh computation each run).

    A measure whose solver raises a budget error, or whose first repetition
    exceeds *timeout_seconds*, is recorded in ``timed_out`` — reproducing the
    paper's I_MC / Voter timeouts.
    """
    from ..solvers.cliques import EnumerationBudgetExceeded
    from ..solvers.vertex_cover import BudgetExceeded

    row = TimingRow(dataset=dataset_name)
    for measure in measures:
        samples: list[float] = []
        value = float("nan")
        try:
            for _ in range(repetitions):
                start = time.perf_counter()
                value = measure.value(constraints, database)
                elapsed = time.perf_counter() - start
                samples.append(elapsed)
                if timeout_seconds is not None and elapsed > timeout_seconds:
                    raise TimeoutError
        except (EnumerationBudgetExceeded, BudgetExceeded, TimeoutError):
            row.timed_out.add(measure.name)
            continue
        row.seconds[measure.name] = sum(samples) / len(samples)
        row.values[measure.name] = value
    return row


@dataclass
class ErrorRateTiming:
    """Figure 6b / 11: per-measure time as error rate grows with iterations."""

    dataset: str
    iterations: list[int] = field(default_factory=list)
    seconds: dict[str, list[float]] = field(default_factory=dict)


def time_under_increasing_noise(
    database: Database,
    constraints: Sequence[Constraint],
    noise,
    measures: Sequence[InconsistencyMeasure],
    iterations: int,
    *,
    measure_every: int = 10,
    dataset_name: str = "",
) -> ErrorRateTiming:
    """Add noise step by step, timing every measure each *measure_every*."""
    result = ErrorRateTiming(dataset=dataset_name)
    for measure in measures:
        result.seconds[measure.name] = []

    def record(iteration: int) -> None:
        result.iterations.append(iteration)
        row = time_measures(
            database, constraints, measures, dataset_name=dataset_name
        )
        for measure in measures:
            result.seconds[measure.name].append(
                row.seconds.get(measure.name, float("nan"))
            )

    record(0)
    for iteration in range(1, iterations + 1):
        noise.step(database)
        if iteration % measure_every == 0:
            record(iteration)
    return result
