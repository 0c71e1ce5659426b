"""The incremental cleaning pipeline of the Figure 7 case study.

The paper simulates a cleaning pipeline by running HoloClean with one DC at
a time: first on the dirty dataset with a single DC, then on the result with
one more DC, and so on, computing every measure after each step.  The
measures that behave well show a near-linear decay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..constraints.base import Constraint
from ..measures.base import InconsistencyMeasure
from ..relational.database import Database
from ..session import MeasurementSession
from ..solvers.anytime import status_of
from .holoclean import CleaningReport, MiniHoloClean


@dataclass
class PipelineResult:
    """Measure trajectories over the incremental pipeline.

    ``series[name][k]`` is the measure value after cleaning with the first
    *k* constraints (k = 0 is the dirty database); ``statuses[name][k]`` is
    the solver status behind it (``OPTIMAL`` unless a budgeted run
    degraded that point to bounds).
    """

    constraint_names: list[str]
    series: dict[str, list[float]] = field(default_factory=dict)
    statuses: dict[str, list[str]] = field(default_factory=dict)
    reports: list[CleaningReport] = field(default_factory=list)

    def normalized(self) -> dict[str, list[float]]:
        from ..measures.base import normalize_series

        return {name: normalize_series(values) for name, values in self.series.items()}


def run_incremental_pipeline(
    database: Database,
    constraints: Sequence[Constraint],
    measures: Sequence[InconsistencyMeasure],
    *,
    permutation: Sequence[int] | None = None,
    seed: int | None = None,
    warm_start=None,
    time_budget: float | None = None,
) -> PipelineResult:
    """Clean with one additional constraint per step, measuring after each.

    Measures are always evaluated against the *full* constraint set, so the
    trajectory reflects total inconsistency going down as the cleaner handles
    more and more of the rules — exactly the Figure 7 protocol.  The cleaner
    repairs cells in place; a :class:`~repro.session.MeasurementSession`
    over the working copy turns those repairs into index deltas, so each
    measurement point only re-examines the repaired facts.  *warm_start*
    accepts a
    snapshot of the dirty base state: the pipeline measures over a working
    ``database.copy()``, which preserves identifiers and allocator state,
    so one snapshot warms every permutation of the same pipeline
    (mismatches cold-build).  *time_budget* (seconds) caps each
    measurement point's solver work; degraded points carry their status in
    ``result.statuses``.
    """
    order = list(permutation) if permutation is not None else list(range(len(constraints)))
    if sorted(order) != list(range(len(constraints))):
        raise ValueError("permutation must reorder the constraint indices")
    full_set = list(constraints)
    result = PipelineResult(
        constraint_names=[_name_of(full_set[i]) for i in order],
        series={measure.name: [] for measure in measures},
        statuses={measure.name: [] for measure in measures},
    )
    current = database.copy()

    with MeasurementSession(
        full_set, current, warm_start=warm_start, time_budget=time_budget
    ) as session:

        def record() -> None:
            # Batch evaluation through the session: the cleaning step's
            # delta re-splits only the affected region of the maintained
            # component topology, and conflict components the step left
            # untouched reuse their cached solver results — no full index
            # is assembled per measurement point.
            for name, value in session.measure_all(measures).items():
                result.series[name].append(float(value))
                result.statuses[name].append(status_of(value))

        record()
        for step in range(1, len(order) + 1):
            active = [full_set[i] for i in order[:step]]
            cleaner = MiniHoloClean(active, seed=seed)
            result.reports.append(cleaner.clean(current))
            record()
    return result


def _name_of(constraint: Constraint) -> str:
    return getattr(constraint, "name", str(constraint))
