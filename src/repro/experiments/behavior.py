"""Measure-behaviour experiments (Figures 4, 5, 8, 9, 10).

Runs a noise model for a number of iterations over an initially consistent
sample, computing every requested measure at a fixed cadence; reports raw
and normalized series plus the final violation ratio (the number in
parentheses above each chart in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..constraints.base import Constraint
from ..measures.base import InconsistencyMeasure, normalize_series
from ..relational.database import Database
from ..session import MeasurementSession
from ..solvers.anytime import status_of
from ..violations.minimal import ViolationIndex, build_violation_index


@dataclass
class BehaviorResult:
    """Series of measure values along a noise run.

    ``statuses[name][k]`` carries each point's solver status (``OPTIMAL``
    unless the run was budgeted and the solve degraded) so a budgeted sweep
    can plot exact and bounded points differently instead of silently
    mixing them.
    """

    dataset: str
    noise: str
    iterations: list[int] = field(default_factory=list)
    series: dict[str, list[float]] = field(default_factory=dict)
    statuses: dict[str, list[str]] = field(default_factory=dict)
    violation_ratio: float = 0.0

    def normalized(self) -> dict[str, list[float]]:
        """Each measure scaled to [0, 1] by its own maximum (paper figures)."""
        return {name: normalize_series(values) for name, values in self.series.items()}


def run_behavior_experiment(
    database: Database,
    constraints: Sequence[Constraint],
    noise,
    measures: Sequence[InconsistencyMeasure],
    iterations: int,
    *,
    measure_every: int = 1,
    dataset_name: str = "",
    noise_name: str = "",
    warm_start=None,
    time_budget: float | None = None,
) -> BehaviorResult:
    """Mutate *database* in place with *noise*, measuring every *k* steps.

    Measurement points share a :class:`~repro.session.MeasurementSession`:
    the noise generator's in-place cell updates arrive as deltas, so each
    record patches the violation index instead of rebuilding it from the
    whole database; the session is sharded by relation, so multi-relation
    sweeps only re-examine the shard each step touched.  *warm_start*
    accepts a :meth:`~repro.session.MeasurementSession.snapshot` of the
    same base ``(Σ, D)`` so a batch of sweeps skips the from-scratch build
    per run (mismatches cold-build; series are bit-identical either way).
    *time_budget* (seconds) caps each measurement point's solver work: hard
    measures degrade to bounded estimates whose status lands in
    ``result.statuses`` instead of stalling the sweep.
    """
    result = BehaviorResult(dataset=dataset_name, noise=noise_name)
    for measure in measures:
        result.series[measure.name] = []
        result.statuses[measure.name] = []

    with MeasurementSession(
        constraints, database, warm_start=warm_start, time_budget=time_budget
    ) as session:

        def record(iteration: int) -> None:
            # Batch evaluation through the session: component-wise measures
            # read the maintained topology with per-component value caching,
            # so a measurement point only re-solves the components (and the
            # shards) the delta actually touched.
            result.iterations.append(iteration)
            for name, value in session.measure_all(measures).items():
                result.series[name].append(float(value))
                result.statuses[name].append(status_of(value))

        record(0)
        for iteration in range(1, iterations + 1):
            noise.step(database)
            if iteration % measure_every == 0:
                record(iteration)
        result.violation_ratio = violation_ratio(
            constraints, database, index=session.index()
        )
    return result


def violation_ratio(
    constraints: Sequence[Constraint],
    database: Database,
    index: ViolationIndex | None = None,
) -> float:
    """Fraction of violating tuple pairs out of all pairs (paper §6.2.1)."""
    if index is None:
        index = build_violation_index(constraints, database)
    pairs = sum(1 for group in index.mi_sets if len(group) == 2)
    n = len(database)
    total = n * (n - 1) / 2
    if total == 0:
        return 0.0
    return pairs / total
