"""Scalability experiment (Figure 6a): measure runtime vs database size.

The paper samples the Tax dataset at 100K..1M tuples and observes a
quadratic trend dominated by conflict detection (its SQL conflict queries;
here, witness enumeration).  The harness
reproduces the sweep at configurable sizes and fits the growth exponent so
the bench can assert "quadratic-ish" without depending on absolute times.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Sequence

from ..datasets.registry import get_dataset
from ..measures.base import InconsistencyMeasure
from ..noise.conoise import CONoise


@dataclass
class ScalabilityResult:
    """Per-size, per-measure timings."""

    dataset: str
    sizes: list[int] = field(default_factory=list)
    seconds: dict[str, list[float]] = field(default_factory=dict)

    def growth_exponent(self, name: str) -> float:
        """Least-squares slope of log(time) against log(size).

        ≈1 means linear, ≈2 quadratic.  Sizes with non-positive times are
        skipped (they carry no information at clock resolution).
        """
        points = [
            (math.log(size), math.log(seconds))
            for size, seconds in zip(self.sizes, self.seconds[name])
            if seconds > 0
        ]
        if len(points) < 2:
            return float("nan")
        mean_x = sum(x for x, _ in points) / len(points)
        mean_y = sum(y for _, y in points) / len(points)
        sxx = sum((x - mean_x) ** 2 for x, _ in points)
        sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
        if sxx == 0:
            return float("nan")
        return sxy / sxx


def run_scalability_sweep(
    dataset_name: str,
    sizes: Sequence[int],
    measures: Sequence[InconsistencyMeasure],
    *,
    noise_iterations_per_1000: int = 1,
    seed: int = 0,
) -> ScalabilityResult:
    """Generate samples of increasing size, noise them proportionally
    (#tuples/1000 CONoise iterations, as in Table 3), and time the measures.
    """
    spec = get_dataset(dataset_name)
    constraints = spec.make_constraints()
    result = ScalabilityResult(dataset=spec.name, sizes=list(sizes))
    for measure in measures:
        result.seconds[measure.name] = []
    for size in sizes:
        database = spec.generate(size, seed)
        noise = CONoise(constraints, seed=seed + size)
        noise.run(database, max(1, noise_iterations_per_1000 * size // 1000))
        for measure in measures:
            start = time.perf_counter()
            measure.value(constraints, database)
            result.seconds[measure.name].append(time.perf_counter() - start)
    return result
