"""Ablation — the half-integral kernel vs the exact covering LP for I_lin_R.

``I_lin_R`` solves conflict graphs (every MI set a pair) with the
half-integral kernel (a max flow on the bipartite double cover) and wider
hypergraphs with the exact covering LP solved through its packing dual.
This ablation runs both on the same conflict graphs, asserts they return
identical objectives, and compares their speed.
"""

from __future__ import annotations

import random
import time

from repro.experiments import format_table
from repro.solvers.halfintegral import vertex_cover_lp
from repro.solvers.simplex import covering_lp

from _common import banner, save_artifact, scaled


def make_instance(num_vertices: int, num_edges: int, seed: int):
    rng = random.Random(seed)
    vertices = list(range(num_vertices))
    edges = sorted(
        {
            tuple(sorted(rng.sample(vertices, 2)))
            for _ in range(num_edges)
        }
    )
    return vertices, edges


def run_comparison():
    rows = []
    for size in (20, 40, scaled(80)):
        vertices, edges = make_instance(size, 3 * size, seed=size)
        start = time.perf_counter()
        kernel_value, _ = vertex_cover_lp(vertices, edges)
        kernel_time = time.perf_counter() - start

        start = time.perf_counter()
        covering_value, _ = covering_lp(edges)
        covering_time = time.perf_counter() - start

        assert kernel_value == covering_value, size
        rows.append([size, len(edges), kernel_time, covering_time])
    return rows


def test_bench_ablation_lp(benchmark):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    table = format_table(
        ["#vertices", "#edges", "half-integral kernel (s)", "covering LP (s)"],
        rows,
        precision=5,
    )
    save_artifact("ablation_lp_paths", banner("Ablation: LP paths", table))
    # The specialized path should not lose to the general covering LP at scale.
    largest = rows[-1]
    assert largest[2] <= largest[3] * 2 + 0.05
