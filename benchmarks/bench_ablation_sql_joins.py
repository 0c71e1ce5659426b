"""Ablation — hash join vs nested-loop join in the SQL engine.

Conflict queries for FD-style DCs carry equality predicates that the planner
turns into hash joins; this ablation runs every lowered DC's conflict query
on a Tax sample under both strategies, measures the payoff and verifies both
return identical conflict sets.
"""

from __future__ import annotations

import time

from repro.datasets import generate_sample
from repro.experiments import format_table
from repro.noise import CONoise
from repro.violations import build_violation_index, lower_constraints
from repro.violations.sqlgen import conflict_rows

from _common import banner, save_artifact, scaled


def _conflict_sets(constraints, database, force_nested_loop):
    """Every lowered DC's conflict query, run on one join strategy."""
    return [
        {
            frozenset(row)
            for row in conflict_rows(
                dc, database, force_nested_loop=force_nested_loop
            )
        }
        for dc in lower_constraints(constraints, database.schema)
    ]


def run_comparison():
    database, constraints = generate_sample("Tax", scaled(300), seed=55)
    CONoise(constraints, seed=14).run(database, 15)

    start = time.perf_counter()
    hash_sets = _conflict_sets(constraints, database, False)
    hash_time = time.perf_counter() - start

    start = time.perf_counter()
    loop_sets = _conflict_sets(constraints, database, True)
    loop_time = time.perf_counter() - start

    assert hash_sets == loop_sets
    return hash_time, loop_time, len(build_violation_index(constraints, database).mi_sets)


def test_bench_ablation_sql(benchmark):
    hash_time, loop_time, violations = benchmark.pedantic(
        run_comparison, rounds=1, iterations=1
    )
    table = format_table(
        ["strategy", "seconds", "|MI|"],
        [["hash join", hash_time, violations], ["nested loop", loop_time, violations]],
        precision=4,
    )
    save_artifact("ablation_sql_joins", banner("Ablation: join strategies", table))
    # Hash joins must win on equality-heavy constraint sets.
    assert hash_time < loop_time
