"""Live component topology vs per-point re-minimization, plus batched scoring.

Before the topology layer, every ``session.index()`` re-sorted the witness
stores, re-minimized the *entire* raw witness family and re-derived the
connected components from scratch — O(database) per measurement point even
when the delta touched one fact.  The :class:`ComponentTopology` keeps the
minimized family, the fact → component map and the component split live
under the change feed, re-splitting only the delta's affected region.

This bench replays a noise-style single-fact delta stream on Fig.-11
workloads (Tax/Airport samples, whose conflict graphs scatter into many
components) and, per step, times the maintained assembly against a faithful
emulation of the pre-topology assembly over the *same* maintained stores —
isolating exactly the work the topology removes.  It also scores one round
of candidate deletions both ways: per-candidate commit-and-rollback (flush,
apply under a savepoint, a committed ``session.measure`` read, roll back —
the scoring path ``speculate`` ran before it became a one-candidate batch:
two committed re-splits and content-keyed cache probes for every
component, every candidate) vs one ``speculate_batch`` (base resolved once,
each candidate previewed read-only, unaffected components shared by
identity).  Identity of all results is asserted at every scale; the ≥5×
assembly and ≥2× batched-scoring acceptance bars apply at full scale only.
Results land in ``BENCH_topology.json``.
"""

from __future__ import annotations

import json
import time

from repro.datasets import generate_sample
from repro.measures import make_measure
from repro.noise import RNoise
from repro.repairs.operations import DeleteOperation
from repro.session import MeasurementSession
from repro.violations.minimal import MinimalViolation, ViolationIndex, _minimize

from _common import RESULTS_DIR, banner, full_scale, save_artifact, scaled

#: Scattered-component workloads (the regime the topology targets; hub-shaped
#: conflict graphs collapse into one component and bound every localized
#: technique by construction — the ROADMAP documents that boundary).  Pure
#: typo noise keeps corrupted values fresh, so conflict groups stay local
#: instead of chaining through reused active-domain values; the sample
#: sizes are where each dataset still scatters (Airport coalesces into a
#: hub beyond ~1k facts).
DATASETS = {"Tax": 2000, "Airport": 1000}
SCORING_MEASURES = ("I_MI", "I_lin_R")
#: Single-fact deltas per assembly stream.
STEPS = 30
#: Candidate cap for the scoring round (all single-fact deletions of
#: problematic facts, truncated).
MAX_CANDIDATES = 150
MIN_ASSEMBLY_SPEEDUP = 5.0 if full_scale() else 0.0
MIN_BATCH_SPEEDUP = 2.0 if full_scale() else 0.0


def _noised_workload(name: str):
    """A Fig.-11-style workload: a dataset sample after a full RNoise run."""
    database, constraints = generate_sample(name, scaled(DATASETS[name]), seed=53)
    noise = RNoise(
        constraints, alpha=0.05, beta=0.0, typo_probability=1.0, seed=13
    )
    for _ in range(noise.total_iterations(database)):
        noise.step(database)
    return database, constraints


def _legacy_assemble(session: MeasurementSession) -> ViolationIndex:
    """The pre-topology assembly, over the session's maintained stores.

    Re-sorts every store with ``key=sorted``, re-minimizes the whole raw
    family, re-derives the component split from scratch — exactly what
    the session's index assembly did before the topology layer, on
    identical inputs.
    """
    index = ViolationIndex()
    raw: set[frozenset[int]] = set()
    for store in session._witnesses:
        for witness in sorted(store, key=sorted):
            index.per_constraint.append(MinimalViolation(witness, store.dc))
            raw.add(witness)
    index.mi_sets = _minimize(raw)
    index.components()
    return index


def _commit_and_rollback(
    session: MeasurementSession, operations: list, measure
) -> dict[str, float]:
    """One candidate scored through committed state, then undone.

    Flushes the previous candidate's rollback marks, applies *operations*
    under a savepoint, reads *measure* off the committed re-split and rolls
    back — step by step what ``speculate`` did before it delegated to
    ``speculate_batch``, on the same session.
    """
    session.is_consistent()
    with session.savepoint():
        for operation in operations:
            operation.apply_in_place(session.database)
        return {measure.name: session.measure(measure)}


def _bench_assembly(name: str) -> dict:
    """Per-point assembly: maintained topology vs re-minimize from scratch.

    The witness-delta maintenance itself (retraction + hash-join
    re-enumeration + regional re-split) is timed separately: both the
    pre-topology session and this one pay it, so the assembly ratio
    isolates exactly the work the topology layer removes, and the reported
    end-to-end ratio charges the shared maintenance to both sides.
    """
    database, constraints = _noised_workload(name)
    noise = RNoise(
        constraints, alpha=0.03, beta=0.0, typo_probability=1.0, seed=97
    )
    maintain_seconds = 0.0
    incremental_seconds = 0.0
    legacy_seconds = 0.0
    components = 0
    with MeasurementSession(list(constraints), database) as session:
        session.index()
        for _ in range(STEPS):
            noise.step(database)  # a single-fact delta
            start = time.perf_counter()
            session.is_consistent()  # flush: retraction + re-enum + re-split
            maintain_seconds += time.perf_counter() - start
            start = time.perf_counter()
            index = session.index()
            live = index.components()
            incremental_seconds += time.perf_counter() - start
            start = time.perf_counter()
            legacy = _legacy_assemble(session)
            legacy_seconds += time.perf_counter() - start
            assert index.mi_sets == legacy.mi_sets, name
            assert [c.mi_sets for c in live] == [
                c.mi_sets for c in legacy.components()
            ], name
            components = len(live)
    return {
        "dataset": name,
        "facts": len(database),
        "steps": STEPS,
        "components": components,
        "maintain_seconds": maintain_seconds,
        "legacy_seconds": legacy_seconds,
        "incremental_seconds": incremental_seconds,
        "speedup": legacy_seconds / max(incremental_seconds, 1e-12),
        "end_to_end_speedup": (maintain_seconds + legacy_seconds)
        / max(maintain_seconds + incremental_seconds, 1e-12),
    }


def _bench_batched_scoring(name: str) -> dict:
    database, constraints = _noised_workload(name)
    row: dict = {"dataset": name, "facts": len(database), "measures": {}}
    with MeasurementSession(list(constraints), database) as session:
        candidates = [
            [DeleteOperation(identifier)]
            for identifier in sorted(session.problematic_facts())[:MAX_CANDIDATES]
        ]
        for measure_name in SCORING_MEASURES:
            measure = make_measure(measure_name)
            session.measure(measure)  # comparable warm state for both paths

            start = time.perf_counter()
            sequential = [
                _commit_and_rollback(session, operations, measure)
                for operations in candidates
            ]
            sequential_seconds = time.perf_counter() - start

            start = time.perf_counter()
            batched = session.speculate_batch(candidates, [measure])
            batched_seconds = time.perf_counter() - start

            assert batched == sequential, (
                f"{name}/{measure_name}: batched speculation diverged from "
                "per-candidate commit-and-rollback"
            )
            row["measures"][measure_name] = {
                "candidates": len(candidates),
                "sequential_seconds": sequential_seconds,
                "batched_seconds": batched_seconds,
                "speedup": sequential_seconds / max(batched_seconds, 1e-12),
            }
    return row


def run_all() -> dict:
    return {
        "assembly": [_bench_assembly(name) for name in DATASETS],
        "batched_scoring": [
            _bench_batched_scoring(name) for name in DATASETS
        ],
    }


def test_bench_topology_incremental(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    lines = []
    for row in results["assembly"]:
        lines.append(
            f"[{row['dataset']}/assembly] {row['steps']} single-fact deltas, "
            f"{row['facts']} facts, {row['components']} components: legacy "
            f"re-minimize {row['legacy_seconds']:.3f}s, topology "
            f"{row['incremental_seconds']:.3f}s (speedup ×{row['speedup']:.1f}, "
            f"end-to-end with the shared {row['maintain_seconds']:.3f}s witness "
            f"maintenance ×{row['end_to_end_speedup']:.1f})"
        )
    for row in results["batched_scoring"]:
        for measure_name, cell in row["measures"].items():
            lines.append(
                f"[{row['dataset']}/{measure_name}] {cell['candidates']} "
                f"candidates: sequential {cell['sequential_seconds']:.3f}s, "
                f"batched {cell['batched_seconds']:.3f}s "
                f"(speedup ×{cell['speedup']:.1f})"
            )
    if full_scale():  # smoke runs must not clobber the committed trajectory
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_topology.json").write_text(
            json.dumps(results, indent=2) + "\n", encoding="utf-8"
        )
    save_artifact(
        "topology_incremental",
        banner(
            "Live component topology vs per-point re-minimization",
            "\n".join(lines),
        ),
    )
    # The bars are checked only once every cell is on disk: a host that
    # misses one bar still records the others.
    for row in results["assembly"]:
        assert row["speedup"] >= MIN_ASSEMBLY_SPEEDUP, (
            f"{row['dataset']}: assembly ×{row['speedup']:.1f} "
            f"< ×{MIN_ASSEMBLY_SPEEDUP}"
        )
    for row in results["batched_scoring"]:
        for measure_name, cell in row["measures"].items():
            assert cell["speedup"] >= MIN_BATCH_SPEEDUP, (
                f"{row['dataset']}/{measure_name}: batched ×"
                f"{cell['speedup']:.1f} < ×{MIN_BATCH_SPEEDUP}"
            )
