"""Warm-start restore vs cold session build on repeated-sweep bases.

The paper's sweeps repeatedly measure the *same* ``(Σ, D)`` base: noise
trajectories, measure comparisons and repair runs all start from one
identical state, and every fresh session used to pay the full witness
enumeration + minimize + split before its first delta.  A
:meth:`~repro.session.MeasurementSession.snapshot` captures that derived
state once; ``warm_start=`` restores it in O(state) behind a database
fingerprint check.

This bench builds a dirtied Tax@2000 base and a 3-relation scattered
workload (one FD per relation, reported under the ``"sharded"`` key of
earlier artifacts), then times

* **cold**: construct a session from scratch and evaluate the measure
  batch, vs
* **warm**: deserialize the snapshot bytes (the on-disk format), construct
  the session with ``warm_start=`` (fingerprint verification included) and
  evaluate the same batch.

Every run asserts the warm session is bit-identical to the cold one —
``index()`` content, ``measure_all`` floats, and per-step values over a
follow-up delta sweep with both sessions attached to the same database.
The ≥5× restore-vs-cold acceptance bar applies at full scale only.
Results land in ``BENCH_warmstart.json``.
"""

from __future__ import annotations

import json
import random
import time

from repro.constraints import FunctionalDependency
from repro.datasets import generate_sample
from repro.measures import make_measure
from repro.noise import RNoise
from repro.relational import Database, Fact, Schema
from repro.session import (
    MeasurementSession,
    dump_snapshot,
    load_snapshot_bytes,
)

from _common import RESULTS_DIR, banner, full_scale, save_artifact, scaled

TAX_FACTS = 2000
MEASURES = ("I_MI", "I_P", "I_R", "I_lin_R")
SWEEP_STEPS = 20
MIN_RESTORE_SPEEDUP = 5.0 if full_scale() else 0.0

RELATIONS = ("T0", "T1", "T2")


def _tax_base() -> tuple[Database, list]:
    """A dirtied Tax sample — the repeated-sweep base state."""
    database, constraints = generate_sample("Tax", scaled(TAX_FACTS), seed=43)
    noise = RNoise(constraints, alpha=0.02, beta=0.0, seed=7)
    for _ in range(noise.total_iterations(database)):
        noise.step(database)
    return database, constraints


def _three_relation_base() -> tuple[Database, list]:
    """Three relations of scattered facts, one FD each."""
    rng = random.Random(29)
    n = scaled(TAX_FACTS)
    schema = Schema.from_dict(
        {relation: ["A", "B", "C"] for relation in RELATIONS}
    )
    facts = [
        Fact(
            relation,
            (rng.randint(0, 3 * n), rng.choice("uvwxyz"), rng.randint(0, 9)),
        )
        for relation in RELATIONS
        for _ in range(n)
    ]
    database = Database.from_facts(schema, facts)
    constraints = [
        FunctionalDependency(relation, {"A"}, {"B"}) for relation in RELATIONS
    ]
    return database, constraints


def _assert_identical(warm, cold) -> None:
    wi, ci = warm.index(), cold.index()
    assert wi.mi_sets == ci.mi_sets
    assert [
        (violation.fact_ids, violation.constraint.name)
        for violation in wi.per_constraint
    ] == [
        (violation.fact_ids, violation.constraint.name)
        for violation in ci.per_constraint
    ]
    assert [c.mi_sets for c in wi.components()] == [
        c.mi_sets for c in ci.components()
    ]


def _compare(name: str) -> dict:
    """Cold build vs snapshot restore for one workload."""
    database, constraints = (
        _tax_base() if name == "tax" else _three_relation_base()
    )
    measures = [make_measure(measure) for measure in MEASURES]

    start = time.perf_counter()
    cold = MeasurementSession(constraints, database)
    cold_values = cold.measure_all(measures)
    cold_seconds = time.perf_counter() - start

    payload = dump_snapshot(cold.snapshot())

    start = time.perf_counter()
    snap = load_snapshot_bytes(payload)
    warm = MeasurementSession(constraints, database, warm_start=snap)
    warm_values = warm.measure_all(measures)
    restore_seconds = time.perf_counter() - start

    assert warm.warm_started, f"{name}: snapshot failed to restore"
    assert warm_values == cold_values, f"{name}: warm != cold values"
    _assert_identical(warm, cold)

    # Per-step identity over a follow-up delta sweep: both sessions stay
    # attached to the same database and must agree after every delta.
    rng = random.Random(11)
    identifiers = database.ids()
    relation_attr = "Rate" if name == "tax" else "B"
    for step in range(SWEEP_STEPS):
        identifier = rng.choice(identifiers)
        if name == "tax":
            database.update(identifier, relation_attr, rng.randint(0, 40))
        else:
            database.update(identifier, relation_attr, rng.choice("uvwxyz"))
        step_warm = warm.measure_all(measures)
        step_cold = cold.measure_all(measures)
        assert step_warm == step_cold, f"{name}: diverged at step {step}"
    _assert_identical(warm, cold)
    warm.close()
    cold.close()

    return {
        "facts": len(database),
        "measures": list(MEASURES),
        "snapshot_bytes": len(payload),
        "cold_seconds": cold_seconds,
        "restore_seconds": restore_seconds,
        "speedup": cold_seconds / max(restore_seconds, 1e-12),
    }


def run_comparison() -> dict:
    return {
        "tax": _compare("tax"),
        "sharded": _compare("sharded"),
    }


def test_bench_warm_start(benchmark):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    lines = []
    for name, row in rows.items():
        lines.append(
            f"{name}: {row['facts']} facts, cold build "
            f"{row['cold_seconds']:.3f}s vs restore "
            f"{row['restore_seconds']:.3f}s (×{row['speedup']:.1f}, "
            f"snapshot {row['snapshot_bytes'] / 1024:.0f} KiB)"
        )
    body = "\n".join(lines)
    assert rows["tax"]["speedup"] >= MIN_RESTORE_SPEEDUP, (
        f"warm restore ×{rows['tax']['speedup']:.1f} < "
        f"×{MIN_RESTORE_SPEEDUP} on the Tax workload"
    )
    if full_scale():  # smoke runs must not clobber the committed trajectory
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_warmstart.json").write_text(
            json.dumps(rows, indent=2) + "\n", encoding="utf-8"
        )
    save_artifact(
        "warm_start",
        banner("Warm-start restore vs cold session build", body),
    )
