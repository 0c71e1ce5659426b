"""Set-based batch-join enumeration vs the per-tuple probe reference.

Both backends of :mod:`repro.session.enumeration` answer the same two
questions — all witnesses of a DC (cold) and all witnesses touching a
dirty-fact batch (delta) — over identical maintained inputs (the equality
column index for the probe, the columnar store for the batch plans).  This
bench times exactly those two entry points, head-to-head, on Tax- and
Hospital-shaped workloads (the paper's two flagship datasets: an FD-style
name/provider constraint and the classic salary/rate ordering DC) swept
from 10k to 500k facts, with a ~5% noise rate so witness families scale
linearly instead of quadratically.

Every size asserts the batch witness sets are **identical** to the probe's
— cold and delta — before any timing is trusted.  The acceptance bars
(cold ≥5×, dirty-batch delta ≥3×) apply at ≥100k facts and full scale
only; smoke runs keep the identity asserts.  Results land in
``BENCH_setbased.json``.
"""

from __future__ import annotations

import gc
import json
import random
import time

from repro.constraints.base import ComparisonOp
from repro.constraints.dc import DenialConstraint, Predicate, Term
from repro.relational import Database, Fact, Schema
from repro.session import build_enumerators

from _common import RESULTS_DIR, banner, full_scale, save_artifact, scaled

SIZES = (10_000, 100_000, 500_000)
#: Facts updated per dirty batch before each delta re-enumeration.
DIRTY_BATCH = 1_000
#: Noise rate: fraction of facts whose dependent attribute breaks the rule.
NOISE = 0.05
#: Acceptance bars, enforced at >=100k facts and full scale only.
MIN_COLD_SPEEDUP = 5.0 if full_scale() else 0.0
MIN_DELTA_SPEEDUP = 3.0 if full_scale() else 0.0
ENFORCE_AT = 100_000


def _tax_workload(n: int, rng: random.Random):
    """Tax(State, Salary, Rate) with the paper's ordering DC.

    Rate is a function of State except for ~NOISE of the facts, so the
    witnesses (same state, higher salary, lower rate) grow linearly.
    """
    schema = Schema.from_dict({"Tax": ["State", "Salary", "Rate"]})
    states = max(n // 6, 1)
    facts = []
    for _ in range(n):
        state = rng.randrange(states)
        rate = state % 997
        if rng.random() < NOISE:
            rate = rng.randrange(997)
        facts.append(Fact("Tax", (state, rng.randrange(20_000, 200_000), rate)))
    database = Database.from_facts(schema, facts)
    dc = DenialConstraint(
        [("t", "Tax"), ("t2", "Tax")],
        [
            Predicate(Term.col("t", "State"), ComparisonOp.EQ, Term.col("t2", "State")),
            Predicate(Term.col("t", "Salary"), ComparisonOp.GT, Term.col("t2", "Salary")),
            Predicate(Term.col("t", "Rate"), ComparisonOp.LT, Term.col("t2", "Rate")),
        ],
        name="tax_ordering",
    )
    return database, [dc], ("Salary", lambda: rng.randrange(20_000, 200_000))


def _hospital_workload(n: int, rng: random.Random):
    """Hospital(Provider, Name, City) with the Provider → Name FD."""
    schema = Schema.from_dict({"Hospital": ["Provider", "Name", "City"]})
    providers = max(n // 6, 1)
    facts = []
    for _ in range(n):
        provider = rng.randrange(providers)
        name = f"h{provider}"
        if rng.random() < NOISE:
            name = f"h{rng.randrange(providers)}"
        facts.append(Fact("Hospital", (provider, name, rng.randrange(50))))
    database = Database.from_facts(schema, facts)
    dc = DenialConstraint(
        [("t", "Hospital"), ("t2", "Hospital")],
        [
            Predicate(
                Term.col("t", "Provider"), ComparisonOp.EQ, Term.col("t2", "Provider")
            ),
            Predicate(Term.col("t", "Name"), ComparisonOp.NE, Term.col("t2", "Name")),
        ],
        name="hospital_fd",
    )
    return database, [dc], ("Name", lambda: f"h{rng.randrange(providers)}")


WORKLOADS = {"tax": _tax_workload, "hospital": _hospital_workload}


def _timed(fn):
    """``(result, seconds)`` with the collector parked outside the window.

    Earlier sweep cases leave garbage whose gen-2 collection otherwise
    lands *inside* a later (milliseconds-wide) delta timing window,
    charging one side ~0.1s of unrelated work.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _run_case(workload: str, size: int, seed: int) -> dict:
    rng = random.Random(seed)
    database, dcs, (dirty_attr, dirty_value) = WORKLOADS[workload](size, rng)
    # Each workload DC joins on an equality, so the probe leg has an index.
    probes, _, eq_index = build_enumerators("probe", dcs, database)
    batches, store, _ = build_enumerators("batch", dcs, database)
    # Both maintained inputs track the same mutations, like a session does.
    database.subscribe(eq_index.apply)
    database.subscribe(store.apply)

    probe_cold, probe_cold_seconds = _timed(
        lambda: [enumerator.cold(database) for enumerator in probes]
    )
    batch_cold, batch_cold_seconds = _timed(
        lambda: [enumerator.cold(database) for enumerator in batches]
    )
    assert probe_cold == batch_cold, (
        f"{workload}@{size}: cold batch witnesses diverged from the probe"
    )
    witnesses = sum(len(found) for found in probe_cold)

    identifiers = database.ids()
    dirty = rng.sample(identifiers, min(DIRTY_BATCH, len(identifiers)))
    for identifier in dirty:
        database.update(identifier, dirty_attr, dirty_value())
    dirty_set = set(dirty)
    probe_delta, probe_delta_seconds = _timed(
        lambda: [enumerator.delta(database, dirty_set) for enumerator in probes]
    )
    batch_delta, batch_delta_seconds = _timed(
        lambda: [enumerator.delta(database, dirty_set) for enumerator in batches]
    )
    assert probe_delta == batch_delta, (
        f"{workload}@{size}: delta batch witnesses diverged from the probe"
    )

    database.unsubscribe(eq_index.apply)
    database.unsubscribe(store.apply)
    return {
        "workload": workload,
        "facts": size,
        "witnesses": witnesses,
        "dirty_batch": len(dirty),
        "delta_witnesses": sum(len(found) for found in probe_delta),
        "probe_cold_seconds": probe_cold_seconds,
        "batch_cold_seconds": batch_cold_seconds,
        "cold_speedup": probe_cold_seconds / max(batch_cold_seconds, 1e-12),
        "probe_delta_seconds": probe_delta_seconds,
        "batch_delta_seconds": batch_delta_seconds,
        "delta_speedup": probe_delta_seconds / max(batch_delta_seconds, 1e-12),
        "batch_stats": batches[0].stats.as_dict(),
    }


def run_sweep() -> list[dict]:
    rows = []
    for workload in WORKLOADS:
        for base in SIZES:
            rows.append(_run_case(workload, scaled(base), seed=base + 7))
    return rows


def test_bench_setbased_enumeration(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    lines = []
    for row in rows:
        lines.append(
            f"{row['workload']:>8} n={row['facts']:>7} "
            f"({row['witnesses']} witnesses): cold probe "
            f"{row['probe_cold_seconds']:.3f}s vs batch "
            f"{row['batch_cold_seconds']:.3f}s (×{row['cold_speedup']:.1f}); "
            f"delta[{row['dirty_batch']}] probe "
            f"{row['probe_delta_seconds']:.3f}s vs batch "
            f"{row['batch_delta_seconds']:.3f}s (×{row['delta_speedup']:.1f})"
        )
        if row["facts"] >= ENFORCE_AT:
            assert row["cold_speedup"] >= MIN_COLD_SPEEDUP, (
                f"{row['workload']}@{row['facts']}: cold ×"
                f"{row['cold_speedup']:.1f} < ×{MIN_COLD_SPEEDUP}"
            )
            assert row["delta_speedup"] >= MIN_DELTA_SPEEDUP, (
                f"{row['workload']}@{row['facts']}: delta ×"
                f"{row['delta_speedup']:.1f} < ×{MIN_DELTA_SPEEDUP}"
            )
    if full_scale():  # smoke runs must not clobber the committed trajectory
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_setbased.json").write_text(
            json.dumps(rows, indent=2) + "\n", encoding="utf-8"
        )
    save_artifact(
        "setbased_enumeration",
        banner("Set-based batch enumeration vs per-tuple probe", "\n".join(lines)),
    )
