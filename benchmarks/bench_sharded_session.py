"""One-group vs derived relation partitions on multi-relation sweeps.

A :class:`MeasurementSession` with every relation in one group keeps a
single shard: every lowered DC is probed with the delta and the one
topology re-splits the touched region, while every untouched conflict
component serves the values it stores itself.  No session is built that
way on its own: the flat leg comes from the
:func:`repro.testing.layout.one_group` test seam.  The partition a session
derives (the constraint/relation hypergraph's connected components)
splits that state by relation, so a single-fact delta dirties exactly one
shard and the other shards' topologies keep their generation.  Either way
a measurement point reads each live component's stored value (one dict
lookup) and solves only the components the delta replaced; the derived
partition adds a k-way float merge across its shards.

This bench replays an identical single-fact update stream on a 3-relation
scattered workload whose constraints never cross relations (the regime
sharding targets — a cross-relation DC merges its relations into one
shard and bounds the benefit by construction), with **both** sessions
attached to the same database, and times each side's flush + measure per
step.  Every step asserts the derived partition's values are
bit-identical to the one-group ones; the ≥2× sweep acceptance bar applies
at full scale only.
Results land in ``BENCH_sharding.json`` (``unsharded_seconds`` is the
one-group session).
"""

from __future__ import annotations

import json
import random
import time

from repro.constraints import FunctionalDependency
from repro.measures import make_measure
from repro.relational import Database, Fact, Schema
from repro.session import MeasurementSession
from repro.testing.layout import one_group

from _common import RESULTS_DIR, banner, full_scale, save_artifact, scaled

#: Facts per relation; A is drawn from a ~3n range so conflicts scatter
#: into many small FD components instead of coalescing into hubs.
FACTS_PER_RELATION = 2000
RELATIONS = ("T0", "T1", "T2")
#: Measures read from per-component parts — the sweep fast path, which
#: every registered measure but ``I_R_upd`` (``I_d`` included) takes.
MEASURES = ("I_MI", "I_P", "I_R", "I_lin_R")
#: Single-fact update deltas, round-robin over the relations.
STEPS = 60
MIN_SWEEP_SPEEDUP = 2.0 if full_scale() else 0.0


def _workload(seed: int = 29):
    """A 3-relation database with per-relation FDs and scattered conflicts."""
    rng = random.Random(seed)
    n = scaled(FACTS_PER_RELATION)
    schema = Schema.from_dict(
        {relation: ["A", "B", "C"] for relation in RELATIONS}
    )
    facts = []
    for relation in RELATIONS:
        for _ in range(n):
            facts.append(
                Fact(
                    relation,
                    (rng.randint(0, 3 * n), rng.choice("uvwxyz"), rng.randint(0, 9)),
                )
            )
    database = Database.from_facts(schema, facts)
    constraints = [
        FunctionalDependency(relation, {"A"}, {"B"}) for relation in RELATIONS
    ]
    return database, constraints, rng


def _delta_stream(database: Database, rng: random.Random, steps: int):
    """Single-fact B-updates, one relation per step, round-robin."""
    by_relation = {
        relation: database.relation_ids(relation) for relation in RELATIONS
    }
    stream = []
    for step in range(steps):
        relation = RELATIONS[step % len(RELATIONS)]
        stream.append((rng.choice(by_relation[relation]), rng.choice("uvwxyz")))
    return stream


def run_sweep() -> dict:
    database, constraints, rng = _workload()
    measures = [make_measure(name) for name in MEASURES]
    stream = _delta_stream(database, rng, STEPS)
    flat_seconds = 0.0
    sharded_seconds = 0.0
    with one_group():
        flat = MeasurementSession(constraints, database)
    with flat, MeasurementSession(constraints, database) as sharded:
        assert len(flat.shards) == 1
        assert sharded.relation_groups == [(r,) for r in RELATIONS]
        flat.measure_all(measures)  # warm both caches off the clock
        sharded.measure_all(measures)
        components = len(flat.index().components())
        for step, (identifier, value) in enumerate(stream):
            database.update(identifier, "B", value)
            # Alternate which side is timed first, so neither benefits
            # from the other warming shared interpreter state.
            if step % 2 == 0:
                start = time.perf_counter()
                flat_values = flat.measure_all(measures)
                flat_seconds += time.perf_counter() - start
                start = time.perf_counter()
                sharded_values = sharded.measure_all(measures)
                sharded_seconds += time.perf_counter() - start
            else:
                start = time.perf_counter()
                sharded_values = sharded.measure_all(measures)
                sharded_seconds += time.perf_counter() - start
                start = time.perf_counter()
                flat_values = flat.measure_all(measures)
                flat_seconds += time.perf_counter() - start
            assert sharded_values == flat_values, (
                f"step {step}: auto partition diverged from one group: "
                f"{sharded_values} != {flat_values}"
            )
            if step % 10 == 0:
                assert flat.index().mi_sets == sharded.index().mi_sets, step
    return {
        "relations": len(RELATIONS),
        "facts": len(database),
        "components": components,
        "steps": STEPS,
        "measures": list(MEASURES),
        "unsharded_seconds": flat_seconds,
        "sharded_seconds": sharded_seconds,
        "speedup": flat_seconds / max(sharded_seconds, 1e-12),
    }


def test_bench_sharded_session(benchmark):
    row = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    body = (
        f"{row['steps']} single-fact deltas over {row['facts']} facts in "
        f"{row['relations']} relations ({row['components']} components), "
        f"measures {', '.join(row['measures'])}: one group "
        f"{row['unsharded_seconds']:.3f}s, auto "
        f"{row['sharded_seconds']:.3f}s (speedup ×{row['speedup']:.1f})"
    )
    assert row["speedup"] >= MIN_SWEEP_SPEEDUP, (
        f"sharded sweep ×{row['speedup']:.1f} < ×{MIN_SWEEP_SPEEDUP}"
    )
    if full_scale():  # smoke runs must not clobber the committed trajectory
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_sharding.json").write_text(
            json.dumps(row, indent=2) + "\n", encoding="utf-8"
        )
    save_artifact(
        "sharded_session",
        banner("One-group vs auto partition sweep (3 relations)", body),
    )
