"""Sustained streaming ingest: coalesced batched flushes vs per-event.

Every session flush pays one regional re-split per touched conflict
component, so a sustained mutation stream flushed per event pays that
price per *event* — the throughput ceiling ROADMAP's update-stream item
calls out.  The :class:`~repro.session.ingest.IngestPipeline` coalesces
pending events per fact id in a bounded buffer and drains only when a
reader's staleness bound demands it, amortizing maintenance across the
batch.

This bench replays one deterministic skewed mutation stream (hot-key
updates, inserts, deletes over a 3-relation workload) three
ways — per-event flushing, and through the pipeline at two read-staleness
settings — timing sustained ops/sec, per-flush latency (p50/p99) and
per-read latency (p50/p99).  At every checkpoint the pipeline legs drain
and must be **bit-identical** to the per-event leg: same database
fingerprint (allocator included), same ``mi_sets``, same measure values.
Results land in ``BENCH_streaming.json``.
"""

from __future__ import annotations

import json
import random
import time

from repro.constraints import FunctionalDependency
from repro.measures import make_measure
from repro.relational import Database, Fact, Schema
from repro.session import MeasurementSession, database_fingerprint

from _common import RESULTS_DIR, banner, full_scale, save_artifact, scaled

RELATIONS = ("T0", "T1", "T2")
FACTS_PER_RELATION = 1200
EVENTS = 4000
#: One staleness-bounded read every this many submissions.
READ_EVERY = 50
#: Full drain + bit-identity asserts against the per-event leg, this
#: many times over the stream (the interval scales with REPRO_SCALE).
CHECKPOINTS = 4
#: The read-staleness settings the pipeline legs run at.
STALENESS_SETTINGS = (32, 256)
MEASURES = ("I_MI", "I_P")
#: Coalesced ingest must beat per-event flushing at the larger staleness
#: (claimed at full scale only; toy smoke sizes prove identity, not speed).
MIN_SPEEDUP = 1.5 if full_scale() else 0.0


def _build_database() -> Database:
    rng = random.Random(41)
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
                    (
                        rng.randint(0, 3 * n),
                        rng.choice("uvwxyz"),
                        rng.randint(0, 9),
                    ),
                )
            )
    return Database.from_facts(schema, facts)


def _build_stream(events: int) -> list[tuple]:
    """A deterministic skewed op stream, concretized against a scratch db.

    Ops reference concrete identifiers, so every leg must allocate
    identically to stay applicable — which is itself part of the parity
    claim (the pipeline reserves the ids the eager database would pick).
    """
    rng = random.Random(43)
    scratch = _build_database()
    # Zipf-ish hot set: most updates hammer few facts (coalescing's case).
    hot = rng.sample(scratch.ids(), max(10, len(scratch) // 50))
    stream: list[tuple] = []
    for _ in range(events):
        roll = rng.random()
        if roll < 0.55:
            pool = hot if rng.random() < 0.7 else scratch.ids()
            identifier = rng.choice(pool)
            fact = scratch.get(identifier)
            if fact is None:
                continue
            value = rng.choice("uvwxyz")
            op = ("update", identifier, "B", value)
            scratch.update(identifier, "B", value)
        elif roll < 0.8:
            relation = rng.choice(RELATIONS)
            fact = Fact(
                relation,
                (
                    rng.randint(0, 3 * scaled(FACTS_PER_RELATION)),
                    rng.choice("uvwxyz"),
                    rng.randint(0, 9),
                ),
            )
            op = ("insert", fact)
            scratch.insert(fact)
        else:
            identifier = rng.choice(scratch.ids())
            op = ("delete", identifier)
            scratch.delete(identifier)
        stream.append(op)
    return stream


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


def _capture(session, database, measures) -> tuple:
    index = session.index()
    return (
        database_fingerprint(database),
        tuple(index.mi_sets),
        session.measure_all(measures),
    )


def _run_per_event(
    stream, measures, checkpoint_every
) -> tuple[dict, list[tuple]]:
    """The baseline: every event flushes before the next is applied."""
    database = _build_database()
    checkpoints: list[tuple] = []
    flush_samples: list[float] = []
    read_samples: list[float] = []
    busy = 0.0
    with MeasurementSession([
        FunctionalDependency(relation, {"A"}, {"B"}) for relation in RELATIONS
    ], database) as session:
        session.index()
        for step, op in enumerate(stream, start=1):
            start = time.perf_counter()
            if op[0] == "insert":
                database.insert(op[1])
            elif op[0] == "delete":
                database.delete(op[1])
            else:
                database.update(op[1], op[2], op[3])
            flush_start = time.perf_counter()
            session.index()
            done = time.perf_counter()
            flush_samples.append(done - flush_start)
            busy += done - start
            if step % READ_EVERY == 0:
                start = time.perf_counter()
                session.measure_all(measures)
                done = time.perf_counter()
                read_samples.append(done - start)
                busy += done - start
            if step % checkpoint_every == 0:
                checkpoints.append(_capture(session, database, measures))
        row = {
            "staleness": "per-event",
            "events": len(stream),
            "seconds": busy,
            "ops_per_sec": len(stream) / max(busy, 1e-12),
            "flushes": len(flush_samples),
            "events_coalesced": 0,
            "flush_p50_ms": _percentile(flush_samples, 0.50) * 1e3,
            "flush_p99_ms": _percentile(flush_samples, 0.99) * 1e3,
            "read_p50_ms": _percentile(read_samples, 0.50) * 1e3,
            "read_p99_ms": _percentile(read_samples, 0.99) * 1e3,
        }
    return row, checkpoints


def _run_pipeline(
    stream, measures, staleness, checkpoint_every, reference: list[tuple]
) -> dict:
    database = _build_database()
    read_samples: list[float] = []
    busy = 0.0
    checkpoint = 0
    with MeasurementSession([
        FunctionalDependency(relation, {"A"}, {"B"}) for relation in RELATIONS
    ], database) as session:
        session.index()
        pipe = session.ingest(capacity=max(4 * staleness, 64))
        for step, op in enumerate(stream, start=1):
            start = time.perf_counter()
            pipe.submit(*op)
            busy += time.perf_counter() - start
            if step % READ_EVERY == 0:
                start = time.perf_counter()
                pipe.read(measures, max_staleness_events=staleness)
                done = time.perf_counter()
                read_samples.append(done - start)
                busy += done - start
            if step % checkpoint_every == 0:
                # Off the clock: the checkpoint drain + compare is the
                # bench's correctness harness, not part of the workload.
                pipe.flush()
                state = _capture(session, database, measures)
                assert state == reference[checkpoint], (
                    f"staleness={staleness}: checkpoint {checkpoint} diverged "
                    "from per-event flushing"
                )
                checkpoint += 1
        start = time.perf_counter()
        pipe.flush()
        busy += time.perf_counter() - start
        counters = pipe.counters()
    return {
        "staleness": staleness,
        "events": len(stream),
        "seconds": busy,
        "ops_per_sec": len(stream) / max(busy, 1e-12),
        "flushes": counters["flushes"],
        "events_coalesced": counters["events_coalesced"],
        "flush_p50_ms": (counters["flush_p50"] or 0.0) * 1e3,
        "flush_p99_ms": (counters["flush_p99"] or 0.0) * 1e3,
        "read_p50_ms": _percentile(read_samples, 0.50) * 1e3,
        "read_p99_ms": _percentile(read_samples, 0.99) * 1e3,
    }


def run_streaming() -> dict:
    events = scaled(EVENTS)
    stream = _build_stream(events)
    checkpoint_every = max(1, len(stream) // CHECKPOINTS)
    measures = [make_measure(name) for name in MEASURES]
    baseline, checkpoints = _run_per_event(stream, measures, checkpoint_every)
    assert checkpoints, "stream too short to checkpoint"
    rows = [baseline]
    for staleness in STALENESS_SETTINGS:
        rows.append(
            _run_pipeline(
                stream, measures, staleness, checkpoint_every, checkpoints
            )
        )
    for row in rows[1:]:
        row["speedup"] = baseline["seconds"] / max(row["seconds"], 1e-12)
    return {
        "relations": len(RELATIONS),
        "facts_per_relation": scaled(FACTS_PER_RELATION),
        "events": len(stream),
        "read_every": READ_EVERY,
        "checkpoints": len(checkpoints),
        "measures": list(MEASURES),
        "rows": rows,
    }


def test_bench_streaming_ingest(benchmark):
    result = benchmark.pedantic(run_streaming, rounds=1, iterations=1)
    lines = []
    for row in result["rows"]:
        speedup = (
            f"  (×{row['speedup']:.1f} vs per-event)" if "speedup" in row else ""
        )
        lines.append(
            f"staleness={row['staleness']}: {row['ops_per_sec']:.0f} ops/s, "
            f"{row['flushes']} flushes "
            f"(p50 {row['flush_p50_ms']:.2f}ms / p99 {row['flush_p99_ms']:.2f}ms), "
            f"reads p50 {row['read_p50_ms']:.2f}ms / "
            f"p99 {row['read_p99_ms']:.2f}ms, "
            f"{row['events_coalesced']} coalesced{speedup}"
        )
    body = (
        f"{result['events']} events over {result['relations']} relations "
        f"({result['facts_per_relation']} facts each), read every "
        f"{result['read_every']}, {result['checkpoints']} bit-identity "
        "checkpoints:\n" + "\n".join(lines)
    )
    widest = result["rows"][-1]
    assert widest["speedup"] >= MIN_SPEEDUP, (
        f"coalesced ingest ×{widest['speedup']:.2f} < ×{MIN_SPEEDUP} at "
        f"staleness={widest['staleness']}"
    )
    if full_scale():  # smoke runs must not clobber the committed trajectory
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_streaming.json").write_text(
            json.dumps(result, indent=2, default=str) + "\n", encoding="utf-8"
        )
    save_artifact(
        "streaming_ingest",
        banner("Streaming ingest: coalesced flushes vs per-event", body),
    )
