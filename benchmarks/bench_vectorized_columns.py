"""Vectorized numpy column kernels vs the list-backed batch path.

The batch enumeration engine runs on one of two column backends
(:mod:`repro.session.columnar`): pure-python lists with dict group indexes,
or numpy arrays with dictionary-encoded join keys and CSR bucket probes
(:mod:`repro.session.vectorized`).  This bench sweeps the Tax- and
Hospital-shaped workloads from 100k to 1M facts and times the two backends
head-to-head on exactly the entry points that matter — the store's cold
load, cold enumeration and dirty-batch delta re-enumeration.

Before any timing, each backend's one-pass cold load is asserted equal,
field for field, to a store fed one insert event per fact (at the sweep's
smallest size).  At **every** step the two witness families are asserted
bit-identical (numpy == list) before any timing is trusted.  When numpy is not
importable the sweep runs the list leg alone, checks its delta against a
fresh list cold build restricted to the dirty facts, and skips the speedup
bars.  The acceptance bars — numpy ≥5× cold and ≥3× delta over
the *list-backed batch* path — are enforced at ≥500k facts and full scale
only.  The 1000-row dirty batch lies above ``SCALAR_DELTA_ROWS``, so that
leg runs the numpy kernels.

A second leg, the **crossover sweep**, measures the constant behind the
numpy store's scalar delta path: on one numpy store per workload it
re-enumerates k ∈ ``K_SWEEP`` dirty facts with the scalar kernels (the
list kernels over the list store it owns) and with the batch (numpy)
kernels, asserting both return the same witnesses at every k.  Results
land in ``BENCH_vectorized.json`` (``sweep`` and ``k_sweep``).
"""

from __future__ import annotations

import gc
import importlib.util
import json
import random
import time

from repro.constraints.base import ComparisonOp
from repro.constraints.dc import DenialConstraint, Predicate, Term
from repro.relational import Database, Fact, Schema
from repro.relational.database import ChangeEvent
from repro.session import build_enumerators
from repro.session.enumeration import group_by_relation
from repro.testing.layout import column_backend

from _common import RESULTS_DIR, banner, full_scale, save_artifact, scaled

HAS_NUMPY = importlib.util.find_spec("numpy") is not None
if HAS_NUMPY:
    from repro.session import vectorized

SIZES = (100_000, 500_000, 1_000_000)
#: Facts updated per dirty batch before each delta re-enumeration.
DIRTY_BATCH = 1_000
#: Delta timings are the best of this many (idempotent) re-enumerations —
#: the ``timeit`` convention: a milliseconds-wide window is exposed to
#: first-call, allocator, and scheduler noise that only ever *adds* time,
#: so the minimum is the faithful estimate of the work itself.
DELTA_ROUNDS = 5
#: Noise rate: fraction of facts whose dependent attribute breaks the rule.
NOISE = 0.05
#: Acceptance bars (numpy vs the list-backed batch path), enforced at
#: >=500k facts and full scale only.
MIN_COLD_SPEEDUP = 5.0 if full_scale() else 0.0
MIN_DELTA_SPEEDUP = 3.0 if full_scale() else 0.0
ENFORCE_AT = 500_000
#: Dirty facts per delta in the crossover sweep.
K_SWEEP = (1, 4, 16, 32, 64, 256, 1000)
#: Facts in the crossover sweep's store.
K_SWEEP_FACTS = 100_000
#: The scalar path's bar (full scale only): faster than the batch kernels
#: on a one-fact delta, the stream's common case.
MIN_SCALAR_SPEEDUP_AT_1 = 1.0 if full_scale() else 0.0


def _tax_workload(n: int, rng: random.Random):
    """Tax(State, Salary, Rate) with the paper's ordering DC."""
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
    """``(result, seconds)`` with the collector parked outside the window."""
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


BACKENDS = ["list"] + (["numpy"] if HAS_NUMPY else [])


def _list_state(store):
    """A list store's every field (its tables and groups)."""
    return (
        {
            name: (table.ids, table.columns, table.row_of, table.free)
            for name, table in store._relations.items()
        },
        store._groups,
    )


def _store_state(store):
    """A column store's every field as plain python (NaN-free workloads).

    Grouped indexes are built first on the numpy backend, so their CSR
    buckets compare too, and so does the list store it owns.
    """
    if store.backend == "list":
        return _list_state(store)
    state = {}
    for name, relation in store._relations.items():
        columns = {}
        for attribute, column in relation.columns.items():
            group = column.group
            if group is not None:
                group.ensure(relation, column)
                group = (group.starts.tolist(), group.rows.tolist())
            columns[attribute] = (
                column.kind,
                column.huge,
                column.valid.tolist(),
                column.data.tolist(),
                None if column.codes is None else column.codes.tolist(),
                None if column.dict_class is None else column.dict_class.codes,
                group,
            )
        state[name] = (
            relation.n,
            relation.cap,
            relation.ids.tolist(),
            relation.live.tolist(),
            columns,
        )
    return state, _list_state(store.lists)


def _check_cold_load(workload: str, size: int, seed: int) -> None:
    """Bulk-built store == one insert event per fact, on every backend."""
    database, dcs, _ = WORKLOADS[workload](size, random.Random(seed))
    for backend in BACKENDS:
        with column_backend(backend):
            _, bulk = build_enumerators(dcs, database)
            _, evented = build_enumerators(dcs, Database(database.schema))
        for identifier, fact in database.items():
            evented.apply(ChangeEvent("insert", identifier, None, fact))
        assert _store_state(bulk) == _store_state(evented), (
            f"{workload}@{size}: {backend} cold load diverged from per-event loading"
        )


def _run_case(workload: str, size: int, seed: int) -> dict:
    rng = random.Random(seed)
    database, dcs, (dirty_attr, dirty_value) = WORKLOADS[workload](size, rng)
    legs: dict[str, list] = {}
    stores = []
    build_seconds: dict[str, float] = {}
    for backend in BACKENDS:
        with column_backend(backend):
            (enumerators, store), build_seconds[backend] = _timed(
                lambda: build_enumerators(dcs, database)
            )
        stores.append(store)
        legs[backend] = enumerators
    # Every maintained store tracks the same mutations, like a session does.
    for store in stores:
        database.subscribe(store.apply)

    cold: dict[str, list] = {}
    cold_seconds: dict[str, float] = {}
    for leg, enumerators in legs.items():
        cold[leg], cold_seconds[leg] = _timed(
            lambda enumerators=enumerators: [
                enumerator.cold(database) for enumerator in enumerators
            ]
        )
    if HAS_NUMPY:
        assert cold["numpy"] == cold["list"], (
            f"{workload}@{size}: cold numpy witnesses diverged from list"
        )
    witnesses = sum(len(found) for found in cold["list"])

    identifiers = database.ids()
    dirty = rng.sample(identifiers, min(DIRTY_BATCH, len(identifiers)))
    for identifier in dirty:
        database.update(identifier, dirty_attr, dirty_value())
    by_relation = group_by_relation(database, dirty)
    delta: dict[str, list] = {}
    delta_seconds: dict[str, float] = {}
    for leg, enumerators in legs.items():
        rounds = []
        for _ in range(DELTA_ROUNDS):
            delta[leg], seconds = _timed(
                lambda enumerators=enumerators: [
                    enumerator.delta(by_relation)
                    for enumerator in enumerators
                ]
            )
            rounds.append(seconds)
        delta_seconds[leg] = min(rounds)
    if HAS_NUMPY:
        assert delta["numpy"] == delta["list"], (
            f"{workload}@{size}: delta numpy witnesses diverged from list"
        )
    else:
        with column_backend("list"):
            fresh, _ = build_enumerators(dcs, database)
        expected = [
            {witness for witness in enumerator.cold(database) if witness & dirty_set}
            for enumerator in fresh
        ]
        assert delta["list"] == expected, (
            f"{workload}@{size}: list delta diverged from a fresh cold build"
        )

    for store in stores:
        database.unsubscribe(store.apply)
    row = {
        "workload": workload,
        "facts": size,
        "witnesses": witnesses,
        "dirty_batch": len(dirty),
        "delta_witnesses": sum(len(found) for found in delta["list"]),
        "has_numpy": HAS_NUMPY,
        "build_seconds": build_seconds,
        "cold_seconds": cold_seconds,
        "delta_seconds": delta_seconds,
    }
    if HAS_NUMPY:
        row["cold_speedup_vs_list"] = cold_seconds["list"] / max(
            cold_seconds["numpy"], 1e-12
        )
        row["delta_speedup_vs_list"] = delta_seconds["list"] / max(
            delta_seconds["numpy"], 1e-12
        )
        row["numpy_stats"] = legs["numpy"][0].stats.as_dict()
    return row


def _kernel_delta(enumerators, by_relation, scalar_rows: int):
    """Best-of-``DELTA_ROUNDS`` delta witnesses and seconds, with the
    scalar crossover set to *scalar_rows* (0: batch kernels only)."""
    saved = vectorized.SCALAR_DELTA_ROWS
    vectorized.SCALAR_DELTA_ROWS = scalar_rows
    try:
        rounds = []
        for _ in range(DELTA_ROUNDS):
            found, seconds = _timed(
                lambda: [enumerator.delta(by_relation) for enumerator in enumerators]
            )
            rounds.append(seconds)
    finally:
        vectorized.SCALAR_DELTA_ROWS = saved
    return found, min(rounds)


def _run_k_sweep(workload: str, size: int, seed: int) -> dict:
    """Scalar vs batch delta time at each k of ``K_SWEEP``, one numpy store.

    Each k updates k fresh dirty facts on top of the earlier ones, as a
    stream would, and re-enumerates exactly those.
    """
    rng = random.Random(seed)
    database, dcs, (dirty_attr, dirty_value) = WORKLOADS[workload](size, rng)
    with column_backend("numpy"):
        enumerators, store = build_enumerators(dcs, database)
    database.subscribe(store.apply)
    identifiers = database.ids()
    points = []
    for k in K_SWEEP:
        dirty = rng.sample(identifiers, min(k, len(identifiers)))
        for identifier in dirty:
            database.update(identifier, dirty_attr, dirty_value())
        by_relation = group_by_relation(database, dirty)
        scalar, scalar_seconds = _kernel_delta(enumerators, by_relation, 1 << 30)
        batch, batch_seconds = _kernel_delta(enumerators, by_relation, 0)
        assert scalar == batch, (
            f"{workload}@{size}: scalar delta diverged from batch at k={k}"
        )
        points.append(
            {
                "k": len(dirty),
                "delta_witnesses": sum(map(len, batch)),
                "scalar_ms": 1e3 * scalar_seconds,
                "batch_ms": 1e3 * batch_seconds,
            }
        )
    database.unsubscribe(store.apply)
    return {
        "workload": workload,
        "facts": size,
        "scalar_delta_rows": vectorized.SCALAR_DELTA_ROWS,
        "points": points,
    }


def run_k_sweep() -> list[dict]:
    if not HAS_NUMPY:
        return []
    return [
        _run_k_sweep(workload, scaled(K_SWEEP_FACTS), seed=K_SWEEP_FACTS + 29)
        for workload in WORKLOADS
    ]


def run_sweep() -> list[dict]:
    for workload in WORKLOADS:
        _check_cold_load(workload, scaled(SIZES[0]), seed=SIZES[0] + 13)
    rows = []
    for workload in WORKLOADS:
        for base in SIZES:
            rows.append(_run_case(workload, scaled(base), seed=base + 13))
    return rows


def test_bench_vectorized_columns(benchmark):
    rows, k_sweep = benchmark.pedantic(
        lambda: (run_sweep(), run_k_sweep()), rounds=1, iterations=1
    )
    lines = []
    for row in rows:
        build = row["build_seconds"]
        cold = row["cold_seconds"]
        delta = row["delta_seconds"]
        if row["has_numpy"]:
            lines.append(
                f"{row['workload']:>8} n={row['facts']:>8} "
                f"({row['witnesses']} witnesses): load list "
                f"{build['list']:.3f}s vs numpy {build['numpy']:.3f}s; cold list "
                f"{cold['list']:.3f}s vs numpy {cold['numpy']:.3f}s "
                f"(×{row['cold_speedup_vs_list']:.1f}); "
                f"delta[{row['dirty_batch']}] list {delta['list']*1e3:.1f}ms "
                f"vs numpy {delta['numpy']*1e3:.1f}ms "
                f"(×{row['delta_speedup_vs_list']:.1f})"
            )
            if row["facts"] >= ENFORCE_AT:
                assert row["cold_speedup_vs_list"] >= MIN_COLD_SPEEDUP, (
                    f"{row['workload']}@{row['facts']}: cold ×"
                    f"{row['cold_speedup_vs_list']:.1f} < ×{MIN_COLD_SPEEDUP}"
                )
                assert row["delta_speedup_vs_list"] >= MIN_DELTA_SPEEDUP, (
                    f"{row['workload']}@{row['facts']}: delta ×"
                    f"{row['delta_speedup_vs_list']:.1f} < ×{MIN_DELTA_SPEEDUP}"
                )
        else:
            lines.append(
                f"{row['workload']:>8} n={row['facts']:>8} fallback leg: "
                f"load list {build['list']:.3f}s; "
                f"cold list {cold['list']:.3f}s; delta list "
                f"{delta['list']*1e3:.1f}ms == fresh cold build on the dirty facts"
            )
    for leg in k_sweep:
        first = leg["points"][0]
        assert first["batch_ms"] >= MIN_SCALAR_SPEEDUP_AT_1 * first["scalar_ms"], (
            f"{leg['workload']}@{leg['facts']}: scalar delta at k=1 "
            f"{first['scalar_ms']:.3f} ms is not under batch {first['batch_ms']:.3f} ms"
        )
        lines.append(
            f"{leg['workload']:>8} n={leg['facts']:>8} crossover sweep "
            f"(scalar up to {leg['scalar_delta_rows']} rows), delta ms "
            "scalar/batch: "
            + ", ".join(
                f"k={point['k']} {point['scalar_ms']:.3f}/{point['batch_ms']:.3f}"
                for point in leg["points"]
            )
        )
    if full_scale():  # smoke runs must not clobber the committed trajectory
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "BENCH_vectorized.json").write_text(
            json.dumps({"sweep": rows, "k_sweep": k_sweep}, indent=2) + "\n",
            encoding="utf-8",
        )
    save_artifact(
        "vectorized_columns",
        banner("Vectorized numpy kernels vs list-backed batch", "\n".join(lines)),
    )
