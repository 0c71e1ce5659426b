"""Batch enumeration == probe enumeration, bit-for-bit.

The acceptance contract of the set-based backend
(:mod:`repro.session.enumeration`) is differential: over randomized DC
sets (equality-joinable chains, constant predicates, NULL-heavy columns,
unary DCs, and deliberately non-joinable DCs that force the ``auto``
fallback) and randomized cold databases plus interleaved
insert/delete/update histories, a session running ``engine="batch"`` /
``"auto"`` must maintain **identical witness sets** — and therefore
identical ``index()`` content and measure values — to the ``"probe"``
reference over the same data.
"""

from __future__ import annotations

import random

import pytest

from repro.constraints.base import ComparisonOp
from repro.constraints.dc import DenialConstraint, Predicate, Term
from repro.relational import Database, Fact, Schema
from repro.session import (
    MeasurementSession,
    batch_compilable,
    make_session,
)

_OPS = [
    ComparisonOp.EQ,
    ComparisonOp.NE,
    ComparisonOp.LT,
    ComparisonOp.LE,
    ComparisonOp.GT,
    ComparisonOp.GE,
]


def _schema(relations: list[str]) -> Schema:
    return Schema.from_dict({relation: ["A", "B", "C"] for relation in relations})


def _random_value(rng: random.Random, spread: int):
    roll = rng.random()
    if roll < 0.08:
        return None
    if roll < 0.16:
        return rng.choice("xy")
    return rng.randint(0, spread)


def _random_fact(rng: random.Random, relation: str, spread: int) -> Fact:
    return Fact(
        relation,
        (
            rng.randint(0, spread),
            _random_value(rng, 5),
            _random_value(rng, 5),
        ),
    )


def _random_dc(
    rng: random.Random, relations: list[str], number: int
) -> DenialConstraint:
    """A random DC drawn from the shapes the backend must cover."""
    shape = rng.randrange(6)
    relation = rng.choice(relations)
    if shape == 0:  # unary
        return DenialConstraint(
            [("t", relation)],
            [
                Predicate(Term.col("t", "B"), rng.choice(_OPS), Term.col("t", "C")),
                Predicate(
                    Term.col("t", "A"), rng.choice(_OPS), Term.const(rng.randint(0, 4))
                ),
            ][: rng.randint(1, 2)],
            name=f"dc{number}_unary",
        )
    if shape == 1:  # FD-style self-join
        return DenialConstraint(
            [("t", relation), ("t2", relation)],
            [
                Predicate(Term.col("t", "A"), ComparisonOp.EQ, Term.col("t2", "A")),
                Predicate(Term.col("t", "B"), rng.choice(_OPS), Term.col("t2", "B")),
            ],
            name=f"dc{number}_fd",
        )
    if shape == 2:  # cross-relation equality join plus filters
        other = rng.choice(relations)
        predicates = [
            Predicate(Term.col("t", "A"), ComparisonOp.EQ, Term.col("s", "A")),
            Predicate(Term.col("t", "B"), rng.choice(_OPS), Term.col("s", "C")),
        ]
        if rng.random() < 0.5:
            predicates.append(
                Predicate(
                    Term.col("s", "B"), rng.choice(_OPS), Term.const(rng.randint(0, 4))
                )
            )
        return DenialConstraint(
            [("t", relation), ("s", other)], predicates, name=f"dc{number}_cross"
        )
    if shape == 3:  # width-3 equality chain
        middle, other = rng.choice(relations), rng.choice(relations)
        return DenialConstraint(
            [("t", relation), ("u", middle), ("v", other)],
            [
                Predicate(Term.col("t", "A"), ComparisonOp.EQ, Term.col("u", "A")),
                Predicate(Term.col("u", "A"), ComparisonOp.EQ, Term.col("v", "A")),
                Predicate(Term.col("t", "B"), rng.choice(_OPS), Term.col("v", "B")),
                Predicate(Term.col("u", "C"), rng.choice(_OPS), Term.col("t", "C")),
            ],
            name=f"dc{number}_chain",
        )
    if shape == 4:  # equality pair plus a lone constant-bound variable
        other = rng.choice(relations)
        return DenialConstraint(
            [("t", relation), ("u", relation), ("v", other)],
            [
                Predicate(Term.col("t", "A"), ComparisonOp.EQ, Term.col("u", "A")),
                Predicate(Term.col("t", "B"), rng.choice(_OPS), Term.col("u", "B")),
                Predicate(
                    Term.col("v", "C"),
                    rng.choice([ComparisonOp.EQ, ComparisonOp.GT]),
                    Term.const(rng.randint(0, 4)),
                ),
            ],
            name=f"dc{number}_lone",
        )
    # non-equality-joinable (auto must fall back to the probe)
    return DenialConstraint(
        [("t", relation), ("t2", relation)],
        [
            Predicate(Term.col("t", "B"), ComparisonOp.LT, Term.col("t2", "B")),
            Predicate(Term.col("t", "C"), ComparisonOp.EQ, Term.const(1)),
            Predicate(Term.col("t2", "C"), ComparisonOp.EQ, Term.const(2)),
        ],
        name=f"dc{number}_cross_product",
    )


def _random_instance(rng: random.Random, size: int):
    relations = [f"R{k}" for k in range(rng.randint(1, 3))]
    schema = _schema(relations)
    # Join-column spread scales with size so witness density stays tame.
    spread = max(6, size // 3)
    database = Database(schema)
    for _ in range(size):
        database.insert(_random_fact(rng, rng.choice(relations), spread))
    dcs = [_random_dc(rng, relations, k) for k in range(rng.randint(1, 4))]
    return schema, relations, spread, database, dcs


def _stores(session: MeasurementSession) -> list:
    """The witness stores in global lowered-DC order, across shards."""
    return [
        session.shards[number]._witnesses[local]
        for number, local in session._routing
    ]


def _witness_sets(session: MeasurementSession) -> list[set[frozenset[int]]]:
    return [set(store) for store in _stores(session)]


def _assert_identical(
    probe: MeasurementSession, other: MeasurementSession
) -> None:
    # index() flushes pending deltas before the stores are compared.
    assert probe.index().mi_sets == other.index().mi_sets
    assert _witness_sets(probe) == _witness_sets(other)
    assert [
        [v.fact_ids for v in store.ordered()] for store in _stores(probe)
    ] == [[v.fact_ids for v in store.ordered()] for store in _stores(other)]


def _mutate(rng: random.Random, database: Database, relations, spread) -> None:
    identifiers = database.ids()
    roll = rng.random()
    if roll < 0.35 and identifiers:
        identifier = rng.choice(identifiers)
        attribute = rng.choice(["A", "B", "C"])
        database.update(identifier, attribute, _random_value(rng, spread))
    elif roll < 0.6 and identifiers:
        database.delete(rng.choice(identifiers))
    else:
        database.insert(_random_fact(rng, rng.choice(relations), spread))


class TestColdEquivalence:
    @pytest.mark.parametrize("case", range(8))
    def test_cold_witnesses_identical(self, case, case_rng):
        rng = case_rng
        _, _, _, database, dcs = _random_instance(rng, rng.randint(20, 80))
        probe = MeasurementSession(dcs, database, engine="probe")
        for engine in ("batch", "auto"):
            if engine == "batch" and not all(batch_compilable(dc) for dc in dcs):
                continue
            session = MeasurementSession(dcs, database, engine=engine)
            _assert_identical(probe, session)

    def test_auto_engine_selection(self, case_rng):
        rng = case_rng
        relations = ["R0"]
        joinable = _random_dc(rng, relations, 0)
        while not batch_compilable(joinable):
            joinable = _random_dc(rng, relations, 0)
        database = Database(_schema(relations))
        crossing = DenialConstraint(
            [("t", "R0"), ("t2", "R0")],
            [Predicate(Term.col("t", "B"), ComparisonOp.LT, Term.col("t2", "B"))],
            name="nojoin",
        )
        session = MeasurementSession([joinable, crossing], database)
        engines = [s["engine"] for s in session.stats()["constraints"]]
        assert engines == ["batch", "probe"]

    def test_batch_engine_rejects_non_joinable(self):
        schema = _schema(["R0"])
        database = Database(schema)
        crossing = DenialConstraint(
            [("t", "R0"), ("t2", "R0")],
            [Predicate(Term.col("t", "B"), ComparisonOp.LT, Term.col("t2", "B"))],
            name="nojoin",
        )
        with pytest.raises(ValueError, match="not equality-joinable"):
            MeasurementSession([crossing], database, engine="batch")

    def test_unknown_engine_rejected(self):
        database = Database(_schema(["R0"]))
        with pytest.raises(ValueError, match="unknown enumeration engine"):
            MeasurementSession([], database, engine="vectorized")

    def test_stats_counters_track_work(self, case_rng):
        rng = case_rng
        _, relations, spread, database, _ = _random_instance(rng, 40)
        dc = DenialConstraint(
            [("t", relations[0]), ("t2", relations[0])],
            [
                Predicate(Term.col("t", "A"), ComparisonOp.EQ, Term.col("t2", "A")),
                Predicate(Term.col("t", "B"), ComparisonOp.NE, Term.col("t2", "B")),
            ],
            name="fd",
        )
        session = MeasurementSession([dc], database, engine="batch")
        stats = session.stats()["constraints"][0]
        assert stats["constraint"] == "fd"
        assert stats["engine"] == "batch"
        assert stats["plans_compiled"] == dc.width
        assert stats["cold_runs"] == 1
        assert stats["batches_joined"] >= 1
        assert stats["rows_scanned"] > 0
        database.insert(_random_fact(rng, relations[0], spread))
        session.index()
        assert session.stats()["constraints"][0]["delta_runs"] == 1
        session.close()


    def test_probe_counters_track_work(self, case_rng):
        """A probe-served DC counts its compiled plans and visited facts."""
        rng = case_rng
        _, relations, spread, database, _ = _random_instance(rng, 40)
        dominance = DenialConstraint(
            [("t", relations[0]), ("t2", relations[0])],
            [
                Predicate(Term.col("t", "A"), ComparisonOp.LT, Term.col("t2", "A")),
                Predicate(Term.col("t", "B"), ComparisonOp.LT, Term.col("t2", "B")),
            ],
            name="dominance",
        )
        mirror = Database(database.schema)
        for _, fact in database.items():
            mirror.insert(Fact(fact.relation, fact.values))
        extra = _random_fact(rng, relations[0], spread)
        runs = []
        for target in (database, mirror):
            session = MeasurementSession([dominance], target)
            target.insert(extra)
            session.index()
            runs.append(session.stats()["constraints"][0])
            session.close()
        stats = runs[0]
        assert stats["engine"] == "probe"
        assert stats["plans_compiled"] == dominance.width
        assert stats["rows_scanned"] > 0
        assert stats["delta_runs"] == 1
        assert runs[0] == runs[1]


class TestDeltaEquivalence:
    @pytest.mark.slow
    @pytest.mark.parametrize("case", range(6))
    def test_interleaved_histories_identical(self, case, case_rng):
        rng = case_rng
        _, relations, spread, database, dcs = _random_instance(
            rng, rng.randint(15, 50)
        )
        mirror = Database(database.schema)
        for _, fact in database.items():
            mirror.insert(Fact(fact.relation, fact.values))
        probe = MeasurementSession(dcs, database, engine="probe")
        batch = MeasurementSession(dcs, mirror, engine="auto")
        _assert_identical(probe, batch)
        for step in range(rng.randint(25, 60)):
            state = rng.getstate()
            _mutate(rng, database, relations, spread)
            rng.setstate(state)
            _mutate(rng, mirror, relations, spread)
            if step % rng.randint(2, 5) == 0:
                _assert_identical(probe, batch)
        _assert_identical(probe, batch)
        probe.close()
        batch.close()

    @pytest.mark.slow
    @pytest.mark.parametrize("case", range(3))
    def test_speculation_identical(self, case, case_rng):
        """Batched speculation previews run through the batch delta path too."""
        from repro.measures import make_measure
        from repro.repairs.operations import DeleteOperation, UpdateOperation

        rng = case_rng
        _, relations, spread, database, dcs = _random_instance(
            rng, rng.randint(15, 40)
        )
        mirror = Database(database.schema)
        for _, fact in database.items():
            mirror.insert(Fact(fact.relation, fact.values))
        probe = MeasurementSession(dcs, database, engine="probe")
        batch = MeasurementSession(dcs, mirror, engine="auto")
        measure = make_measure("I_MI")
        for _ in range(4):
            identifiers = database.ids()
            if not identifiers:
                break
            candidates = []
            for _ in range(3):
                identifier = rng.choice(identifiers)
                if rng.random() < 0.5:
                    candidates.append([DeleteOperation(identifier)])
                else:
                    candidates.append(
                        [
                            UpdateOperation(
                                identifier,
                                rng.choice(["A", "B"]),
                                _random_value(rng, spread),
                            )
                        ]
                    )
            assert probe.speculate_batch(candidates, [measure]) == (
                batch.speculate_batch(candidates, [measure])
            )
            state = rng.getstate()
            _mutate(rng, database, relations, spread)
            rng.setstate(state)
            _mutate(rng, mirror, relations, spread)
        _assert_identical(probe, batch)
        probe.close()
        batch.close()


class TestShardedAndWarmStart:
    def test_sharded_engine_passthrough_and_stats(self, case_rng):
        rng = case_rng
        relations = ["R0", "R1"]
        schema = _schema(relations)
        database = Database(schema)
        for _ in range(30):
            database.insert(_random_fact(rng, rng.choice(relations), 6))
        from repro.constraints import FunctionalDependency

        constraints = [
            FunctionalDependency("R0", {"A"}, {"B"}),
            FunctionalDependency("R1", {"A"}, {"C"}),
        ]
        session = make_session(constraints, database, shards="auto", engine="batch")
        probe = MeasurementSession(constraints, database, engine="probe")
        assert session.index().mi_sets == probe.index().mi_sets
        stats = session.stats()
        assert stats["engine"] == "batch"
        assert [s["engine"] for s in stats["constraints"]] == ["batch", "batch"]
        # Global lowered-DC order is preserved through the shard routing.
        assert [s["constraint"] for s in stats["constraints"]] == [
            dc.name for dc in session.dcs
        ]
        session.close()
        probe.close()

    def test_warm_start_uses_batch_delta(self, case_rng):
        rng = case_rng
        relations = ["R0"]
        schema = _schema(relations)
        database = Database(schema)
        for _ in range(25):
            database.insert(_random_fact(rng, "R0", 5))
        dc = DenialConstraint(
            [("t", "R0"), ("t2", "R0")],
            [
                Predicate(Term.col("t", "A"), ComparisonOp.EQ, Term.col("t2", "A")),
                Predicate(Term.col("t", "B"), ComparisonOp.NE, Term.col("t2", "B")),
            ],
            name="fd",
        )
        with MeasurementSession([dc], database, engine="batch") as warm_src:
            snap = warm_src.snapshot()
        session = MeasurementSession([dc], database, engine="batch", warm_start=snap)
        assert session.warm_started
        assert session.stats()["constraints"][0]["cold_runs"] == 0
        reference = MeasurementSession([dc], database, engine="probe")
        _assert_identical(reference, session)
        for _ in range(10):
            _mutate(rng, database, relations, 5)
        reference.refresh()
        _assert_identical(reference, session)
        assert session.stats()["constraints"][0]["delta_runs"] >= 1
        session.close()
