"""Maintained batch enumeration == a fresh cold build, bit-for-bit.

The acceptance contract of the batch plans
(:mod:`repro.session.enumeration`) is differential: over randomized DC
sets (equality-joinable chains, constant predicates, NULL-heavy columns,
unary DCs, and DCs with no equality join at all, served by cross steps)
and randomized cold databases plus interleaved insert/delete/update
histories, a live session must maintain **identical witness sets** — and
therefore identical ``index()`` content and measure values — to a fresh
cold build on the other column backend over the same data, and to the
brute-force oracle wherever the instance is small enough to enumerate.
"""

from __future__ import annotations

import importlib.util
import math
import random
from contextlib import contextmanager
from typing import Iterator

import pytest

from repro.constraints.base import ComparisonOp
from repro.constraints.dc import DenialConstraint, Predicate, Term
from repro.relational import Database, Fact, Schema
from repro.session import MeasurementSession, make_session
from repro.testing.layout import column_backend

from ..oracle import brute_force_witnesses

HAS_NUMPY = importlib.util.find_spec("numpy") is not None

#: Largest assignment space per DC the brute-force oracle enumerates.
ORACLE_ASSIGNMENTS = 20_000

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
    # no equality join: a cross step with a pairwise residual
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
    reference: MeasurementSession, other: MeasurementSession
) -> None:
    # index() flushes pending deltas before the stores are compared.
    assert reference.index().mi_sets == other.index().mi_sets
    assert _witness_sets(reference) == _witness_sets(other)
    assert [
        [v.fact_ids for v in store.ordered()] for store in _stores(reference)
    ] == [[v.fact_ids for v in store.ordered()] for store in _stores(other)]


def other_backend(session: MeasurementSession) -> str:
    """The column backend a reference cold build of *session* runs on:
    the one *session* does not, when numpy is importable."""
    if not HAS_NUMPY:
        return "list"
    return "list" if session.stats()["vector_backend"] == "numpy" else "numpy"


@contextmanager
def fresh_reference(session: MeasurementSession) -> Iterator[MeasurementSession]:
    """A fresh cold build of *session*'s constraints and database on the
    other column backend, open for the block."""
    with column_backend(other_backend(session)):
        with MeasurementSession(session.constraints, session.database) as fresh:
            yield fresh


def assert_matches_reference(session: MeasurementSession) -> None:
    """*session*'s maintained state equals a fresh cold build on the other
    backend, and each small DC's witnesses equal the oracle's."""
    # Flush (or recover) on the session's own backend before the block
    # that builds the reference on the other one.
    session.index()
    with fresh_reference(session) as reference:
        _assert_identical(reference, session)
    database = session.database
    for dc, store in zip(session.dcs, _stores(session)):
        space = math.prod(
            len(database.relation_ids(relation)) for _, relation in dc.variables
        )
        if space <= ORACLE_ASSIGNMENTS:
            assert set(store) == brute_force_witnesses(dc, database)


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
        with MeasurementSession(dcs, database) as session:
            assert_matches_reference(session)

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
        session = MeasurementSession([dc], database)
        stats = session.stats()["constraints"][0]
        assert stats["constraint"] == "fd"
        assert stats["backend"] == session.stats()["vector_backend"]
        assert stats["plans_compiled"] == dc.width
        assert stats["cold_runs"] == 1
        assert stats["batches_joined"] >= 1
        assert stats["rows_scanned"] > 0
        database.insert(_random_fact(rng, relations[0], spread))
        session.index()
        assert session.stats()["constraints"][0]["delta_runs"] == 1
        session.close()

    def test_cross_counters_track_work(self, case_rng):
        """An inequality-only DC counts its plans and cross-joined rows."""
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
        assert stats["plans_compiled"] == dominance.width
        assert stats["batches_joined"] >= 1
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
        session = MeasurementSession(dcs, database)
        assert_matches_reference(session)
        for step in range(rng.randint(25, 60)):
            _mutate(rng, database, relations, spread)
            if step % rng.randint(2, 5) == 0:
                assert_matches_reference(session)
        assert_matches_reference(session)
        session.close()

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
        session = MeasurementSession(dcs, database)
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
            with fresh_reference(session) as reference:
                expected = reference.speculate_batch(candidates, [measure])
            assert session.speculate_batch(candidates, [measure]) == expected
            _mutate(rng, database, relations, spread)
        assert_matches_reference(session)
        session.close()


class TestShardedAndWarmStart:
    def test_sharded_stats_in_global_order(self, case_rng):
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
        session = make_session(constraints, database)
        assert len(session.shards) == 2
        assert_matches_reference(session)
        stats = session.stats()
        assert "engine" not in stats
        backend = stats["vector_backend"]
        assert [s["backend"] for s in stats["constraints"]] == [backend, backend]
        # Global lowered-DC order is preserved through the shard routing.
        assert [s["constraint"] for s in stats["constraints"]] == [
            dc.name for dc in session.dcs
        ]
        session.close()

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
        with MeasurementSession([dc], database) as warm_src:
            snap = warm_src.snapshot()
        session = MeasurementSession([dc], database, warm_start=snap)
        assert session.warm_started
        assert session.stats()["constraints"][0]["cold_runs"] == 0
        assert_matches_reference(session)
        for _ in range(10):
            _mutate(rng, database, relations, 5)
        assert_matches_reference(session)
        assert session.stats()["constraints"][0]["delta_runs"] >= 1
        session.close()
