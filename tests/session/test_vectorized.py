"""numpy kernels == list kernels, bit-for-bit.

The vectorized column backend (:mod:`repro.session.vectorized`) is held to
the same differential contract as the list backend: over randomized DC
sets and interleaved histories, sessions running either store must
maintain witness sets identical to a fresh cold build on the other
backend — across cold builds, delta maintenance, speculation, sharding and
warm starts.  On top of the parity sweeps, targeted suites pin
the hazards the dtype ladder and dictionary encoding introduce: None/NaN
cells, bool columns, > 2**53 integers against floats, mixed str/int
columns, dictionary-code stability across savepoint rollback, and
live-fraction compaction.  Everything runs on whatever backends the
process has: the without-numpy CI leg skips the numpy half and still
exercises the fallback path.
"""

from __future__ import annotations

import sys

import pytest

from repro.constraints.base import ComparisonOp
from repro.constraints.dc import DenialConstraint, Predicate, Term
from repro.relational import Database, Fact, Schema
from repro.session import (
    MeasurementSession,
    make_column_store,
    make_session,
)
from repro.session.columnar import ColumnStore, _detect_backend

from .test_setbased import (
    HAS_NUMPY,
    _mutate,
    _random_fact,
    _random_instance,
    _random_value,
    _schema,
    assert_matches_reference,
    fresh_reference,
)

#: Column backends available in this process ("list" always is).
BACKENDS = ["list"] + (["numpy"] if HAS_NUMPY else [])

needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")


def _mirror(database: Database) -> Database:
    copy = Database(database.schema)
    for _, fact in database.items():
        copy.insert(Fact(fact.relation, fact.values))
    return copy


def _sessions(database: Database, dcs) -> list[MeasurementSession]:
    """One session per available backend, over mirrored databases."""
    return [
        MeasurementSession(dcs, _mirror(database), vector_backend=backend)
        for backend in BACKENDS
    ]


def _facts_parity(schema: Schema, rows: dict[str, list[tuple]], dcs) -> None:
    """Assert cross-backend and oracle parity over an explicit instance."""
    database = Database(schema)
    for relation, tuples in rows.items():
        for values in tuples:
            database.insert(Fact(relation, values))
    for session in _sessions(database, dcs):
        assert_matches_reference(session)
        session.close()


class TestBackendParity:
    @pytest.mark.parametrize("case", range(4))
    def test_cold(self, case, case_rng):
        rng = case_rng
        _, _, _, database, dcs = _random_instance(rng, rng.randint(20, 80))
        for session in _sessions(database, dcs):
            assert_matches_reference(session)
            session.close()

    @pytest.mark.parametrize("case", range(3))
    def test_interleaved_histories(self, case, case_rng):
        rng = case_rng
        _, relations, spread, database, dcs = _random_instance(
            rng, rng.randint(15, 40)
        )
        batches = _sessions(database, dcs)
        databases = [session.database for session in batches]
        for step in range(rng.randint(20, 40)):
            state = rng.getstate()
            for mutated in databases:
                rng.setstate(state)
                _mutate(rng, mutated, relations, spread)
            if step % 5 == 0:
                for session in batches:
                    assert_matches_reference(session)
        for session in batches:
            assert_matches_reference(session)
            session.close()

    @pytest.mark.parametrize("case", range(2))
    def test_speculation(self, case, case_rng):
        from repro.measures import make_measure
        from repro.repairs.operations import DeleteOperation, UpdateOperation

        rng = case_rng
        _, relations, spread, database, dcs = _random_instance(
            rng, rng.randint(15, 40)
        )
        batches = _sessions(database, dcs)
        measure = make_measure("I_MI")
        for _ in range(3):
            identifiers = batches[0].database.ids()
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
            for session in batches:
                with fresh_reference(session) as reference:
                    expected = reference.speculate_batch(candidates, [measure])
                assert session.speculate_batch(candidates, [measure]) == expected
            state = rng.getstate()
            for mutated in [s.database for s in batches]:
                rng.setstate(state)
                _mutate(rng, mutated, relations, spread)
        for session in batches:
            assert_matches_reference(session)
            session.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sharded(self, backend, case_rng):
        from repro.constraints import FunctionalDependency

        rng = case_rng
        relations = ["R0", "R1"]
        schema = _schema(relations)
        database = Database(schema)
        for _ in range(40):
            database.insert(_random_fact(rng, rng.choice(relations), 6))
        constraints = [
            FunctionalDependency("R0", {"A"}, {"B"}),
            FunctionalDependency("R1", {"A"}, {"C"}),
        ]
        sharded = make_session(
            constraints,
            database,
            shards="auto",
            vector_backend=backend,
        )
        assert_matches_reference(sharded)
        assert sharded.stats()["vector_backend"] == backend
        for _ in range(15):
            _mutate(rng, database, relations, 6)
        assert_matches_reference(sharded)
        sharded.close()

    @pytest.mark.parametrize("snap_backend", BACKENDS)
    def test_warm_start_across_backends(self, snap_backend, case_rng):
        """A snapshot from either backend warm-starts every backend."""
        rng = case_rng
        relations = ["R0"]
        database = Database(_schema(relations))
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
        with MeasurementSession(
            [dc], database, vector_backend=snap_backend
        ) as source:
            snap = source.snapshot()
        for backend in BACKENDS:
            mirrored = _mirror(database)
            session = MeasurementSession(
                [dc],
                mirrored,
                vector_backend=backend,
                warm_start=snap,
            )
            assert session.warm_started
            assert session.stats()["constraints"][0]["cold_runs"] == 0
            assert_matches_reference(session)
            for _ in range(10):
                _mutate(rng, mirrored, relations, 5)
            assert_matches_reference(session)
            assert session.stats()["constraints"][0]["delta_runs"] >= 1
            session.close()


class TestDtypeEdgeCases:
    """Explicit instances that walk the i8 → f8 → obj ladder."""

    def _dc_pair(self, op_bc):
        return [
            DenialConstraint(
                [("t", "R"), ("s", "R")],
                [
                    Predicate(Term.col("t", "A"), ComparisonOp.EQ, Term.col("s", "A")),
                    Predicate(Term.col("t", "B"), op_bc, Term.col("s", "C")),
                ],
                name="pair",
            )
        ]

    @pytest.mark.parametrize(
        "op", [ComparisonOp.EQ, ComparisonOp.NE, ComparisonOp.LT, ComparisonOp.GE]
    )
    def test_none_and_nan_cells(self, op):
        # Each NaN cell is a fresh object: a dict keyed by an *identical*
        # NaN object would find it by the container identity shortcut
        # against ``==`` semantics — the list store's key groups keep NaN
        # out, and the shared-object case is pinned against the oracle in
        # tests/violations/test_sqlgen_conformance.py.
        rows = [
            (1, None, 2),
            (1, float("nan"), float("nan")),
            (1, 2, None),
            (2, float("nan"), 2.0),
            (2, 2.0, float("nan")),
            (2, None, None),
            (1, 3, 2),
        ]
        _facts_parity(_schema(["R"]), {"R": rows}, self._dc_pair(op))

    @pytest.mark.parametrize(
        "op", [ComparisonOp.EQ, ComparisonOp.NE, ComparisonOp.LT, ComparisonOp.GE]
    )
    def test_mixed_str_int_columns(self, op):
        rows = [
            (1, "x", 2),
            (1, 2, "x"),
            (1, "x", "x"),
            (2, 2, 2),
            (2, "y", 2.0),
            (2, None, "y"),
        ]
        _facts_parity(_schema(["R"]), {"R": rows}, self._dc_pair(op))

    @pytest.mark.parametrize(
        "op", [ComparisonOp.EQ, ComparisonOp.NE, ComparisonOp.LT, ComparisonOp.GE]
    )
    def test_bool_and_bigint_cells(self, op):
        """bools, > 2**63 ints and 2**53-adjacent int/float near-misses.

        ``2**53`` and ``float(2**53)`` must compare equal while
        ``2**53 + 1`` and ``float(2**53 + 1)`` must not — the rounded
        float equals ``2**53``, which only exact (non-f8) comparison
        preserves.
        """
        big = 2**53
        rows = [
            (1, True, 1),
            (1, False, True),
            (1, 1, True),
            (2, big + 1, float(big + 1)),
            (2, float(big), big),
            (2, 2**64, 2**64 + 1),
            (3, -(2**63) - 1, 7),
            (3, big + 1, big + 1),
        ]
        _facts_parity(_schema(["R"]), {"R": rows}, self._dc_pair(op))

    def test_constant_predicates_on_promoted_columns(self):
        dcs = [
            DenialConstraint(
                [("t", "R")],
                [
                    Predicate(Term.col("t", "B"), ComparisonOp.NE, Term.const("x")),
                    Predicate(Term.col("t", "C"), ComparisonOp.GT, Term.const(1)),
                ],
                name="consts",
            )
        ]
        rows = [
            (1, "x", 2),
            (1, 2, 2.5),
            (1, None, None),
            (2, float("nan"), 3),
            (2, True, 2**60),
        ]
        _facts_parity(_schema(["R"]), {"R": rows}, dcs)

    def test_late_promotion_under_updates(self, case_rng):
        """A column that starts i8 and only later sees floats/strings."""
        rng = case_rng
        database = Database(_schema(["R"]))
        for k in range(30):
            database.insert(Fact("R", (k % 5, k % 7, k % 3)))
        dcs = self._dc_pair(ComparisonOp.LT)
        batches = _sessions(database, dcs)
        databases = [session.database for session in batches]
        odd_values = [2.5, "x", float("nan"), 2**60, None, True]
        for step, value in enumerate(odd_values * 3):
            state = rng.getstate()
            for mutated in databases:
                rng.setstate(state)
                identifier = rng.choice(mutated.ids())
                mutated.update(identifier, rng.choice(["A", "B", "C"]), value)
            for session in batches:
                assert_matches_reference(session)
        for session in batches:
            session.close()


class TestDictionaryAndCompaction:
    @needs_numpy
    def test_codes_stable_under_rollback(self, case_rng):
        """Savepoint rollback must not re-map any existing value's code."""
        from repro.measures import make_measure
        from repro.repairs.operations import UpdateOperation

        rng = case_rng
        database = Database(_schema(["R0"]))
        for _ in range(20):
            database.insert(_random_fact(rng, "R0", 5))
        dc = DenialConstraint(
            [("t", "R0"), ("t2", "R0")],
            [
                Predicate(Term.col("t", "A"), ComparisonOp.EQ, Term.col("t2", "A")),
                Predicate(Term.col("t", "B"), ComparisonOp.NE, Term.col("t2", "B")),
            ],
            name="fd",
        )
        session = MeasurementSession([dc], database, vector_backend="numpy")
        session.index()
        store = session.shards[0]._columns
        dictionary = store.column("R0", "A").dict_class
        before = dict(dictionary.codes)
        # Speculate updates that introduce brand-new join values, then
        # roll back; dedicated codes were assigned inside the savepoint.
        candidates = [
            [UpdateOperation(identifier, "A", 1000 + k)]
            for k, identifier in enumerate(database.ids()[:4])
        ]
        session.speculate_batch(candidates, [make_measure("I_MI")])
        after = dict(dictionary.codes)
        for value, code in before.items():
            assert after[value] == code
        assert all(1000 + k in after for k in range(4))
        # The rolled-back store still answers identically to a fresh build.
        assert_matches_reference(session)
        session.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_compaction_preserves_parity(self, backend, case_rng, monkeypatch):
        """Delete-heavy histories cross the live-fraction threshold."""
        from repro.session.columnar import ColumnStore as ListStore

        monkeypatch.setattr(ListStore, "COMPACT_MIN_SLOTS", 16)
        if HAS_NUMPY:
            from repro.session.vectorized import VectorColumnStore

            monkeypatch.setattr(VectorColumnStore, "COMPACT_MIN_SLOTS", 16)
        rng = case_rng
        relations = ["R0"]
        database = Database(_schema(relations))
        for _ in range(60):
            database.insert(_random_fact(rng, "R0", 8))
        dc = DenialConstraint(
            [("t", "R0"), ("t2", "R0")],
            [
                Predicate(Term.col("t", "A"), ComparisonOp.EQ, Term.col("t2", "A")),
                Predicate(Term.col("t", "B"), ComparisonOp.NE, Term.col("t2", "B")),
            ],
            name="fd",
        )
        batch = MeasurementSession([dc], database, vector_backend=backend)
        # Alternate delete waves (dropping live fraction below 1/2) with
        # insert/update waves, checking parity after every wave.
        for wave in range(6):
            identifiers = database.ids()
            if wave % 2 == 0:
                for identifier in identifiers[: len(identifiers) * 2 // 3]:
                    database.delete(identifier)
            else:
                for _ in range(25):
                    _mutate(rng, database, relations, 8)
            assert_matches_reference(batch)
        # At least one compaction actually fired on the batch store: the
        # initial 60 slots can only shrink through _compact (rows are
        # tombstoned in place otherwise).
        relation = batch.shards[0]._columns.relation("R0")
        slots = relation.n if backend == "numpy" else len(relation.ids)
        assert slots < 60
        batch.close()


class TestLoneVariableShapes:
    def _lone_dc(self):
        return DenialConstraint(
            [("t", "R0"), ("u", "R0"), ("v", "R1")],
            [
                Predicate(Term.col("t", "A"), ComparisonOp.EQ, Term.col("u", "A")),
                Predicate(Term.col("t", "B"), ComparisonOp.NE, Term.col("u", "B")),
                Predicate(Term.col("v", "C"), ComparisonOp.EQ, Term.const(1)),
            ],
            name="lone",
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_lone_parity_and_pin_on_lone_delta(self, backend, case_rng):
        rng = case_rng
        relations = ["R0", "R1"]
        database = Database(_schema(relations))
        for _ in range(40):
            database.insert(_random_fact(rng, rng.choice(relations), 4))
        dc = self._lone_dc()
        batch = MeasurementSession([dc], database, vector_backend=backend)
        assert_matches_reference(batch)
        # Mutations confined to the lone variable's relation seed the
        # delta pass on the keyless pin.
        r1_ids = [
            identifier
            for identifier, fact in database.items()
            if fact.relation == "R1"
        ]
        for k, identifier in enumerate(r1_ids[:6]):
            if k % 2 == 0:
                database.update(identifier, "C", 1 if k % 4 == 0 else 3)
            else:
                database.delete(identifier)
            assert_matches_reference(batch)
        for _ in range(4):
            database.insert(Fact("R1", (2, 2, 1)))
            assert_matches_reference(batch)
        assert batch.stats()["constraints"][0]["delta_runs"] >= 1
        batch.close()


class TestBackendSelection:
    def test_make_column_store(self):
        schema = _schema(["R0"])
        assert make_column_store(schema, "list").backend == "list"
        assert isinstance(make_column_store(schema, "list"), ColumnStore)
        if HAS_NUMPY:
            assert make_column_store(schema, "numpy").backend == "numpy"
        with pytest.raises(ValueError, match="unknown column backend"):
            make_column_store(schema, "duckdb")

    def test_detect_backend_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VECTOR", "list")
        assert _detect_backend() == "list"
        monkeypatch.setenv("REPRO_VECTOR", "banana")
        with pytest.raises(ValueError, match="REPRO_VECTOR"):
            _detect_backend()
        if HAS_NUMPY:
            monkeypatch.setenv("REPRO_VECTOR", "numpy")
            assert _detect_backend() == "numpy"

    def test_detect_backend_without_numpy(self, monkeypatch):
        """Simulate the numpy-absent install: auto falls back, numpy raises."""
        monkeypatch.setitem(sys.modules, "numpy", None)
        monkeypatch.setenv("REPRO_VECTOR", "auto")
        assert _detect_backend() == "list"
        monkeypatch.setenv("REPRO_VECTOR", "numpy")
        with pytest.raises(RuntimeError, match="numpy is not importable"):
            _detect_backend()

    def test_stats_surface_backend(self, case_rng):
        rng = case_rng
        database = Database(_schema(["R0"]))
        for _ in range(10):
            database.insert(_random_fact(rng, "R0", 4))
        dc = DenialConstraint(
            [("t", "R0"), ("t2", "R0")],
            [
                Predicate(Term.col("t", "A"), ComparisonOp.EQ, Term.col("t2", "A")),
                Predicate(Term.col("t", "B"), ComparisonOp.NE, Term.col("t2", "B")),
            ],
            name="fd",
        )
        for backend in BACKENDS:
            session = MeasurementSession([dc], database, vector_backend=backend)
            stats = session.stats()
            assert stats["vector_backend"] == backend
            assert stats["constraints"][0]["backend"] == backend
            session.close()
