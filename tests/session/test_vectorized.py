"""numpy kernels == list kernels == probe, bit-for-bit.

The vectorized column backend (:mod:`repro.session.vectorized`) is held to
the same differential contract as the batch engine itself: over randomized
DC sets and interleaved histories, sessions running the numpy-backed store
must maintain witness sets identical to both the list-backed store and the
probe reference — across cold builds, delta maintenance, speculation,
sharding and warm starts.  On top of the 3-way sweeps, targeted suites pin
the hazards the dtype ladder and dictionary encoding introduce: None/NaN
cells, bool columns, > 2**53 integers against floats, mixed str/int
columns, dictionary-code stability across savepoint rollback, and
live-fraction compaction.  Everything runs on whatever backends the
process has: the without-numpy CI leg skips the numpy half and still
exercises the fallback path.
"""

from __future__ import annotations

import importlib.util
import math
import sys

import pytest

from repro.constraints.base import ComparisonOp
from repro.constraints.dc import DenialConstraint, Predicate, Term
from repro.relational import Database, Fact, Schema
from repro.session import (
    MeasurementSession,
    batch_compilable,
    make_column_store,
    make_session,
)
from repro.session.columnar import ColumnStore, _detect_backend

from .test_setbased import (
    _assert_identical,
    _mutate,
    _random_fact,
    _random_instance,
    _random_value,
    _schema,
)

HAS_NUMPY = importlib.util.find_spec("numpy") is not None

#: Column backends available in this process ("list" always is).
BACKENDS = ["list"] + (["numpy"] if HAS_NUMPY else [])

needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")


def _mirror(database: Database) -> Database:
    copy = Database(database.schema)
    for _, fact in database.items():
        copy.insert(Fact(fact.relation, fact.values))
    return copy


def _parity_sessions(database: Database, dcs):
    """(probe, [batch-on-backend...]) sessions over mirrored databases."""
    probe = MeasurementSession(dcs, database, engine="probe")
    batches = [
        MeasurementSession(
            dcs, _mirror(database), engine="auto", vector_backend=backend
        )
        for backend in BACKENDS
    ]
    return probe, batches


def _facts_parity(schema: Schema, rows: dict[str, list[tuple]], dcs) -> None:
    """Assert 3-way witness parity over an explicit instance."""
    database = Database(schema)
    for relation, tuples in rows.items():
        for values in tuples:
            database.insert(Fact(relation, values))
    probe, batches = _parity_sessions(database, dcs)
    for session in batches:
        _assert_identical(probe, session)
        session.close()
    probe.close()


class TestThreeWayParity:
    @pytest.mark.parametrize("case", range(4))
    def test_cold(self, case, case_rng):
        rng = case_rng
        _, _, _, database, dcs = _random_instance(rng, rng.randint(20, 80))
        probe, batches = _parity_sessions(database, dcs)
        for session in batches:
            _assert_identical(probe, session)
            session.close()
        probe.close()

    @pytest.mark.parametrize("case", range(3))
    def test_interleaved_histories(self, case, case_rng):
        rng = case_rng
        _, relations, spread, database, dcs = _random_instance(
            rng, rng.randint(15, 40)
        )
        probe, batches = _parity_sessions(database, dcs)
        databases = [database] + [session.database for session in batches]
        for step in range(rng.randint(20, 40)):
            state = rng.getstate()
            for mutated in databases:
                rng.setstate(state)
                _mutate(rng, mutated, relations, spread)
            if step % 5 == 0:
                for session in batches:
                    _assert_identical(probe, session)
        for session in batches:
            _assert_identical(probe, session)
            session.close()
        probe.close()

    @pytest.mark.parametrize("case", range(2))
    def test_speculation(self, case, case_rng):
        from repro.measures import make_measure
        from repro.repairs.operations import DeleteOperation, UpdateOperation

        rng = case_rng
        _, relations, spread, database, dcs = _random_instance(
            rng, rng.randint(15, 40)
        )
        probe, batches = _parity_sessions(database, dcs)
        measure = make_measure("I_MI")
        for _ in range(3):
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
            expected = probe.speculate_batch(candidates, [measure])
            for session in batches:
                assert session.speculate_batch(candidates, [measure]) == expected
            state = rng.getstate()
            for mutated in [database] + [s.database for s in batches]:
                rng.setstate(state)
                _mutate(rng, mutated, relations, spread)
        for session in batches:
            _assert_identical(probe, session)
            session.close()
        probe.close()

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
            engine="batch",
            vector_backend=backend,
        )
        probe = MeasurementSession(constraints, database, engine="probe")
        assert sharded.index().mi_sets == probe.index().mi_sets
        assert sharded.stats()["vector_backend"] == backend
        for _ in range(15):
            _mutate(rng, database, relations, 6)
        assert sharded.index().mi_sets == probe.refresh().mi_sets
        sharded.close()
        probe.close()

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
            [dc], database, engine="batch", vector_backend=snap_backend
        ) as source:
            snap = source.snapshot()
        for backend in BACKENDS:
            mirrored = _mirror(database)
            session = MeasurementSession(
                [dc],
                mirrored,
                engine="batch",
                vector_backend=backend,
                warm_start=snap,
            )
            assert session.warm_started
            assert session.stats()["constraints"][0]["cold_runs"] == 0
            reference = MeasurementSession([dc], mirrored, engine="probe")
            _assert_identical(reference, session)
            for _ in range(10):
                _mutate(rng, mirrored, relations, 5)
            reference.refresh()
            _assert_identical(reference, session)
            assert session.stats()["constraints"][0]["delta_runs"] >= 1
            session.close()
            reference.close()


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
        # Each NaN cell is a fresh object: the probe reference's hash
        # index keys buckets by dict equality, where an *identical* NaN
        # object would compare equal to itself (the container identity
        # shortcut) against ``==`` semantics — distinct objects keep both
        # references on the IEEE behavior the kernels implement.
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
        probe, batches = _parity_sessions(database, dcs)
        databases = [database] + [session.database for session in batches]
        odd_values = [2.5, "x", float("nan"), 2**60, None, True]
        for step, value in enumerate(odd_values * 3):
            state = rng.getstate()
            for mutated in databases:
                rng.setstate(state)
                identifier = rng.choice(mutated.ids())
                mutated.update(identifier, rng.choice(["A", "B", "C"]), value)
            for session in batches:
                _assert_identical(probe, session)
        for session in batches:
            session.close()
        probe.close()


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
        session = MeasurementSession(
            [dc], database, engine="batch", vector_backend="numpy"
        )
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
        # The rolled-back store still answers identically to a fresh probe.
        reference = MeasurementSession([dc], database, engine="probe")
        _assert_identical(reference, session)
        session.close()
        reference.close()

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
        probe = MeasurementSession([dc], database, engine="probe")
        batch = MeasurementSession(
            [dc],
            _mirror(database),
            engine="batch",
            vector_backend=backend,
        )
        databases = [database, batch.database]
        # Alternate delete waves (dropping live fraction below 1/2) with
        # insert/update waves, checking parity after every wave.
        for wave in range(6):
            state = rng.getstate()
            for mutated in databases:
                rng.setstate(state)
                identifiers = mutated.ids()
                if wave % 2 == 0:
                    for identifier in identifiers[: len(identifiers) * 2 // 3]:
                        mutated.delete(identifier)
                else:
                    for _ in range(25):
                        _mutate(rng, mutated, relations, 8)
            _assert_identical(probe, batch)
        # At least one compaction actually fired on the batch store: the
        # initial 60 slots can only shrink through _compact (rows are
        # tombstoned in place otherwise).
        relation = batch.shards[0]._columns.relation("R0")
        slots = relation.n if backend == "numpy" else len(relation.ids)
        assert slots < 60
        probe.close()
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

    def test_compilable_classification(self):
        assert batch_compilable(self._lone_dc())
        # Width-2, both variables constant-bound only: still one lone
        # disconnected variable — eligible.
        both_const = DenialConstraint(
            [("t", "R0"), ("s", "R1")],
            [
                Predicate(Term.col("t", "B"), ComparisonOp.GT, Term.const(2)),
                Predicate(Term.col("s", "C"), ComparisonOp.EQ, Term.const(1)),
            ],
            name="both_const",
        )
        assert batch_compilable(both_const)
        # A cross-variable inequality binds both components: not eligible.
        crossing = DenialConstraint(
            [("t", "R0"), ("t2", "R0")],
            [
                Predicate(Term.col("t", "B"), ComparisonOp.LT, Term.col("t2", "B")),
                Predicate(Term.col("t", "C"), ComparisonOp.EQ, Term.const(1)),
                Predicate(Term.col("t2", "C"), ComparisonOp.EQ, Term.const(2)),
            ],
            name="crossing",
        )
        assert not batch_compilable(crossing)
        # Three components stay out of scope.
        three = DenialConstraint(
            [("t", "R0"), ("u", "R0"), ("v", "R1")],
            [
                Predicate(Term.col("t", "B"), ComparisonOp.EQ, Term.const(1)),
                Predicate(Term.col("u", "B"), ComparisonOp.EQ, Term.const(2)),
                Predicate(Term.col("v", "C"), ComparisonOp.EQ, Term.const(3)),
            ],
            name="three",
        )
        assert not batch_compilable(three)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_lone_parity_and_pin_on_lone_delta(self, backend, case_rng):
        rng = case_rng
        relations = ["R0", "R1"]
        database = Database(_schema(relations))
        for _ in range(40):
            database.insert(_random_fact(rng, rng.choice(relations), 4))
        dc = self._lone_dc()
        probe = MeasurementSession([dc], database, engine="probe")
        batch = MeasurementSession(
            [dc],
            _mirror(database),
            engine="batch",
            vector_backend=backend,
        )
        assert batch.stats()["constraints"][0]["engine"] == "batch"
        _assert_identical(probe, batch)
        # Mutations confined to the lone variable's relation seed the
        # delta pass on the keyless pin.
        r1_ids = [
            identifier
            for identifier, fact in database.items()
            if fact.relation == "R1"
        ]
        for k, identifier in enumerate(r1_ids[:6]):
            for mutated in (database, batch.database):
                if k % 2 == 0:
                    mutated.update(identifier, "C", 1 if k % 4 == 0 else 3)
                else:
                    mutated.delete(identifier)
            _assert_identical(probe, batch)
        for _ in range(4):
            value = (2, 2, 1)
            for mutated in (database, batch.database):
                mutated.insert(Fact("R1", value))
            _assert_identical(probe, batch)
        assert batch.stats()["constraints"][0]["delta_runs"] >= 1
        probe.close()
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
            session = MeasurementSession(
                [dc],
                database,
                engine="batch",
                vector_backend=backend,
            )
            stats = session.stats()
            assert stats["vector_backend"] == backend
            assert stats["constraints"][0]["backend"] == backend
            session.close()
        probe = MeasurementSession([dc], database, engine="probe")
        stats = probe.stats()
        assert stats["vector_backend"] is None
        assert stats["constraints"][0]["backend"] is None
        probe.close()
