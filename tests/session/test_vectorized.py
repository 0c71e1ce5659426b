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
from typing import Iterator

import pytest

from repro.constraints.base import ComparisonOp
from repro.constraints.dc import DenialConstraint, Predicate, Term
from repro.datasets import DATASET_ORDER
from repro.relational import Database, Fact, Schema
from repro.session import (
    MeasurementSession,
    make_column_store,
    make_session,
)
from repro.session.columnar import ColumnStore, _detect_backend
from repro.testing.layout import column_backend

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


def _sessions(database: Database, dcs) -> Iterator[MeasurementSession]:
    """One session per available backend, each over its own mirror of
    *database* and open while its backend's block is."""
    for backend in BACKENDS:
        with column_backend(backend):
            with MeasurementSession(dcs, _mirror(database)) as session:
                yield session


def _facts_parity(schema: Schema, rows: dict[str, list[tuple]], dcs) -> None:
    """Assert cross-backend and oracle parity over an explicit instance."""
    database = Database(schema)
    for relation, tuples in rows.items():
        for values in tuples:
            database.insert(Fact(relation, values))
    for session in _sessions(database, dcs):
        assert_matches_reference(session)


class TestBackendParity:
    @pytest.mark.parametrize("case", range(4))
    def test_cold(self, case, case_rng):
        rng = case_rng
        _, _, _, database, dcs = _random_instance(rng, rng.randint(20, 80))
        for session in _sessions(database, dcs):
            assert_matches_reference(session)

    @pytest.mark.parametrize("case", range(3))
    def test_interleaved_histories(self, case, case_rng):
        rng = case_rng
        _, relations, spread, database, dcs = _random_instance(
            rng, rng.randint(15, 40)
        )
        steps = rng.randint(20, 40)
        # Every backend replays the same history from the same stream.
        start = rng.getstate()
        for session in _sessions(database, dcs):
            rng.setstate(start)
            for step in range(steps):
                _mutate(rng, session.database, relations, spread)
                if step % 5 == 0:
                    assert_matches_reference(session)
            assert_matches_reference(session)

    @pytest.mark.parametrize("case", range(2))
    def test_speculation(self, case, case_rng):
        from repro.measures import make_measure
        from repro.repairs.operations import DeleteOperation, UpdateOperation

        rng = case_rng
        _, relations, spread, database, dcs = _random_instance(
            rng, rng.randint(15, 40)
        )
        measure = make_measure("I_MI")
        # Every backend replays the same rounds from the same stream.
        start = rng.getstate()
        for session in _sessions(database, dcs):
            rng.setstate(start)
            for _ in range(3):
                identifiers = session.database.ids()
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
                _mutate(rng, session.database, relations, spread)
            assert_matches_reference(session)

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
        with column_backend(backend), make_session(constraints, database) as sharded:
            assert_matches_reference(sharded)
            assert sharded.stats()["vector_backend"] == backend
            for _ in range(15):
                _mutate(rng, database, relations, 6)
            assert_matches_reference(sharded)

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
        with column_backend(snap_backend):
            with MeasurementSession([dc], database) as source:
                snap = source.snapshot()
        for backend in BACKENDS:
            mirrored = _mirror(database)
            with column_backend(backend):
                session = MeasurementSession([dc], mirrored, warm_start=snap)
                assert session.warm_started
                assert session.stats()["constraints"][0]["cold_runs"] == 0
                assert_matches_reference(session)
                for _ in range(10):
                    _mutate(rng, mirrored, relations, 5)
                assert_matches_reference(session)
                assert session.stats()["constraints"][0]["delta_runs"] >= 1
                session.close()


def _dc_pair(op_bc):
    """``t.A = s.A ∧ t.B op s.C`` over ``R`` (EQ/NE code B and C as one class)."""
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


CONSTANT_DCS = [
    DenialConstraint(
        [("t", "R")],
        [
            Predicate(Term.col("t", "B"), ComparisonOp.NE, Term.const("x")),
            Predicate(Term.col("t", "C"), ComparisonOp.GT, Term.const(1)),
        ],
        name="consts",
    )
]

# Each NaN cell is a fresh object: a dict keyed by an *identical* NaN
# object would find it by the container identity shortcut against ``==``
# semantics — the list store's key groups keep NaN out, and the
# shared-object case is pinned against the oracle in
# tests/violations/test_enumeration_conformance.py.
NONE_NAN_ROWS = [
    (1, None, 2),
    (1, float("nan"), float("nan")),
    (1, 2, None),
    (2, float("nan"), 2.0),
    (2, 2.0, float("nan")),
    (2, None, None),
    (1, 3, 2),
]

MIXED_STR_INT_ROWS = [
    (1, "x", 2),
    (1, 2, "x"),
    (1, "x", "x"),
    (2, 2, 2),
    (2, "y", 2.0),
    (2, None, "y"),
]

#: bools, > 2**63 ints and 2**53-adjacent int/float near-misses.
#: ``2**53`` and ``float(2**53)`` must compare equal while ``2**53 + 1``
#: and ``float(2**53 + 1)`` must not — the rounded float equals ``2**53``,
#: which only exact (non-f8) comparison preserves.
BOOL_BIGINT_ROWS = [
    (1, True, 1),
    (1, False, True),
    (1, 1, True),
    (2, 2**53 + 1, float(2**53 + 1)),
    (2, float(2**53), 2**53),
    (2, 2**64, 2**64 + 1),
    (3, -(2**63) - 1, 7),
    (3, 2**53 + 1, 2**53 + 1),
]

PROMOTED_CONSTANT_ROWS = [
    (1, "x", 2),
    (1, 2, 2.5),
    (1, None, None),
    (2, float("nan"), 3),
    (2, True, 2**60),
]

#: Values a column that starts ``i8`` only meets later, through updates.
LATE_VALUES = [2.5, "x", float("nan"), 2**60, None, True]


class TestDtypeEdgeCases:
    """Explicit instances that walk the i8 → f8 → obj ladder."""

    @pytest.mark.parametrize(
        "op", [ComparisonOp.EQ, ComparisonOp.NE, ComparisonOp.LT, ComparisonOp.GE]
    )
    def test_none_and_nan_cells(self, op):
        _facts_parity(_schema(["R"]), {"R": NONE_NAN_ROWS}, _dc_pair(op))

    @pytest.mark.parametrize(
        "op", [ComparisonOp.EQ, ComparisonOp.NE, ComparisonOp.LT, ComparisonOp.GE]
    )
    def test_mixed_str_int_columns(self, op):
        _facts_parity(_schema(["R"]), {"R": MIXED_STR_INT_ROWS}, _dc_pair(op))

    @pytest.mark.parametrize(
        "op", [ComparisonOp.EQ, ComparisonOp.NE, ComparisonOp.LT, ComparisonOp.GE]
    )
    def test_bool_and_bigint_cells(self, op):
        _facts_parity(_schema(["R"]), {"R": BOOL_BIGINT_ROWS}, _dc_pair(op))

    def test_constant_predicates_on_promoted_columns(self):
        _facts_parity(_schema(["R"]), {"R": PROMOTED_CONSTANT_ROWS}, CONSTANT_DCS)

    def test_late_promotion_under_updates(self, case_rng):
        """A column that starts i8 and only later sees floats/strings."""
        rng = case_rng
        database = Database(_schema(["R"]))
        for k in range(30):
            database.insert(Fact("R", (k % 5, k % 7, k % 3)))
        dcs = _dc_pair(ComparisonOp.LT)
        batches = _sessions(database, dcs)
        databases = [session.database for session in batches]
        for step, value in enumerate(LATE_VALUES * 3):
            state = rng.getstate()
            for mutated in databases:
                rng.setstate(state)
                identifier = rng.choice(mutated.ids())
                mutated.update(identifier, rng.choice(["A", "B", "C"]), value)
            for session in batches:
                assert_matches_reference(session)
        for session in batches:
            session.close()


# ----------------------------------------------------------------------
# Bulk load == event load
# ----------------------------------------------------------------------
_NAN = object()


def _cell(value):
    """An object-column cell, with every NaN mapped to one marker."""
    return _NAN if isinstance(value, float) and value != value else value


def _vector_state(store) -> dict:
    """Every field of a numpy store as plain python, groups rebuilt first.

    ``i8``/``f8`` data compare bit for bit; ``obj`` data compare by ``==``,
    because ints that went through ``f8`` before an ``obj`` promotion are
    stored as floats.
    """
    state = {}
    for name, relation in store._relations.items():
        columns = {}
        for attribute, column in relation.columns.items():
            group = column.group
            if group is not None:
                group.ensure(relation, column)
                group = (
                    group.K,
                    group.starts.tolist(),
                    group.rows.tolist(),
                    list(group.ov_codes),
                    list(group.ov_rows),
                )
            dictionary = column.dict_class
            columns[attribute] = (
                column.kind,
                column.huge,
                column.valid.tolist(),
                [_cell(value) for value in column.data]
                if column.kind == "obj"
                else column.data.tobytes(),
                None if column.codes is None else column.codes.tolist(),
                None
                if dictionary is None
                else (dict(dictionary.codes), dictionary.next_code),
                group,
            )
        state[name] = (
            relation.attributes,
            relation.n,
            relation.cap,
            relation.ids.tolist(),
            relation.live.tolist(),
            dict(relation.row_of),
            list(relation.free),
            columns,
        )
    return state


def _list_state(store) -> tuple:
    """Every field of a list store (NaN cells are shared fact objects)."""
    tables = {
        name: (
            table.attributes,
            list(table.ids),
            {attribute: list(column) for attribute, column in table.columns.items()},
            dict(table.row_of),
            list(table.free),
        )
        for name, table in store._relations.items()
    }
    groups = {
        key: {value: set(rows) for value, rows in buckets.items()}
        for key, buckets in store._groups.items()
    }
    return tables, groups


def _store_state(store):
    return _vector_state(store) if store.backend == "numpy" else _list_state(store)


def _rows_case(rows: dict[str, list[tuple]], dcs):
    def build():
        database = Database(_schema(sorted(rows)))
        # Interleave the relations, so a class spanning two of them sees
        # its cells in alternating fact order.
        for position in range(max(map(len, rows.values()))):
            for relation in sorted(rows):
                if position < len(rows[relation]):
                    database.insert(Fact(relation, rows[relation][position]))
        return database, dcs

    return build


def _dataset_case(dataset: str):
    def build():
        from repro.datasets import generate_sample
        from repro.noise import CONoise
        from repro.violations.minimal import lower_constraints

        database, constraints = generate_sample(dataset, 250, seed=48)
        CONoise(constraints, seed=7).run(database, len(database) // 50)
        return database, lower_constraints(constraints, database.schema)

    return build


def _cross_class_dcs():
    """Equalities putting ``R0.A``, ``R0.B`` and ``R1.B`` in one join class."""
    return [
        DenialConstraint(
            [("t", "R0"), ("u", "R1")],
            [
                Predicate(Term.col("t", "A"), ComparisonOp.EQ, Term.col("u", "B")),
                Predicate(Term.col("t", "C"), ComparisonOp.LT, Term.col("u", "C")),
            ],
            name="cross",
        ),
        DenialConstraint(
            [("t", "R0"), ("s", "R0")],
            [
                Predicate(Term.col("t", "A"), ComparisonOp.EQ, Term.col("s", "B")),
                Predicate(Term.col("t", "C"), ComparisonOp.NE, Term.col("s", "C")),
            ],
            name="within",
        ),
    ]


BULK_CASES = {
    **{f"dataset-{name}": _dataset_case(name) for name in DATASET_ORDER},
    **{
        f"{label}-{op.name}": _rows_case({"R": rows}, _dc_pair(op))
        for label, rows in (
            ("none-nan", NONE_NAN_ROWS),
            ("mixed-str-int", MIXED_STR_INT_ROWS),
            ("bool-bigint", BOOL_BIGINT_ROWS),
        )
        for op in (ComparisonOp.EQ, ComparisonOp.LT)
    },
    "promoted-constants": _rows_case({"R": PROMOTED_CONSTANT_ROWS}, CONSTANT_DCS),
    # 64 facts fill the first allocation exactly: one more slot would double.
    "late-promotion": _rows_case(
        {"R": [(k % 5, k % 7, k % 3) for k in range(64)]}, _dc_pair(ComparisonOp.LT)
    ),
    "huge-then-float": _rows_case(
        {"R": [(1, 2**60, 1), (1, 1.5, 2), (2, 3, 2**60)]}, _dc_pair(ComparisonOp.LT)
    ),
    "float-then-huge": _rows_case(
        {"R": [(1, 1.5, 1), (1, 2**60, 2), (2, 3, 2**60)]}, _dc_pair(ComparisonOp.LT)
    ),
    "beyond-int64": _rows_case(
        {"R": [(1, 5, 2**64), (1, -(2**64), 3), (2, 2**63, 2**63 - 1)]},
        _dc_pair(ComparisonOp.EQ),
    ),
    "bools": _rows_case(
        {"R": [(1, True, False), (1, False, 1), (2, 1, True), (True, 0, 0)]},
        _dc_pair(ComparisonOp.EQ),
    ),
    "null-only": _rows_case(
        {"R": [(1, None, None), (1, None, None), (2, None, None)]},
        _dc_pair(ComparisonOp.NE),
    ),
    "join-classes": _rows_case(
        {
            # Each column meets the class's values in a different order
            # than the facts do, so column-by-column codes would differ.
            "R0": [((5 * k) % 11, (3 * k + 7) % 11, k % 3) for k in range(12)],
            "R1": [(k, (7 * k + 4) % 13, (k * 7) % 4) for k in range(12)],
        },
        _cross_class_dcs(),
    ),
}


def _event_built(dcs, database):
    """An empty store fed one insert event per fact, in fact-id order."""
    from repro.relational.database import ChangeEvent
    from repro.session import build_enumerators

    enumerators, store = build_enumerators(dcs, Database(database.schema))
    for identifier, fact in database.items():
        store.apply(ChangeEvent("insert", identifier, None, fact))
    return enumerators, store


def _random_delta(rng, database) -> int:
    """One random insert, delete or update; returns the touched fact id."""
    identifiers = database.ids()
    roll = rng.random()
    if roll < 0.45:
        identifier = rng.choice(identifiers)
        fact = database[identifier]
        attribute = rng.choice(database.schema.signature(fact.relation).attributes)
        if rng.random() < 0.7:
            donor = database[rng.choice(identifiers)]
            value = donor.values[rng.randrange(len(donor.values))]
        else:
            value = rng.choice(LATE_VALUES)
        database.update(identifier, attribute, value)
        return identifier
    if roll < 0.75 and len(identifiers) > 2:
        identifier = rng.choice(identifiers)
        database.delete(identifier)
        return identifier
    source = database[rng.choice(identifiers)]
    return database.insert(Fact(source.relation, source.values))


class TestBulkLoad:
    """``build`` (one columnar load) == one ``apply(insert)`` per fact."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("case", sorted(BULK_CASES))
    def test_bulk_equals_event_built(self, case, backend, case_rng, monkeypatch):
        from repro.session import build_enumerators

        # Small compaction floors let the delete-heavy stream compact both
        # stores mid-stream, at the same events.
        monkeypatch.setattr(ColumnStore, "COMPACT_MIN_SLOTS", 8)
        if HAS_NUMPY:
            from repro.session.vectorized import VectorColumnStore

            monkeypatch.setattr(VectorColumnStore, "COMPACT_MIN_SLOTS", 8)
        rng = case_rng
        database, dcs = BULK_CASES[case]()
        with column_backend(backend):
            bulk_enumerators, bulk = build_enumerators(dcs, database)
            event_enumerators, evented = _event_built(dcs, database)
        assert bulk.backend == evented.backend == backend
        assert _store_state(bulk) == _store_state(evented)
        database.subscribe(bulk.apply)
        database.subscribe(evented.apply)
        dirty: set[int] = set()
        for step in range(1, 61):
            dirty.add(_random_delta(rng, database))
            if step % 15:
                continue
            assert _store_state(bulk) == _store_state(evented)
            for left, right in zip(bulk_enumerators, event_enumerators):
                assert left.cold(database) == right.cold(database)
                assert left.delta(database, dirty) == right.delta(database, dirty)
            dirty.clear()

    @needs_numpy
    @pytest.mark.parametrize(
        "values, huge", [((2**60, 1.5), True), ((1.5, 2**60), False)]
    )
    def test_ladder_order(self, values, huge):
        """The kind ladder is order-dependent, and the bulk load keeps it."""
        from repro.session import build_enumerators

        database = Database(_schema(["R"]))
        for value in values:
            database.insert(Fact("R", (1, value, 0)))
        with column_backend("numpy"):
            _, store = build_enumerators(_dc_pair(ComparisonOp.LT), database)
        column = store.column("R", "B")
        assert (column.kind, column.huge) == ("obj", huge)


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
        with column_backend("numpy"), MeasurementSession([dc], database) as session:
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
            # The rolled-back store still answers identically to a fresh
            # build.
            assert_matches_reference(session)

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
        with column_backend(backend), MeasurementSession([dc], database) as batch:
            # Alternate delete waves (dropping live fraction below 1/2)
            # with insert/update waves, checking parity after every wave.
            for wave in range(6):
                identifiers = database.ids()
                if wave % 2 == 0:
                    for identifier in identifiers[: len(identifiers) * 2 // 3]:
                        database.delete(identifier)
                else:
                    for _ in range(25):
                        _mutate(rng, database, relations, 8)
                assert_matches_reference(batch)
            # At least one compaction actually fired on the batch store:
            # the initial 60 slots can only shrink through _compact (rows
            # are tombstoned in place otherwise).
            relation = batch.shards[0]._columns.relation("R0")
            slots = relation.n if backend == "numpy" else len(relation.ids)
            assert slots < 60


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
        with column_backend(backend), MeasurementSession([dc], database) as batch:
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


class TestBackendSelection:
    """The backend is derived, never passed: numpy when it imports."""

    def test_make_column_store_follows_the_constant(self):
        schema = _schema(["R0"])
        for backend in BACKENDS:
            with column_backend(backend):
                assert make_column_store(schema).backend == backend
        with column_backend("list"):
            assert isinstance(make_column_store(schema), ColumnStore)

    def test_detect_backend(self):
        assert _detect_backend() == ("numpy" if HAS_NUMPY else "list")

    def test_detect_backend_without_numpy(self, monkeypatch):
        """Simulate the numpy-absent install: detection falls back."""
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert _detect_backend() == "list"

    def test_no_layout_options(self):
        database = Database(_schema(["R"]))
        dcs = _dc_pair(ComparisonOp.NE)
        with pytest.raises(ValueError, match="only 'auto'"):
            make_session(dcs, database, shards=[("R",)])
        with pytest.raises(TypeError):
            MeasurementSession(dcs, database, [("R",)])
        with pytest.raises(TypeError):
            MeasurementSession(dcs, database, vector_backend="list")
        with make_session(dcs, database, shards="auto") as session:
            assert session.relation_groups == [("R",)]

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
            with column_backend(backend), MeasurementSession([dc], database) as session:
                stats = session.stats()
                assert stats["vector_backend"] == backend
                assert stats["constraints"][0]["backend"] == backend
