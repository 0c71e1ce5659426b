"""numpy kernels == list kernels, bit-for-bit.

The vectorized column backend (:mod:`repro.session.vectorized`) is held to
the same differential contract as the list backend: over randomized DC
sets and interleaved histories, sessions running either store must
maintain witness sets identical to a fresh cold build on the other
backend — across cold builds, delta maintenance, speculation, multi-relation sessions and
warm starts.  On top of the parity sweeps, targeted suites pin
the hazards the dtype ladder and dictionary encoding introduce: None/NaN
cells, bool columns, > 2**53 integers against floats, mixed str/int
columns, dictionary-code stability across savepoint rollback, and
live-fraction compaction.  The histories run on both sides of the numpy
store's scalar crossover (``SCALAR_DELTA_ROWS`` patched to 0 and to a
huge value, the ``crossover`` fixture), and after each one the numpy
store's arrays must equal the list store it owns, row by row, and every
indexed group a from-scratch reindex (:func:`assert_store_consistent`).
Everything runs on whatever backends the process has: the without-numpy
CI leg skips the numpy half and still exercises the fallback path.
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
from repro.session.enumeration import group_by_relation
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

#: ``SCALAR_DELTA_ROWS`` on each side of the numpy store's crossover: 0
#: sends every delta to the numpy kernels, a huge value every one to the
#: list kernels over the list store it owns.  Without numpy there is one
#: side.
CROSSOVER = (
    {"numpy-kernels": 0, "scalar-kernels": 1 << 30}
    if HAS_NUMPY
    else {"list-store": None}
)


@pytest.fixture(params=sorted(CROSSOVER))
def crossover(request, monkeypatch) -> str:
    """Run the test on one side of the numpy store's scalar crossover."""
    if HAS_NUMPY:
        import repro.session.vectorized as vectorized

        monkeypatch.setattr(
            vectorized, "SCALAR_DELTA_ROWS", CROSSOVER[request.param]
        )
    return request.param


def _nan_marked(value):
    return "NaN" if isinstance(value, float) and value != value else value


def _reindexed(table, attribute: str) -> dict:
    """A key column's ``value → rows`` group, from scratch: the live rows
    of *table* by joinable value (no NULL, no NaN)."""
    buckets: dict = {}
    for row, (identifier, value) in enumerate(
        zip(table.ids, table.columns[attribute])
    ):
        if identifier is not None and value is not None and value == value:
            buckets.setdefault(value, set()).add(row)
    return buckets


def _decoded(column, n: int) -> list:
    """The first *n* cells of a numpy column as python values."""
    if column.kind == "obj":
        return list(column.data[:n])
    cast = int if column.kind == "i8" else float
    return [
        cast(value) if valid else None
        for value, valid in zip(column.data[:n].tolist(), column.valid[:n])
    ]


def assert_store_consistent(store) -> None:
    """Every group a list store has indexed equals a from-scratch reindex
    of its column; on a numpy store, that holds for the owned list store
    and the arrays equal it row by row: ids with ``None`` exactly in the
    dead slots, data and validity against the list values, codes against
    the dictionary's ``probe`` of each value."""
    if store is None:
        return
    lists = store.lists if store.backend == "numpy" else store
    for (name, attribute), buckets in lists._groups.items():
        assert buckets == _reindexed(lists.relation(name), attribute)
    if store.backend != "numpy":
        return
    for name, relation in store._relations.items():
        table = lists.relation(name)
        n = relation.n
        assert relation.table is table
        assert [
            identifier if alive else None
            for identifier, alive in zip(
                relation.ids[:n].tolist(), relation.live[:n].tolist()
            )
        ] == table.ids
        for attribute, column in relation.columns.items():
            values = table.columns[attribute]
            assert column.values is values
            assert column.valid[:n].tolist() == [value is not None for value in values]
            assert list(map(_nan_marked, _decoded(column, n))) == list(
                map(_nan_marked, values)
            )
            if column.codes is not None:
                assert column.codes[:n].tolist() == [
                    column.dict_class.probe(value) for value in values
                ]


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
                assert_store_consistent(session._columns)


def _facts_parity(schema: Schema, rows: dict[str, list[tuple]], dcs) -> None:
    """Assert cross-backend and oracle parity over an explicit instance."""
    database = Database(schema)
    for relation, tuples in rows.items():
        for values in tuples:
            database.insert(Fact(relation, values))
    for session in _sessions(database, dcs):
        assert_matches_reference(session)


@pytest.mark.usefixtures("crossover")
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
    def test_multi_relation(self, backend, case_rng):
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
        with column_backend(backend), make_session(constraints, database) as session:
            assert_matches_reference(session)
            assert session.stats()["vector_backend"] == backend
            for _ in range(15):
                _mutate(rng, database, relations, 6)
            assert_matches_reference(session)
            assert_store_consistent(session._columns)

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
                assert_store_consistent(session._columns)
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


@pytest.mark.usefixtures("crossover")
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
            assert_store_consistent(session._columns)
            session.close()


# ----------------------------------------------------------------------
# Bulk load == event load
# ----------------------------------------------------------------------
_NAN = object()


def _cell(value):
    """An object-column cell, with every NaN mapped to one marker."""
    return _NAN if isinstance(value, float) and value != value else value


def _vector_state(store) -> dict:
    """Every field of a numpy store as plain python, groups rebuilt first,
    with its owned list store's (:func:`_list_state`).

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
                    {code: list(rows) for code, rows in group.overlay.items()},
                    group.ov_size,
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
            relation.n,
            relation.cap,
            relation.ids.tolist(),
            relation.live.tolist(),
            columns,
        )
    return state, _list_state(store.lists)


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


@pytest.mark.usefixtures("crossover")
class TestBulkLoad:
    """``build`` (one columnar load) == one ``apply(insert)`` per fact."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("case", sorted(BULK_CASES))
    def test_bulk_equals_event_built(self, case, backend, case_rng, monkeypatch):
        from repro.session import build_enumerators

        # Small compaction floors let the delete-heavy stream compact both
        # stores mid-stream, at the same events.
        monkeypatch.setattr(ColumnStore, "COMPACT_MIN_SLOTS", 8)
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
            assert_store_consistent(bulk)
            for left, right in zip(bulk_enumerators, event_enumerators):
                assert left.cold(database) == right.cold(database)
                by_relation = group_by_relation(database, dirty)
                assert left.delta(by_relation) == right.delta(by_relation)
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


@pytest.mark.usefixtures("crossover")
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
            store = session._columns
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
            assert_store_consistent(store)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_compaction_preserves_parity(self, backend, case_rng, monkeypatch):
        """Delete-heavy histories cross the live-fraction threshold."""
        monkeypatch.setattr(ColumnStore, "COMPACT_MIN_SLOTS", 16)
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
                assert_store_consistent(batch._columns)
            # At least one compaction actually fired on the batch store:
            # the initial 60 slots can only shrink through _compact (rows
            # are tombstoned in place otherwise).
            relation = batch._columns.relation("R0")
            slots = relation.n if backend == "numpy" else len(relation.ids)
            assert slots < 60


@pytest.mark.usefixtures("crossover")
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
            assert_store_consistent(batch._columns)
            assert batch.stats()["constraints"][0]["delta_runs"] >= 1


def _fd_dc(relation: str = "R0") -> DenialConstraint:
    return DenialConstraint(
        [("t", relation), ("t2", relation)],
        [
            Predicate(Term.col("t", "A"), ComparisonOp.EQ, Term.col("t2", "A")),
            Predicate(Term.col("t", "B"), ComparisonOp.NE, Term.col("t2", "B")),
        ],
        name="fd",
    )


#: ``t.A = s.A ∧ t.B = s.B ∧ t.C ≠ s.C``: two keys, so a step intersects
#: the buckets of both (the list backend's ``join_multi``).
TWO_KEY_DC = DenialConstraint(
    [("t", "R0"), ("s", "R0")],
    [
        Predicate(Term.col("t", "A"), ComparisonOp.EQ, Term.col("s", "A")),
        Predicate(Term.col("t", "B"), ComparisonOp.EQ, Term.col("s", "B")),
        Predicate(Term.col("t", "C"), ComparisonOp.NE, Term.col("s", "C")),
    ],
    name="two_keys",
)

#: No equality at all: every step is a cross step.
DOMINANCE_DC = DenialConstraint(
    [("t", "R0"), ("s", "R0")],
    [
        Predicate(Term.col("t", "A"), ComparisonOp.LT, Term.col("s", "A")),
        Predicate(Term.col("t", "B"), ComparisonOp.GT, Term.col("s", "B")),
    ],
    name="dominance",
)


class TestScalarDeltaPath:
    """The numpy store's small deltas run the list kernels over its owned
    list store; both sides of the crossover stay equal to cold builds."""

    @needs_numpy
    def test_counters_name_the_kernels(self, case_rng):
        """A one-fact drain is a scalar run; a batch above the constant is
        a numpy run; the list store never counts one."""
        from repro.session.vectorized import SCALAR_DELTA_ROWS

        rng = case_rng
        for backend in BACKENDS:
            database = Database(_schema(["R0"]))
            for _ in range(30):
                database.insert(_random_fact(rng, "R0", 6))
            with column_backend(backend), MeasurementSession(
                [_fd_dc()], database
            ) as session:
                database.insert(_random_fact(rng, "R0", 6))
                session.index()
                stats = session.stats()["constraints"][0]
                assert stats["delta_runs"] == 1
                assert stats["scalar_delta_runs"] == (backend == "numpy")
                for _ in range(SCALAR_DELTA_ROWS + 1):
                    database.insert(_random_fact(rng, "R0", 6))
                session.index()
                stats = session.stats()["constraints"][0]
                assert stats["delta_runs"] == 2
                assert stats["scalar_delta_runs"] == (backend == "numpy")
                assert_matches_reference(session)

    @pytest.mark.parametrize("dc", [TWO_KEY_DC, DOMINANCE_DC], ids=lambda dc: dc.name)
    def test_histories_by_step_shape(self, dc, crossover, case_rng):
        """Multi-key hash steps and cross steps under random histories."""
        rng = case_rng
        database = Database(_schema(["R0"]))
        for _ in range(30):
            database.insert(_random_fact(rng, "R0", 4))
        start = rng.getstate()
        for session in _sessions(database, [dc]):
            rng.setstate(start)
            for step in range(40):
                _mutate(rng, session.database, ["R0"], 4)
                if step % 4 == 0:
                    assert_matches_reference(session)
            assert_matches_reference(session)

    def test_revived_slots_and_overlay_rebuilds(
        self, crossover, case_rng, monkeypatch
    ):
        """Deleted rows are revived by inserts and the overlay outgrows a
        tiny floor, so the CSR rebuilds between deltas while revived rows
        sit in both its buckets and the overlay."""
        if HAS_NUMPY:
            from repro.session.vectorized import CodeGroup

            monkeypatch.setattr(CodeGroup, "OVERLAY_MIN", 2)
        rng = case_rng
        database = Database(_schema(["R0"]))
        for _ in range(24):
            database.insert(_random_fact(rng, "R0", 4))
        start = rng.getstate()
        for session in _sessions(database, [_fd_dc(), TWO_KEY_DC]):
            rng.setstate(start)
            db = session.database
            for wave in range(6):
                for identifier in rng.sample(db.ids(), 4):
                    db.delete(identifier)
                assert_matches_reference(session)
                for _ in range(5):
                    db.insert(_random_fact(rng, "R0", 4))
                assert_matches_reference(session)
                identifier = rng.choice(db.ids())
                db.update(identifier, "A", rng.randint(0, 4))
                assert_matches_reference(session)


class TestGroupContract:
    def test_groups_are_indexed_on_demand(self, case_rng, monkeypatch):
        """A one-shot detection on the numpy store leaves its list store
        with no group indexed; a key registered after the build is indexed
        from the live rows, as a from-scratch reindex of the column."""
        from repro.datasets import generate_sample
        from repro.measures import make_measure
        from repro.noise import CONoise
        from repro.violations import build_violation_index

        if HAS_NUMPY:
            from repro.session.vectorized import VectorColumnStore

            built = []
            build = VectorColumnStore.build

            def recording_build(store, database):
                built.append(store)
                build(store, database)

            monkeypatch.setattr(VectorColumnStore, "build", recording_build)
            database, constraints = generate_sample("Tax", 120, seed=48)
            CONoise(constraints, seed=7).run(database, 5)
            with column_backend("numpy"):
                assert build_violation_index(constraints, database).mi_sets
                assert make_measure("I_MI").value(constraints, database) > 0
            assert len(built) == 2
            assert all(store.lists._groups == {} for store in built)

        rng = case_rng
        database = Database(_schema(["R0"]))
        for _ in range(40):
            database.insert(_random_fact(rng, "R0", 5))
        late = ColumnStore(database.schema)
        early = ColumnStore(database.schema)
        late.register("R0", ("A", "B", "C"))
        early.register("R0", ("A", "B", "C"))
        early.register_key("R0", "B")
        late.build(database)
        early.build(database)
        database.subscribe(late.apply)
        database.subscribe(early.apply)
        for identifier in database.ids()[::3]:
            database.delete(identifier)
        for _ in range(10):
            _mutate(rng, database, ["R0"], 5)
        # Dead slots hold stale values: the index must skip them.
        assert None in late.ids("R0")
        late.register_key("R0", "B")
        assert late.group("R0", "B") == _reindexed(late.relation("R0"), "B")
        assert late.group("R0", "B") == early.group("R0", "B")
        # From then on the group is maintained like one registered early.
        fact = Fact("R0", database[database.ids()[0]].values)
        identifier = database.insert(fact)
        database.update(identifier, "B", 99)
        assert late.group("R0", "B") == early.group("R0", "B")
        assert late.group("R0", "B") == _reindexed(late.relation("R0"), "B")


def _subscribed_store(backend: str, database: Database, keys=()):
    """A column store over *database*'s R0 (columns A, B, C and *keys*),
    built and subscribed to its change feed."""
    with column_backend(backend):
        store = make_column_store(database.schema)
    store.register("R0", ("A", "B", "C"))
    for attribute in keys:
        store.register_key("R0", attribute)
    store.build(database)
    database.subscribe(store.apply)
    return store


def _row_table(store):
    """The list store that numbers *store*'s rows."""
    return (store.lists if store.backend == "numpy" else store).relation("R0")


def _covered(relation, column) -> dict[int, set[int]]:
    """``code → rows`` as a numpy group answers it: CSR buckets plus the
    overlay, each entry kept only when its row is live and still holds
    that code."""
    column.group.ensure(relation, column)
    group = column.group
    answered: dict[int, set[int]] = {}
    entries = [
        (code, int(row))
        for code in range(group.K)
        for row in group.rows[group.starts[code] : group.starts[code + 1]]
    ]
    entries += [(code, row) for code, rows in group.overlay.items() for row in rows]
    for code, row in entries:
        if relation.live[row] and column.codes[row] == code:
            answered.setdefault(code, set()).add(row)
    return answered


def _coded_rows(relation, column) -> dict[int, set[int]]:
    """``code → rows`` over the live, non-NULL rows, from scratch."""
    rows: dict[int, set[int]] = {}
    for row in range(relation.n):
        code = int(column.codes[row])
        if relation.live[row] and code >= 0:
            rows.setdefault(code, set()).add(row)
    return rows


class TestOwnedRows:
    """The list store numbers every row and the numpy arrays follow it:
    updates stay in place, inserts take freed slots, and a compaction of
    the list store renumbers the arrays the same way."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_update_rewrites_the_row_in_place(self, backend, case_rng):
        database = Database(_schema(["R0"]))
        for _ in range(12):
            database.insert(_random_fact(case_rng, "R0", 4))
        store = _subscribed_store(backend, database, keys=("A",))
        table = _row_table(store)
        identifier = database.ids()[5]
        row = table.row_of[identifier]
        slots = len(table.ids)
        database.update(identifier, "A", 77)
        database.update(identifier, "B", None)
        assert table.row_of[identifier] == row
        assert len(table.ids) == slots and not table.free
        assert table.columns["A"][row] == 77
        if backend == "list":
            assert row in store.group("R0", "A")[77]
        else:
            assert store.relation("R0").n == slots
            assert store.column("R0", "A").data[row] == 77
            assert not store.column("R0", "B").valid[row]
        assert_store_consistent(store)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_insert_takes_the_freed_row(self, backend, case_rng):
        database = Database(_schema(["R0"]))
        for _ in range(12):
            database.insert(_random_fact(case_rng, "R0", 4))
        store = _subscribed_store(backend, database, keys=("A",))
        table = _row_table(store)
        gone = database.ids()[3]
        row = table.row_of[gone]
        database.delete(gone)
        assert table.ids[row] is None and table.free == [row]
        if backend == "numpy":
            assert not store.relation("R0").live[row]
        assert_store_consistent(store)
        identifier = database.insert(Fact("R0", (9, "x", 2.5)))
        assert table.row_of[identifier] == row
        assert len(table.ids) == 12 and not table.free
        if backend == "numpy":
            relation = store.relation("R0")
            assert relation.n == 12
            assert relation.live[row] and relation.ids[row] == identifier
        assert_store_consistent(store)

    @needs_numpy
    def test_compaction_renumbers_the_arrays(self, case_rng, monkeypatch):
        monkeypatch.setattr(ColumnStore, "COMPACT_MIN_SLOTS", 8)
        database = Database(_schema(["R0"]))
        for _ in range(20):
            database.insert(_random_fact(case_rng, "R0", 4))
        store = _subscribed_store("numpy", database, keys=("A",))
        relation = store.relation("R0")
        column = store.column("R0", "A")
        assert _covered(relation, column) == _coded_rows(relation, column)
        survivors = database.ids()[1::3]
        for identifier in database.ids():
            if identifier not in survivors:
                database.delete(identifier)
        table = store.lists.relation("R0")
        # The list store compacted (20 slots shrank), keeping the live rows
        # in id order, and the arrays carry the same rows.
        assert relation.n == len(table.ids) < 20
        assert [i for i in table.ids if i is not None] == survivors
        assert [
            identifier
            for identifier, alive in zip(
                relation.ids[: relation.n].tolist(), relation.live.tolist()
            )
            if alive
        ] == survivors
        assert_store_consistent(store)
        assert _covered(relation, column) == _coded_rows(relation, column)
        for _ in range(len(table.free) + 1):
            database.insert(Fact("R0", (1, 1, 1)))
        assert relation.n == len(table.ids) and not table.free
        assert relation.live[: relation.n].all()
        assert_store_consistent(store)
        assert _covered(relation, column) == _coded_rows(relation, column)

    @needs_numpy
    def test_code_groups_answer_the_live_rows(self, case_rng, monkeypatch):
        """Under a random history with slot reuse, in-place updates and
        overlay-driven rebuilds, a CSR group answers exactly the live rows
        holding each code."""
        from repro.session.vectorized import CodeGroup

        monkeypatch.setattr(CodeGroup, "OVERLAY_MIN", 2)
        monkeypatch.setattr(ColumnStore, "COMPACT_MIN_SLOTS", 16)
        database = Database(_schema(["R0"]))
        for _ in range(30):
            database.insert(_random_fact(case_rng, "R0", 4))
        store = _subscribed_store("numpy", database, keys=("A", "B"))
        relation = store.relation("R0")
        for step in range(80):
            _mutate(case_rng, database, ["R0"], 4)
            if step % 8 == 0:
                for attribute in ("A", "B"):
                    column = store.column("R0", attribute)
                    assert _covered(relation, column) == _coded_rows(
                        relation, column
                    )
        assert_store_consistent(store)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unregistered_relations_are_ignored(self, backend, case_rng):
        database = Database(_schema(["R0", "R1"]))
        for _ in range(10):
            database.insert(_random_fact(case_rng, "R0", 4))
        store = _subscribed_store(backend, database, keys=("A",))
        before = _store_state(store)
        identifier = database.insert(_random_fact(case_rng, "R1", 4))
        database.update(identifier, "A", 3)
        database.delete(identifier)
        assert _store_state(store) == before
        assert store.live_count("R1") == 0
        assert store.live_count("R0") == 10

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_late_column_registration_raises(self, backend, case_rng):
        """Columns are fixed once a relation holds rows; keys are not."""
        database = Database(_schema(["R0"]))
        for _ in range(5):
            database.insert(_random_fact(case_rng, "R0", 4))
        with column_backend(backend):
            store = make_column_store(database.schema)
        store.register("R0", ("A",))
        store.build(database)
        with pytest.raises(RuntimeError, match="late column registration"):
            store.register("R0", ("B",))
        store.register("R0", ("A",))
        assert_store_consistent(store)

    def test_register_key_twice_indexes_once(self, case_rng):
        database = Database(_schema(["R0"]))
        for _ in range(10):
            database.insert(_random_fact(case_rng, "R0", 4))
        store = _subscribed_store("list", database, keys=("A",))
        store.register_key("R0", "A")
        assert store._keys_by_relation["R0"] == [("A", 0)]
        identifier = database.insert(Fact("R0", (99, 1, 1)))
        row = store.relation("R0").row_of[identifier]
        assert store.group("R0", "A")[99] == {row}
        database.delete(identifier)
        assert 99 not in store.group("R0", "A")
        assert_store_consistent(store)

    @needs_numpy
    def test_values_at_reads_the_facts_values(self):
        """Row-level fallbacks read the facts' own values, which a float
        array cannot hold exactly."""
        import numpy as np

        database = Database(_schema(["R0"]))
        big = 2**60 + 1
        for values in [(big, 0.5, "x"), (1, None, 2), (big + 2, 1, None)]:
            database.insert(Fact("R0", values))
        store = _subscribed_store("numpy", database)
        rows = np.arange(3)
        huge = store.column("R0", "A")
        assert huge.kind == "i8" and huge.huge
        assert huge.values_at(rows) == [big, 1, big + 2]
        floats = store.column("R0", "B")
        assert floats.kind == "f8" and floats.data[2] == 1.0
        values = floats.values_at(rows)
        assert values == [0.5, None, 1] and type(values[2]) is int
        assert store.column("R0", "C").values_at(rows) == ["x", 2, None]
        assert_store_consistent(store)


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
            assert type(session) is MeasurementSession

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
