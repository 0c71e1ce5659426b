"""Speculative what-if evaluation: copy-free scoring and savepoint rollback.

Two randomized invariants anchor the subsystem:

* ``session.speculate(ops, measures)`` returns, for every measure in the
  registry, exactly the value of the copy-apply-rebuild path
  (``measure.value(Σ, ops(D.copy()))``);
* rolling back a savepoint restores a bit-identical database (facts,
  identifier allocator, active domains), enumeration indexes (the column
  store's key groups and the probe's equality index) and witness store —
  cross-checked against ``session.refresh()``.
"""

from __future__ import annotations

import random

import pytest

from repro.measures import TABLE2_MEASURES, available_measures, make_measure
from repro.relational import Database, Fact, Schema
from repro.repairs.operations import (
    DeleteOperation,
    InsertOperation,
    RestoreOperation,
    UpdateOperation,
    apply_sequence,
)
from repro.session import MeasurementSession
from repro.violations import affected_components, build_violation_index

from .test_session import _constraint_suites, _random_fact, _random_mutation


@pytest.fixture
def schema() -> Schema:
    return Schema.from_dict({"R": ["A", "B", "C"]})


def _bounded_mutation(
    rng: random.Random, database: Database, cap: int = 8
) -> None:
    """A random mutation that keeps the database under *cap* facts.

    The full-registry suites include the exact update-repair measure,
    which is exponential in the problematic-fact count — unbounded random
    growth would make the runtime seed-dependent.
    """
    if len(database) >= cap:
        database.delete(rng.choice(database.ids()))
        return
    _random_mutation(rng, database)


def _random_operations(rng: random.Random, database: Database) -> list:
    """A batch of 1-3 candidate operations against the current state."""
    operations = []
    for _ in range(rng.randint(1, 3)):
        identifiers = database.ids()
        roll = rng.random()
        if roll < 0.4 and identifiers:
            operations.append(DeleteOperation(rng.choice(identifiers)))
        elif roll < 0.8 and identifiers:
            attribute = rng.choice(["A", "B", "C"])
            value = rng.randint(0, 6) if rng.random() < 0.7 else rng.choice("xyz")
            operations.append(
                UpdateOperation(rng.choice(identifiers), attribute, value)
            )
        else:
            operations.append(InsertOperation(_random_fact(rng)))
    return operations


def _domain_snapshot(database: Database) -> dict:
    return {
        key: {value: domain.frequency(value) for value in domain}
        for key, domain in database._domains.items()
        if len(domain) > 0
    }


def _index_snapshot(session: MeasurementSession) -> list[tuple[dict, dict]]:
    """Per shard: the column store's key groups and the probe equality index.

    Both map each indexed column to ``value → fact ids``; the numpy store
    groups by dictionary code instead of value (codes are never recycled,
    so they survive a rollback).  A dead row left behind in a list-store
    group shows up as a ``None`` id.
    """
    return [shard_indexes(shard) for shard in session.shards]


def shard_indexes(shard) -> tuple[dict, dict]:
    """One shard's ``(key groups, equality-index buckets)``."""
    return _key_groups(shard._columns), _equality_buckets(shard._eq_index)


def _key_groups(store) -> dict:
    if store is None:
        return {}
    if store.backend == "list":
        return {
            (relation, attribute): {
                value: {store.ids(relation)[row] for row in rows}
                for value, rows in buckets.items()
            }
            for (relation, attribute), buckets in store._groups.items()
        }
    groups: dict = {}
    for relation, table in store._relations.items():
        live = table.live_rows().tolist()
        for attribute, column in table.columns.items():
            if column.group is None:
                continue
            by_code: dict[int, set[int]] = {}
            for row in live:
                code = int(column.codes[row])
                if code >= 0:
                    by_code.setdefault(code, set()).add(int(table.ids[row]))
            groups[(relation, attribute)] = by_code
    return groups


def _equality_buckets(index) -> dict:
    if index is None:
        return {}
    return {
        column: {value: set(ids) for value, ids in buckets.items()}
        for column, buckets in index._maps.items()
    }


def _witness_snapshot(session: MeasurementSession) -> list[tuple]:
    return [
        (
            [set(store) for store in shard._witnesses],
            {key: set(entries) for key, entries in shard._touching.items()},
        )
        for shard in session.shards
    ]


class TestSpeculateEqualsCopyRebuild:
    @pytest.mark.slow
    @pytest.mark.parametrize("case", [0, 1, 2])
    def test_full_registry_small_database(self, schema, case, case_rng):
        """Every registered measure, including the whole-database ones."""
        rng = case_rng
        database = Database.from_facts(
            schema, [_random_fact(rng) for _ in range(8)]
        )
        constraints = _constraint_suites()["binary"]
        measures = [make_measure(name) for name in available_measures()]
        with MeasurementSession(constraints, database) as session:
            for _ in range(10):
                operations = _random_operations(rng, database)
                expected = {
                    measure.name: measure.value(
                        constraints, apply_sequence(database, operations)
                    )
                    for measure in measures
                }
                assert session.speculate(operations, measures) == expected
                # Speculation must not leak into the live state.
                assert session.index().mi_sets == build_violation_index(
                    constraints, database
                ).mi_sets
                _bounded_mutation(rng, database)

    @pytest.mark.parametrize("suite", ["binary", "wide"])
    @pytest.mark.parametrize("case", [0, 1])
    def test_table2_measures_with_mutation_interleaving(
        self, schema, suite, case, case_rng
    ):
        rng = case_rng
        database = Database.from_facts(
            schema, [_random_fact(rng) for _ in range(16)]
        )
        constraints = _constraint_suites()[suite]
        measures = [make_measure(name) for name in TABLE2_MEASURES]
        with MeasurementSession(constraints, database) as session:
            for _ in range(15):
                operations = _random_operations(rng, database)
                expected = {
                    measure.name: measure.value(
                        constraints, apply_sequence(database, operations)
                    )
                    for measure in measures
                }
                assert session.speculate(operations, measures) == expected
                for _ in range(rng.randint(0, 2)):
                    _random_mutation(rng, database)

    def test_speculative_insert_allocates_like_the_copy(self, schema):
        """Insert ids match the copy path (minimal free identifier)."""
        database = Database.from_rows(schema, "R", [(1, "x", 0), (1, "y", 0)])
        constraints = _constraint_suites()["binary"]
        with MeasurementSession(constraints, database) as session:
            database.delete(0)  # free the minimal identifier
            operation = InsertOperation(Fact("R", (1, "x", 0)))
            copy = operation.apply(database)
            measure = make_measure("I_MI")
            assert session.speculate_value([operation], measure) == measure.value(
                constraints, copy
            )
            assert 0 not in database  # rolled back


class TestSavepointRollback:
    @pytest.mark.parametrize("suite", ["binary", "wide", "probe_join"])
    @pytest.mark.parametrize("case", [0, 1, 2])
    def test_rollback_restores_bit_identical_state(
        self, schema, suite, case, case_rng
    ):
        rng = case_rng
        database = Database.from_facts(
            schema, [_random_fact(rng) for _ in range(18)]
        )
        constraints = _constraint_suites()[suite]
        with MeasurementSession(constraints, database) as session:
            session.index()
            facts_before = dict(database.items())
            next_id_before = database._next_id
            domains_before = _domain_snapshot(database)
            indexes_before = _index_snapshot(session)
            # Each suite's shard carries exactly the indexes its DCs read.
            (groups, buckets), = indexes_before
            assert groups
            assert bool(buckets) == (suite == "probe_join")
            with session.savepoint():
                for _ in range(30):
                    _random_mutation(rng, database)
                session.index()  # exercise mid-savepoint flushes too
            index = session.index()  # flush the rollback deltas
            assert dict(database.items()) == facts_before
            assert database._next_id == next_id_before
            assert _domain_snapshot(database) == domains_before
            assert _index_snapshot(session) == indexes_before
            after = _witness_snapshot(session)
            fresh = session.refresh()
            assert after == _witness_snapshot(session)
            assert index.mi_sets == fresh.mi_sets

    def test_release_keeps_changes(self, schema):
        database = Database.from_rows(schema, "R", [(1, "x", 0)])
        with database.savepoint() as savepoint:
            database.insert(Fact("R", (1, "y", 0)))
            savepoint.release()
        assert len(database) == 2
        assert not savepoint.active
        with pytest.raises(RuntimeError):
            savepoint.rollback()

    def test_nested_savepoints(self, schema):
        database = Database.from_rows(schema, "R", [(1, "x", 0)])
        with database.savepoint():
            database.update(0, "B", "y")
            with database.savepoint():
                database.insert(Fact("R", (2, "z", 1)))
            assert len(database) == 1  # inner rolled back
            assert database.get_cell(0, "B") == "y"  # outer still applied
        assert database.get_cell(0, "B") == "x"
        assert len(database) == 1

    def test_rollback_restores_identifiers_in_order(self, schema):
        database = Database.from_rows(
            schema, "R", [(1, "x", 0), (2, "y", 0), (3, "z", 0)]
        )
        facts_before = dict(database.items())
        with database.savepoint():
            database.delete(0)
            database.delete(2)
            database.insert(Fact("R", (9, "w", 9)))  # takes identifier 0
        assert dict(database.items()) == facts_before


class TestOperationInverse:
    def test_inverse_roundtrip(self, schema):
        database = Database.from_rows(
            schema, "R", [(1, "x", 0), (2, "y", 1)]
        )
        operations = [
            DeleteOperation(0),
            UpdateOperation(1, "B", "q"),
            InsertOperation(Fact("R", (7, "n", 7))),
            RestoreOperation(5, Fact("R", (5, "r", 5))),
        ]
        for operation in operations:
            snapshot = dict(database.items())
            undo = operation.inverse(database)
            assert undo is not None, operation
            assert operation.apply_in_place(database)
            assert undo.apply_in_place(database)
            assert dict(database.items()) == snapshot, operation

    def test_inapplicable_operations_have_no_inverse(self, schema):
        database = Database.from_rows(schema, "R", [(1, "x", 0)])
        assert DeleteOperation(9).inverse(database) is None
        assert UpdateOperation(0, "B", "x").inverse(database) is None
        assert UpdateOperation(9, "B", "y").inverse(database) is None
        assert RestoreOperation(0, database[0]).inverse(database) is None

    def test_insert_inverse_targets_the_allocated_identifier(self, schema):
        database = Database.from_rows(
            schema, "R", [(1, "x", 0), (2, "y", 0)]
        )
        database.delete(0)
        operation = InsertOperation(Fact("R", (3, "z", 0)))
        undo = operation.inverse(database)
        assert undo == DeleteOperation(0)


class TestSpeculateBatch:
    @pytest.mark.parametrize("suite", ["binary", "wide"])
    @pytest.mark.parametrize("case", [0, 1])
    def test_batch_equals_sequential_speculation(
        self, schema, suite, case, case_rng
    ):
        """Value identity: batch == per-candidate speculate == copy-rebuild,
        for the full registry (whole-database measures take the fallback)."""
        rng = case_rng
        database = Database.from_facts(
            schema, [_random_fact(rng) for _ in range(14)]
        )
        constraints = _constraint_suites()[suite]
        measures = [make_measure(name) for name in TABLE2_MEASURES]
        with MeasurementSession(constraints, database) as session:
            for _ in range(5):
                candidates = [
                    _random_operations(rng, database) for _ in range(4)
                ]
                batch = session.speculate_batch(candidates, measures)
                sequential = [
                    session.speculate(operations, measures)
                    for operations in candidates
                ]
                assert batch == sequential
                expected = [
                    {
                        measure.name: measure.value(
                            constraints, apply_sequence(database, operations)
                        )
                        for measure in measures
                    }
                    for operations in candidates
                ]
                assert batch == expected
                # Batched speculation must not leak into the live state.
                assert session.index().mi_sets == build_violation_index(
                    constraints, database
                ).mi_sets
                _random_mutation(rng, database)

    @pytest.mark.slow
    @pytest.mark.parametrize("case", [0, 1])
    def test_mixed_batch_falls_back_value_identical(self, schema, case, case_rng):
        """Whole-database measures in the batch force the generic path;
        values still match per-candidate speculation (small database — the
        exact update-repair measure is exponential)."""
        rng = case_rng
        database = Database.from_facts(
            schema, [_random_fact(rng) for _ in range(8)]
        )
        constraints = _constraint_suites()["binary"]
        registry = [make_measure(name) for name in available_measures()]
        with MeasurementSession(constraints, database) as session:
            for _ in range(3):
                candidates = [
                    _random_operations(rng, database) for _ in range(2)
                ]
                assert session.speculate_batch(candidates, registry) == [
                    session.speculate(operations, registry)
                    for operations in candidates
                ]
                _bounded_mutation(rng, database)

    def test_empty_batch(self, schema):
        database = Database.from_rows(schema, "R", [(1, "x", 0), (1, "y", 0)])
        constraints = _constraint_suites()["binary"]
        with MeasurementSession(constraints, database) as session:
            assert session.speculate_batch([], [make_measure("I_MI")]) == []

    def test_batch_shares_base_resolution(self, schema):
        """Candidates resolve unaffected components without new solves."""
        database = Database.from_rows(
            schema,
            "R",
            [(1, "x", 0), (1, "y", 0), (2, "p", 0), (2, "q", 0)],
        )
        constraints = _constraint_suites()["binary"][:1]  # the FD only
        measure = make_measure("I_R")
        with MeasurementSession(constraints, database) as session:
            session.measure(measure)  # warm the cache for both components
            misses_before = session.component_cache.misses
            values = session.speculate_batch(
                [[DeleteOperation(0)], [DeleteOperation(1)]], [measure]
            )
            assert [value[measure.name] for value in values] == [1.0, 1.0]
            # Component {2, 3} is resolved once by the base priming (a cache
            # hit) and shared by identity thereafter; deleting either fact of
            # {0, 1} dissolves that component, so nothing is ever re-solved.
            assert session.component_cache.misses == misses_before

    def test_speculation_base_survives_no_op_flushes(self, schema):
        """The memoized base is keyed on topology generation: a flush that
        changes no witness must not recompute it."""
        database = Database.from_rows(
            schema, "R", [(1, "x", 0), (1, "y", 0), (5, "q", 9)]
        )
        constraints = _constraint_suites()["binary"][:1]
        with MeasurementSession(constraints, database) as session:
            base = session._speculation_base()
            database.update(2, "C", 4)  # fact 2 binds no witness
            session.index()
            assert session._speculation_base() is base
            database.update(0, "B", "z")  # retract + re-insert the conflict
            session.index()
            assert session._speculation_base() is not base

    def test_batch_repins_base_across_rounds(self, schema):
        """A batch's rollbacks restore the base; the next batch reuses it."""
        database = Database.from_rows(
            schema, "R", [(1, "x", 0), (1, "y", 0), (2, "p", 0), (2, "q", 0)]
        )
        constraints = _constraint_suites()["binary"][:1]
        measure = make_measure("I_MI")
        with MeasurementSession(constraints, database) as session:
            session.speculate_batch([[DeleteOperation(0)]], [measure])
            base = session._spec_base
            session.speculate_batch([[DeleteOperation(2)]], [measure])
            assert session._spec_base is base


class TestComponentLocalizedDelta:
    def test_unchanged_components_hit_the_cache(self, schema):
        # Two disjoint conflict pairs; speculating on one leaves the other's
        # component (and its cached value) untouched.
        database = Database.from_rows(
            schema,
            "R",
            [(1, "x", 0), (1, "y", 0), (2, "p", 0), (2, "q", 0)],
        )
        constraints = _constraint_suites()["binary"][:1]  # the FD only
        measure = make_measure("I_R")
        with MeasurementSession(constraints, database) as session:
            assert session.measure(measure) == 2.0
            assert affected_components(session.index(), {0}) == [0]
            misses_before = session.component_cache.misses
            assert session.speculate_value([DeleteOperation(0)], measure) == 1.0
            # Component {2, 3} was served from the cache: at most the patched
            # component around facts {0, 1} was recomputed (here: it vanished,
            # so no new component value at all was solved).
            assert session.component_cache.misses == misses_before
            assert session.component_cache.hits > 0

    def test_affected_components_positions(self, schema):
        database = Database.from_rows(
            schema,
            "R",
            [(1, "x", 0), (1, "y", 0), (2, "p", 0), (2, "q", 0)],
        )
        constraints = _constraint_suites()["binary"][:1]
        index = build_violation_index(constraints, database)
        assert affected_components(index, {2, 3}) == [1]
        assert affected_components(index, {0, 3}) == [0, 1]
        assert affected_components(index, {99}) == []


class TestMixedMeasureSplit:
    def test_one_shard_mixed_list_keeps_component_fast_path(
        self, schema, monkeypatch
    ):
        """A one-shard session splits mixed lists too — only ``I_d`` and
        friends pay the generic whole-database pass."""
        import repro.session.session as session_module

        database = Database.from_rows(
            schema, "R", [(1, "x", 0), (1, "y", 0), (2, "x", 0), (2, "z", 0)]
        )
        constraints = _constraint_suites()["binary"]
        mixed = [make_measure(name) for name in ("I_MI", "I_d", "I_R")]
        generic_lists: list[list[str]] = []
        original = session_module._generic_values

        def spy(session, measures):
            generic_lists.append([measure.name for measure in measures])
            return original(session, measures)

        monkeypatch.setattr(session_module, "_generic_values", spy)
        with MeasurementSession(constraints, database) as session:
            values = session.speculate([DeleteOperation(0)], mixed)
            batch = session.speculate_batch(
                [[DeleteOperation(0)], [DeleteOperation(2)]], mixed
            )
        assert generic_lists and all(
            names == ["I_d"] for names in generic_lists
        ), generic_lists
        reference = {
            measure.name: measure.value(
                constraints, apply_sequence(database, [DeleteOperation(0)])
            )
            for measure in mixed
        }
        assert values == reference
        assert batch[0] == reference
