"""Speculative what-if evaluation: copy-free scoring and savepoint rollback.

Two randomized invariants anchor the subsystem:

* ``session.speculate(ops, measures)`` returns, for every measure in the
  registry, exactly the value of the copy-apply-rebuild path
  (``measure.value(Σ, ops(D.copy()))``);
* rolling back a savepoint restores a bit-identical database (facts,
  identifier allocator, active domains), enumeration indexes (the column
  store's key groups) and witness store — cross-checked against
  ``session.refresh()``.
"""

from __future__ import annotations

import importlib.util
import random

import pytest

from repro.constraints import FunctionalDependency, parse_dc
from repro.measures import TABLE2_MEASURES, available_measures, make_measure
from repro.relational import Database, Fact, Schema
from repro.repairs.operations import (
    DeleteOperation,
    InsertOperation,
    RestoreOperation,
    UpdateOperation,
    apply_sequence,
)
from repro.repairs.system import subset_system, update_system
from repro.repairs.tradeoff import score_operations
from repro.session import MeasurementSession
from repro.testing.layout import column_backend
from repro.violations import build_violation_index
from repro.violations.topology import ComponentTopology

from .test_session import _constraint_suites, _random_fact, _random_mutation

BACKENDS = ["list"] + (["numpy"] if importlib.util.find_spec("numpy") else [])


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


def key_groups(session: MeasurementSession) -> dict:
    """The column store's key groups: each grouped column's ``value → fact
    ids``.

    The numpy store groups by dictionary code instead of value (codes are
    never recycled, so they survive a rollback).  A dead row left behind
    in a list-store group shows up as a ``None`` id.
    """
    store = session._columns
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


def _witness_snapshot(session: MeasurementSession) -> tuple:
    return (
        [set(store) for store in session._witnesses],
        {
            key: set(entries)
            for key, entries in session.topology._binding.items()
        },
    )


class TestSpeculateEqualsCopyRebuild:
    @pytest.mark.slow
    @pytest.mark.parametrize("case", [0, 1, 2])
    def test_full_registry_small_database(self, schema, case, case_rng):
        """Every registered measure, including the whole-database ``I_R_upd``."""
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
    @pytest.mark.parametrize("suite", ["binary", "wide", "cross_join"])
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
            indexes_before = key_groups(session)
            (groups,) = indexes_before
            assert groups
            with session.savepoint():
                for _ in range(30):
                    _random_mutation(rng, database)
                session.index()  # exercise mid-savepoint flushes too
            index = session.index()  # flush the rollback deltas
            assert dict(database.items()) == facts_before
            assert database._next_id == next_id_before
            assert _domain_snapshot(database) == domains_before
            assert key_groups(session) == indexes_before
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
        for every Table 2 measure (``I_d`` included)."""
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
        """``I_R_upd`` in the batch sends every candidate through its
        savepoint; values still match per-candidate speculation and
        copy-apply-rebuild (small database — the exact update-repair
        measure is exponential)."""
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
                batch = session.speculate_batch(candidates, registry)
                assert batch == [
                    session.speculate(operations, registry)
                    for operations in candidates
                ]
                assert batch == [
                    {
                        measure.name: measure.value(
                            constraints, apply_sequence(database, operations)
                        )
                        for measure in registry
                    }
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

    def test_components_survive_no_op_flushes(self, schema):
        """The components list a batch reads is memoized per topology
        generation: a flush that changes no witness must not recompute it."""
        database = Database.from_rows(
            schema, "R", [(1, "x", 0), (1, "y", 0), (5, "q", 9)]
        )
        constraints = _constraint_suites()["binary"][:1]
        with MeasurementSession(constraints, database) as session:
            base = session.topology.components()
            database.update(2, "C", 4)  # fact 2 binds no witness
            session.index()
            assert session.topology.components() is base
            database.update(0, "B", "z")  # retract + re-insert the conflict
            session.index()
            assert session.topology.components() is not base

    def test_batch_repins_base_across_rounds(self, schema):
        """A batch's rollbacks restore the base; the next batch reuses it."""
        database = Database.from_rows(
            schema, "R", [(1, "x", 0), (1, "y", 0), (2, "p", 0), (2, "q", 0)]
        )
        constraints = _constraint_suites()["binary"][:1]
        measure = make_measure("I_MI")
        with MeasurementSession(constraints, database) as session:
            session.speculate_batch([[DeleteOperation(0)]], [measure])
            base = session.topology.components()
            session.speculate_batch([[DeleteOperation(2)]], [measure])
            assert session.topology.components() is base


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
            topology = session.topology
            assert topology.component_of(0) is topology.components()[0]
            misses_before = session.component_cache.misses
            assert session.speculate_value([DeleteOperation(0)], measure) == 1.0
            # Component {2, 3} was served from its own stored value: at most
            # the patched component around facts {0, 1} was recomputed (here:
            # it vanished, so no new component value at all was solved).
            assert topology.component_of(2).values[measure] == 1.0
            assert session.component_cache.misses == misses_before

    def test_affected_components_positions(self, schema):
        # The facts a candidate touches map to the components it must
        # re-solve; a fact in no conflict maps to none.
        database = Database.from_rows(
            schema,
            "R",
            [(1, "x", 0), (1, "y", 0), (2, "p", 0), (2, "q", 0)],
        )
        constraints = _constraint_suites()["binary"][:1]
        with MeasurementSession(constraints, database) as session:
            assert session.is_consistent() is False
            topology = session.topology
            components = topology.components()

            def affected(fact_ids):
                touched = {topology.component_of(fact) for fact in fact_ids}
                return [
                    position
                    for position, component in enumerate(components)
                    if component in touched
                ]

            assert affected({2, 3}) == [1]
            assert affected({0, 3}) == [0, 1]
            assert affected({99}) == []
            assert topology.component_of(99) is None


class TestMixedMeasureSplit:
    def test_one_relation_mixed_list_keeps_component_fast_path(
        self, schema, monkeypatch
    ):
        """On a one-relation session ``I_d`` rides the deletion previews with
        the other component-wise measures; only ``I_R_upd`` reaches the
        whole-database helper, and its presence applies every candidate."""
        import repro.session.session as session_module

        database = Database.from_rows(
            schema, "R", [(1, "x", 0), (1, "y", 0), (2, "x", 0), (2, "z", 0)]
        )
        constraints = _constraint_suites()["binary"]
        mixed = [make_measure(name) for name in ("I_MI", "I_d", "I_R")]
        whole_lists: list[list[str]] = []
        original = session_module._whole_database_values

        def spy(constraints, database, measures):
            whole_lists.append([measure.name for measure in measures])
            return original(constraints, database, measures)

        monkeypatch.setattr(session_module, "_whole_database_values", spy)
        deletions = [[DeleteOperation(0)], [DeleteOperation(2)]]
        with MeasurementSession(constraints, database) as session:
            values = session.speculate(deletions[0], mixed)
            batch = session.speculate_batch(deletions, mixed)
            assert whole_lists == []
            assert session.stats()["speculation"] == {
                "deletion_previews": 3,
                "savepoint_previews": 0,
            }
            with_upd = mixed + [make_measure("I_R_upd")]
            upd_batch = session.speculate_batch(deletions, with_upd)
            assert whole_lists == [["I_R_upd"], ["I_R_upd"]]
            assert session.stats()["speculation"] == {
                "deletion_previews": 3,
                "savepoint_previews": 2,
            }
        reference = {
            measure.name: measure.value(
                constraints, apply_sequence(database, deletions[0])
            )
            for measure in with_upd
        }
        assert values == batch[0] == {
            name: reference[name] for name in ("I_MI", "I_d", "I_R")
        }
        assert upd_batch[0] == reference
        # Re-keyed in the caller's measure order.
        assert list(upd_batch[0]) == [measure.name for measure in with_upd]


def _three_relation_setup(rng: random.Random) -> tuple[Database, list]:
    """R and S each carry their own DCs; U is constrained by nothing."""
    schema = Schema.from_dict(
        {relation: ["A", "B", "C"] for relation in ("R", "S", "U")}
    )
    constraints = _constraint_suites()["binary"] + [
        FunctionalDependency("S", {"A"}, {"B"}),
        parse_dc(
            "not(t.A = t2.A, t.C > t2.C, t.B != t2.B)", "S", name="mixed_S"
        ),
    ]
    facts = [_random_fact(rng) for _ in range(14)]
    for relation, count in (("S", 8), ("U", 4)):
        facts += [
            Fact(relation, (rng.randint(0, 3), rng.choice("xyz"), rng.randint(0, 9)))
            for _ in range(count)
        ]
    rng.shuffle(facts)
    return Database.from_facts(schema, facts), constraints


def _deletion_candidates(
    rng: random.Random, database: Database, problematic
) -> list[list]:
    """Candidates made only of deletions of live facts."""
    constrained = [i for i in database.ids() if database[i].relation != "U"]
    unconstrained = [i for i in database.ids() if database[i].relation == "U"]
    quiet = [i for i in constrained if i not in problematic] or constrained
    hot = sorted(problematic) or constrained
    repeated = rng.choice(hot)
    return [
        [DeleteOperation(rng.choice(hot))],
        [DeleteOperation(i) for i in rng.sample(constrained, 3)],
        [DeleteOperation(repeated), DeleteOperation(repeated)],
        [DeleteOperation(rng.choice(quiet))],
        [DeleteOperation(rng.choice(unconstrained))],
        [
            DeleteOperation(rng.choice(unconstrained)),
            DeleteOperation(rng.choice(hot)),
        ],
    ]


def _savepoint_candidates(rng: random.Random, database: Database) -> list[list]:
    """Dead-id deletes, inserts, updates and mixes of them."""
    live = database.ids()
    dead = database.peek_next_id()
    return [
        [DeleteOperation(dead)],
        [DeleteOperation(rng.choice(live)), DeleteOperation(dead)],
        [InsertOperation(_random_fact(rng))],
        # The delete hits the fact the insert allocates.
        [InsertOperation(_random_fact(rng)), DeleteOperation(dead)],
        [UpdateOperation(rng.choice(live), "B", rng.choice("xyz"))],
        [
            DeleteOperation(rng.choice(live)),
            UpdateOperation(rng.choice(live), "A", rng.randint(0, 4)),
        ],
    ]


def _purity_state(session: MeasurementSession) -> tuple:
    """Everything a deletion preview must leave alone (the enumeration
    counters too: a preview must never re-enumerate)."""
    return (
        [stats.as_dict() for stats in session._enum_stats],
        key_groups(session),
        {
            key: set(entries)
            for key, entries in session.topology._binding.items()
        },
        [set(store) for store in session._witnesses],
        session.topology,
        session.topology.generation,
        set(session._dirty),
    )


class TestDeletionPreviews:
    """Deletion-only candidates are scored without being applied."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("case", range(4))
    def test_mixed_batch_identity_and_purity(self, backend, case, case_rng):
        rng = case_rng
        database, constraints = _three_relation_setup(rng)
        measures = [make_measure(name) for name in TABLE2_MEASURES]
        fast = [measure for measure in measures if measure.name != "I_d"]
        with column_backend(backend):
            session = MeasurementSession(constraints, database)
        with column_backend(backend), session:
            for _ in range(3):
                problematic = set(session.problematic_facts())
                deletions = _deletion_candidates(rng, database, problematic)
                candidates = deletions + _savepoint_candidates(rng, database)
                rng.shuffle(candidates)
                base = session.topology.components()
                counts = dict(session.stats()["speculation"])
                batch = session.speculate_batch(candidates, measures)
                stats = session.stats()["speculation"]
                assert stats == {
                    "deletion_previews": counts["deletion_previews"]
                    + len(deletions),
                    "savepoint_previews": counts["savepoint_previews"]
                    + len(candidates)
                    - len(deletions),
                }
                assert batch == [
                    session.speculate(operations, measures)
                    for operations in candidates
                ]
                assert batch == [
                    {
                        measure.name: measure.value(
                            constraints, apply_sequence(database, operations)
                        )
                        for measure in measures
                    }
                    for operations in candidates
                ]
                # Purity: a deletion-only batch emits no change event and
                # moves no store, reverse map, topology or dirty mark.
                events: list = []
                database.subscribe(events.append)
                before = _purity_state(session)
                facts = dict(database.items())
                session.speculate_batch(deletions, fast)
                database.unsubscribe(events.append)
                assert events == []
                # (The topology compares by identity: the same object.)
                assert _purity_state(session) == before
                assert session.topology.components() is base
                assert dict(database.items()) == facts
                for _ in range(rng.randint(1, 3)):
                    _random_mutation(rng, database)
            assert session.index().mi_sets == build_violation_index(
                constraints, database
            ).mi_sets

    def test_outside_commit_between_deletion_candidates_survives(
        self, schema, monkeypatch
    ):
        """A commit landing between two deletion previews (a concurrent
        producer) keeps its dirty mark and is flushed after the batch."""
        database = Database.from_rows(
            schema, "R", [(1, "x", 0), (1, "y", 0), (2, "p", 0), (2, "q", 0)]
        )
        constraints = _constraint_suites()["binary"][:1]
        measure = make_measure("I_MI")
        original = ComponentTopology.preview_deletion
        inserted: list[int] = []

        def interleaved(topology, facts):
            if not inserted:
                inserted.append(database.insert(Fact("R", (2, "r", 0))))
            return original(topology, facts)

        monkeypatch.setattr(ComponentTopology, "preview_deletion", interleaved)
        with MeasurementSession(constraints, database) as session:
            session.speculate_batch(
                [[DeleteOperation(0)], [DeleteOperation(2)]], [measure]
            )
            assert inserted[0] in session._dirty
            assert session.index().mi_sets == build_violation_index(
                constraints, database
            ).mi_sets
            assert session.measure(measure) == measure.value(
                constraints, database
            )

    def test_stats_count_each_scoring_path(self, schema):
        """A subset round scores only deletion previews; an update round
        only savepoint previews."""
        rows = [(1, "x", 0), (1, "y", 0), (2, "p", 0), (2, "q", 0), (3, "z", 9)]
        constraints = _constraint_suites()["binary"][:1]
        measure = make_measure("I_MI")
        for system, path in (
            (subset_system(), "deletion_previews"),
            (update_system(), "savepoint_previews"),
        ):
            database = Database.from_rows(schema, "R", rows)
            with MeasurementSession(constraints, database) as session:
                assert session.stats()["speculation"] == {
                    "deletion_previews": 0,
                    "savepoint_previews": 0,
                }
                scored = score_operations(
                    measure, constraints, database, system, session=session
                )
                assert scored
                assert session.stats()["speculation"] == {
                    "deletion_previews": 0,
                    "savepoint_previews": 0,
                    path: len(scored),
                }


class TestSpeculatePurity:
    """``speculate`` is a one-candidate batch: on a flushed session it
    commits nothing, whichever path its candidate takes."""

    @pytest.mark.parametrize("kind", ["deletion", "update"])
    def test_speculate_leaves_the_session_flushed(self, session_backend, kind):
        database, constraints = _three_relation_setup(random.Random(3))
        measures = [make_measure(name) for name in ("I_MI", "I_P", "I_R")]
        with MeasurementSession(constraints, database) as session:
            target = min(session.problematic_facts())
            if kind == "deletion":
                operations = [DeleteOperation(target)]
                path = "deletion_previews"
            else:
                operations = [UpdateOperation(target, "B", "w")]
                path = "savepoint_previews"
            topology = session.topology
            generation = topology.generation
            base = topology.components()
            counts = dict(session.stats()["speculation"])
            values = session.speculate(operations, measures)
            assert session.pending_deltas == 0
            assert session.topology is topology
            assert topology.generation == generation
            assert topology.components() is base
            counts[path] += 1
            assert session.stats()["speculation"] == counts
            assert values == {
                measure.name: measure.value(
                    constraints, apply_sequence(database, operations)
                )
                for measure in measures
            }

    @pytest.mark.parametrize(
        "whole, path",
        [("I_d", "deletion_previews"), ("I_R_upd", "savepoint_previews")],
    )
    def test_mixed_batch_leaves_the_session_flushed(
        self, session_backend, whole, path
    ):
        """``I_d`` in a batch is scored by deletion previews; the
        whole-database ``I_R_upd`` reads the patched database inside each
        candidate's savepoint.  Neither commits a flush."""
        if whole == "I_d":
            database, constraints = _three_relation_setup(random.Random(3))
        else:
            # I_R_upd is exponential: a tiny two-relation instance.
            schema = Schema.from_dict({"R": ["A", "B", "C"], "S": ["A", "B", "C"]})
            database = Database.from_facts(
                schema,
                [
                    Fact("R", (1, "x", 0)),
                    Fact("R", (1, "y", 0)),
                    Fact("R", (2, "x", 0)),
                    Fact("S", (1, "x", 0)),
                    Fact("S", (1, "y", 0)),
                ],
            )
            constraints = [
                FunctionalDependency(relation, {"A"}, {"B"})
                for relation in ("R", "S")
            ]
        measures = [make_measure("I_MI"), make_measure(whole)]
        with MeasurementSession(constraints, database) as session:
            problematic = sorted(session.problematic_facts())
            candidates = [[DeleteOperation(i)] for i in problematic]
            candidates.append([DeleteOperation(i) for i in problematic[:2]])
            topology = session.topology
            generation = topology.generation
            base = topology.components()
            counts = dict(session.stats()["speculation"])
            for _ in range(2):
                batch = session.speculate_batch(candidates, measures)
                assert session.pending_deltas == 0
                assert session.topology is topology
                assert topology.generation == generation
                assert topology.components() is base
                counts[path] += len(candidates)
                assert session.stats()["speculation"] == counts
            assert batch == [
                {
                    measure.name: measure.value(
                        constraints, apply_sequence(database, operations)
                    )
                    for measure in measures
                }
                for operations in candidates
            ]
