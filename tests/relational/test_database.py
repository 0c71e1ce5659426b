"""Unit tests for the Database id→fact mapping and its mutations."""

import pytest

from repro.relational import Database, Fact, Schema, SchemaError
from repro.relational.database import ChangeEvent


@pytest.fixture
def schema():
    return Schema.from_dict({"R": ["A", "B"]})


class TestConstruction:
    def test_from_rows_assigns_consecutive_ids(self, schema):
        db = Database.from_rows(schema, "R", [(1, 2), (3, 4)])
        assert db.ids() == [0, 1]

    def test_arity_mismatch_rejected(self, schema):
        with pytest.raises(SchemaError):
            Database.from_rows(schema, "R", [(1, 2, 3)])

    def test_duplicate_facts_get_distinct_ids(self, schema):
        db = Database.from_facts(schema, [Fact("R", (1, 1)), Fact("R", (1, 1))])
        assert len(db) == 2
        assert db[0] == db[1]


class TestMutations:
    def test_insert_uses_minimal_free_id(self, schema):
        db = Database.from_rows(schema, "R", [(1, 1), (2, 2), (3, 3)])
        db.delete(1)
        new_id = db.insert(Fact("R", (9, 9)))
        assert new_id == 1

    def test_delete_missing_returns_false(self, schema):
        db = Database(schema)
        assert db.delete(5) is False

    def test_update_changes_value(self, schema):
        db = Database.from_rows(schema, "R", [(1, 2)])
        assert db.update(0, "B", 99)
        assert db.get_cell(0, "B") == 99

    def test_update_missing_id_returns_false(self, schema):
        db = Database(schema)
        assert db.update(0, "A", 1) is False

    def test_update_unknown_attribute_returns_false(self, schema):
        db = Database.from_rows(schema, "R", [(1, 2)])
        assert db.update(0, "Z", 1) is False

    def test_update_maintains_active_domain(self, schema):
        db = Database.from_rows(schema, "R", [(1, 2), (1, 3)])
        db.update(0, "A", 7)
        domain = db.active_domain("R", "A")
        assert domain.frequency(1) == 1
        assert domain.frequency(7) == 1

    def test_delete_maintains_active_domain(self, schema):
        db = Database.from_rows(schema, "R", [(1, 2)])
        db.delete(0)
        assert 1 not in db.active_domain("R", "A")


class TestViews:
    def test_subset_keeps_identifiers(self, schema):
        db = Database.from_rows(schema, "R", [(1, 1), (2, 2), (3, 3)])
        sub = db.subset([0, 2])
        assert sub.ids() == [0, 2]
        assert sub[2] == db[2]

    def test_subset_unknown_id_raises(self, schema):
        db = Database.from_rows(schema, "R", [(1, 1)])
        with pytest.raises(KeyError):
            db.subset([5])

    def test_without(self, schema):
        db = Database.from_rows(schema, "R", [(1, 1), (2, 2)])
        assert db.without([0]).ids() == [1]

    def test_copy_is_independent(self, schema):
        db = Database.from_rows(schema, "R", [(1, 1)])
        clone = db.copy()
        clone.update(0, "A", 5)
        assert db.get_cell(0, "A") == 1

    def test_copy_preserves_domains(self, schema):
        db = Database.from_rows(schema, "R", [(1, 1), (1, 2)])
        clone = db.copy()
        assert clone.active_domain("R", "A").frequency(1) == 2

    def test_domains_built_on_first_read(self, schema):
        db = Database.from_rows(schema, "R", [(3, 1), (1, 2)])
        db.update(0, "A", 5)
        db.insert(Fact("R", (1, 7)))
        # No column was read, so no mutation maintained a domain.
        assert db._domains == {}
        domain = db.active_domain("R", "A")
        assert list(domain) == [5, 1]
        assert domain.frequency(1) == 2
        db.delete(1)
        assert db.active_domain("R", "A") is domain
        assert domain.frequency(1) == 1
        assert set(db._domains) == {("R", "A")}

    def test_copy_shares_domains_until_written(self, schema):
        db = Database.from_rows(schema, "R", [(3, 1), (1, 2), (3, 3), (2, 4)])
        # Domains read before the copy are shared with it.
        db.active_domain("R", "A")
        db.active_domain("R", "B")
        clone = db.copy()
        original_view = db.active_domain("R", "A")
        clone_view = clone.active_domain("R", "A")
        assert original_view._counts is clone_view._counts
        assert (
            db.active_domain("R", "B")._counts
            is clone.active_domain("R", "B")._counts
        )
        clone.update(0, "A", 7)
        db.delete(3)
        # Each side sees only its own writes, through the same live views.
        assert db.active_domain("R", "A") is original_view
        assert clone.active_domain("R", "A") is clone_view
        assert list(original_view) == [3, 1]
        assert original_view.frequency(3) == 2
        assert list(clone_view) == [3, 1, 2, 7]
        assert clone_view.frequency(3) == 1
        # A copy of a copy shares too, and unshares on its own first write.
        again = clone.copy()
        again.insert(Fact("R", (9, 9)))
        assert 9 not in clone.active_domain("R", "A")
        assert list(again.active_domain("R", "A")) == [3, 1, 2, 7, 9]

    def test_copy_matches_rebuilt_domains(self, schema):
        db = Database.from_rows(schema, "R", [(1, None), (2, "x"), (1, "x")])
        clone = db.copy()
        clone.update(1, "B", None)
        rebuilt = Database.from_facts(schema, [fact for _, fact in clone.items()])
        for attribute in ("A", "B"):
            ours = clone.active_domain("R", attribute)
            theirs = rebuilt.active_domain("R", attribute)
            assert list(ours) == list(theirs)
            assert [ours.frequency(v) for v in ours] == [
                theirs.frequency(v) for v in theirs
            ]

    def test_column(self, schema):
        db = Database.from_rows(schema, "R", [(1, 2), (3, 4)])
        assert db.column("R", "B") == [2, 4]

    def test_equality(self, schema):
        db1 = Database.from_rows(schema, "R", [(1, 1)])
        db2 = Database.from_rows(schema, "R", [(1, 1)])
        assert db1 == db2
        db2.update(0, "A", 9)
        assert db1 != db2


    def test_identifier_slots(self, schema):
        db = Database.from_rows(schema, "R", [(1, 1), (2, 2), (3, 3)])
        db.delete(2)
        db.delete(0)
        assert db.ids() == [1] and 0 not in db and 2 not in db and -1 not in db
        assert db.get(7) is None and db.get(-1) is None
        with pytest.raises(KeyError):
            db[-1]
        # Equality ignores which identifiers were ever used.
        twin = Database.from_rows(schema, "R", [(9, 9), (2, 2)])
        twin.delete(0)
        assert db == twin
        assert db.restore(5, Fact("R", (5, 5)))
        assert db.ids() == [1, 5] and len(db) == 2
        assert db.insert(Fact("R", (0, 0))) == 0
        with pytest.raises(ValueError):
            db.restore(-1, Fact("R", (0, 0)))


class TestSavepointEdgeCases:
    """Nested-savepoint ordering under subscriber churn.

    Shards and sessions are plain change-feed subscribers, so attaching or
    detaching one mid-savepoint must compose with rollback like any other
    listener: a subscriber observes exactly the events committed while it
    was attached — including the inverse events a rollback replays.
    """

    def test_listener_attached_mid_savepoint_sees_the_full_undo(self, schema):
        db = Database.from_rows(schema, "R", [(1, 1), (2, 2)])
        events: list[ChangeEvent] = []
        with db.savepoint():
            db.update(0, "B", 9)
            db.subscribe(events.append)  # a shard attaching mid-savepoint
            db.delete(1)
        # The late subscriber saw the delete it was attached for, then the
        # whole undo newest-first: restore of fact 1, un-update of fact 0.
        assert [(e.action, e.identifier) for e in events] == [
            ("delete", 1),
            ("insert", 1),
            ("update", 0),
        ]
        assert events[-1].new == Fact("R", (1, 1))  # pre-image reinstated
        db.unsubscribe(events.append)

    def test_listener_detached_mid_savepoint_misses_the_undo(self, schema):
        db = Database.from_rows(schema, "R", [(1, 1)])
        events: list[ChangeEvent] = []
        db.subscribe(events.append)
        with db.savepoint():
            db.update(0, "B", 9)
            db.unsubscribe(events.append)  # a shard detaching mid-savepoint
            db.update(0, "A", 7)
        assert [(e.action, e.identifier) for e in events] == [("update", 0)]
        assert db[0] == Fact("R", (1, 1))  # rollback still ran fully

    def test_listener_unsubscribing_during_rollback_is_safe(self, schema):
        db = Database.from_rows(schema, "R", [(1, 1), (2, 2)])
        seen: list[str] = []

        def churn(event: ChangeEvent) -> None:
            seen.append(event.action)
            db.unsubscribe(churn)  # detach on the first replayed inverse

        with db.savepoint():
            db.delete(0)
            db.delete(1)
            db.subscribe(churn)
        assert seen == ["insert"]  # got exactly one event, no corruption
        assert db.ids() == [0, 1]  # the remaining inverses still replayed

    def test_inner_release_inside_outer_rollback(self, schema):
        """Released-inner changes are still undone by the outer journal."""
        db = Database.from_rows(schema, "R", [(1, 1)])
        with db.savepoint():
            db.update(0, "A", 5)
            with db.savepoint() as inner:
                db.insert(Fact("R", (7, 7)))
                inner.release()  # keep the insert past the inner exit
            assert len(db) == 2  # release really kept it
        # The outer journal recorded the inner's events directly, so its
        # rollback undoes them in global newest-first order.
        assert db.ids() == [0]
        assert db[0] == Fact("R", (1, 1))

    def test_inner_rollback_then_outer_release(self, schema):
        """An undone inner stays undone when the outer keeps its changes."""
        db = Database.from_rows(schema, "R", [(1, 1)])
        with db.savepoint() as outer:
            db.update(0, "B", 9)
            with db.savepoint():
                db.update(0, "B", 3)  # inner change, rolled back at exit
            outer.release()
        assert db[0] == Fact("R", (1, 9))

    def test_interleaved_nesting_restores_identifiers(self, schema):
        """Deletes/inserts across nesting levels unwind newest-first."""
        db = Database.from_rows(schema, "R", [(1, 1), (2, 2), (3, 3)])
        facts_before = dict(db.items())
        with db.savepoint():
            db.delete(0)
            with db.savepoint() as inner:
                db.insert(Fact("R", (9, 9)))  # reuses identifier 0
                db.delete(2)
                inner.release()
            db.insert(Fact("R", (8, 8)))  # reuses identifier 2
        assert dict(db.items()) == facts_before
        assert db.peek_next_id() == 3

    def test_session_attach_detach_mid_savepoint(self, schema):
        """A measurement session is a subscriber like any other.

        Attached mid-savepoint it absorbs the rollback's inverse events as
        ordinary deltas and converges to the pre-savepoint state; detached
        mid-savepoint it goes stale and refresh() recovers.
        """
        from repro.constraints import FunctionalDependency
        from repro.session import MeasurementSession
        from repro.violations import build_violation_index

        constraints = [FunctionalDependency("R", {"A"}, {"B"})]
        db = Database.from_rows(schema, "R", [(1, 1), (1, 2), (2, 5)])
        with db.savepoint():
            db.update(2, "A", 1)
            attached = MeasurementSession(constraints, db)
            assert len(attached.index().mi_sets) == 3
            detached = MeasurementSession(constraints, db)
            db.update(0, "B", 2)
            detached.close()
            db.insert(Fact("R", (1, 7)))
        full = build_violation_index(constraints, db)
        assert attached.index().mi_sets == full.mi_sets
        assert len(attached.index().mi_sets) == 1
        attached.close()
        assert detached.refresh().mi_sets == full.mi_sets


class TestFact:
    def test_get_by_attribute(self, schema):
        fact = Fact("R", (10, 20))
        assert fact.get(schema.signature("R"), "B") == 20

    def test_with_value_is_functional(self, schema):
        fact = Fact("R", (10, 20))
        updated = fact.with_value(schema.signature("R"), "A", 99)
        assert fact.values == (10, 20)
        assert updated.values == (99, 20)

    def test_hashable(self):
        assert len({Fact("R", (1,)), Fact("R", (1,))}) == 1
