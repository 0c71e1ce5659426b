"""Unit tests for repair systems (R⊆, update system, R*)."""

import pytest

from repro.constraints import FunctionalDependency
from repro.relational import Database, Schema
from repro.repairs import (
    DeleteOperation,
    UpdateOperation,
    insertion_deletion_system,
    realizes,
    subset_system,
    update_system,
)


@pytest.fixture
def db():
    schema = Schema.from_dict({"R": ["A", "B"]})
    return Database.from_rows(schema, "R", [(1, "x"), (1, "y")])


class TestSubsetSystem:
    def test_enumerates_all_deletions(self, db):
        ops = list(subset_system().applicable_operations(db))
        assert ops == [DeleteOperation(0), DeleteOperation(1)]

    def test_apply(self, db):
        system = subset_system()
        result = system.apply(db, [DeleteOperation(0)])
        assert result.ids() == [1]
        assert db.ids() == [0, 1]

    def test_realizes_fds(self, db):
        assert realizes(subset_system(), [FunctionalDependency("R", {"A"}, {"B"})], db)


class TestUpdateSystem:
    def test_enumerates_domain_and_fresh(self, db):
        ops = list(update_system().applicable_operations(db))
        # For fact 0 attribute B ('x'): can become 'y' or a fresh value.
        targets = {
            (op.identifier, op.attribute, op.value)
            for op in ops
            if isinstance(op, UpdateOperation)
        }
        assert (0, "B", "y") in targets
        assert any(
            op.identifier == 0 and op.attribute == "B" and "fresh" in str(op.value)
            for op in ops
        )

    def test_never_yields_noop(self, db):
        for op in update_system().applicable_operations(db):
            assert op.is_applicable(db)

    def test_custom_pool(self, db):
        system = update_system(value_pool=lambda d, i, a: ["Z"])
        ops = list(system.applicable_operations(db))
        assert all(op.value == "Z" for op in ops)


class TestInsertDeleteSystem:
    def test_deletions_always_present(self, db):
        ops = list(insertion_deletion_system().applicable_operations(db))
        assert DeleteOperation(0) in ops

    def test_fact_pool_inserts(self, db):
        from repro.relational import Fact

        system = insertion_deletion_system(
            fact_pool=lambda d: [Fact("R", (9, "q"))]
        )
        ops = list(system.applicable_operations(db))
        assert any(getattr(op, "fact", None) == Fact("R", (9, "q")) for op in ops)
