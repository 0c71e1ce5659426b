"""Unit tests for cost functions."""

import pytest

from repro.relational import Database, Fact, Schema
from repro.repairs import (
    DeleteOperation,
    UpdateOperation,
    deletion_costs,
    subset_cost,
    table_cost,
    unit_cost,
)


@pytest.fixture
def plain_db():
    schema = Schema.from_dict({"R": ["A"]})
    return Database.from_rows(schema, "R", [(1,), (2,)])


@pytest.fixture
def costed_db():
    schema = Schema.from_dict({"R": ["A", "cost"]})
    return Database.from_rows(schema, "R", [(1, 2.5), (2, 7.0)])


class TestUnitCost:
    def test_applicable_costs_one(self, plain_db):
        assert unit_cost(DeleteOperation(0), plain_db) == 1.0

    def test_inapplicable_costs_zero(self, plain_db):
        assert unit_cost(DeleteOperation(99), plain_db) == 0.0

    def test_noop_update_costs_zero(self, plain_db):
        assert unit_cost(UpdateOperation(0, "A", 1), plain_db) == 0.0


class TestSubsetCost:
    def test_default_unit(self, plain_db):
        assert subset_cost(DeleteOperation(0), plain_db) == 1.0

    def test_cost_attribute_used(self, costed_db):
        assert subset_cost(DeleteOperation(0), costed_db) == 2.5
        assert subset_cost(DeleteOperation(1), costed_db) == 7.0

    def test_inapplicable_zero(self, costed_db):
        assert subset_cost(DeleteOperation(9), costed_db) == 0.0


class TestTableCost:
    def test_lookup(self, plain_db):
        cost = table_cost({0: 10.0})
        assert cost(DeleteOperation(0), plain_db) == 10.0
        assert cost(DeleteOperation(1), plain_db) == 1.0

    def test_materialized_costs(self, costed_db):
        costs = deletion_costs(costed_db, subset_cost)
        assert costs == {0: 2.5, 1: 7.0}

    def test_subset_weights_equal_per_operation_costs(self):
        """The direct ``subset_cost`` weights equal one ``subset_cost`` call
        per fact: costed and plain relations, int costs, dead and unknown
        ids."""
        schema = Schema.from_dict({"R": ["A", "cost"], "S": ["B"]})
        database = Database.from_rows(schema, "R", [(1, 2.5), (2, 7), (3, 0)])
        for values in [(4,), (5,)]:
            database.insert(Fact("S", values))
        database.delete(1)
        identifiers = [0, 1, 2, 3, 4, 99, -1]
        direct = deletion_costs(database, subset_cost, identifiers)
        expected = deletion_costs(
            database, lambda op, db: subset_cost(op, db), identifiers
        )
        assert direct == expected == {
            0: 2.5, 1: 0.0, 2: 0.0, 3: 1.0, 4: 1.0, 99: 0.0, -1: 0.0
        }
        assert all(type(weight) is float for weight in direct.values())
        assert list(direct) == identifiers
