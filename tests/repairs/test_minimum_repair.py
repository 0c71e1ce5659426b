"""Unit tests for minimum subset repairs and the LP relaxation."""

import pytest

from repro.constraints import FunctionalDependency, parse_dc
from repro.relational import Database, Schema
from repro.repairs import (
    greedy_subset_repair,
    integrality_gap_bound,
    minimum_subset_repair,
    repair_lp_relaxation,
    table_cost,
)
from repro.violations import build_violation_index, is_consistent


@pytest.fixture
def schema():
    return Schema.from_dict({"R": ["A", "B"]})


@pytest.fixture
def fd():
    return FunctionalDependency("R", {"A"}, {"B"})


class TestMinimumRepair:
    def test_consistent_database_zero(self, schema, fd):
        db = Database.from_rows(schema, "R", [(1, "x")])
        repair = minimum_subset_repair([fd], db)
        assert repair.cost == 0.0
        assert repair.deleted_ids == set()

    def test_single_conflict(self, schema, fd):
        db = Database.from_rows(schema, "R", [(1, "x"), (1, "y")])
        repair = minimum_subset_repair([fd], db)
        assert repair.cost == 1.0
        assert len(repair.deleted_ids) == 1

    def test_repair_restores_consistency(self, schema, fd):
        db = Database.from_rows(
            schema, "R", [(1, "x"), (1, "y"), (1, "z"), (2, "q"), (2, "r")]
        )
        repair = minimum_subset_repair([fd], db)
        assert is_consistent([fd], db.without(repair.deleted_ids))

    def test_key_group_repair_value(self, schema, fd):
        # Group of 4 facts on key 1 with B values x,x,x,y: delete the y.
        db = Database.from_rows(
            schema, "R", [(1, "x"), (1, "x"), (1, "x"), (1, "y")]
        )
        repair = minimum_subset_repair([fd], db)
        assert repair.cost == 1.0
        assert repair.deleted_ids == {3}

    def test_weighted_repair(self, schema, fd):
        db = Database.from_rows(schema, "R", [(1, "x"), (1, "y")])
        repair = minimum_subset_repair(
            [fd], db, cost_function=table_cost({0: 5.0, 1: 2.0})
        )
        assert repair.cost == 2.0
        assert repair.deleted_ids == {1}

    def test_unary_dc_forces_deletions(self, schema):
        dc = parse_dc("not(t.A > 10)", "R")
        db = Database.from_rows(schema, "R", [(50, "x"), (5, "y")])
        repair = minimum_subset_repair([dc], db)
        assert repair.deleted_ids == {0}

    def test_operations_accessor(self, schema, fd):
        db = Database.from_rows(schema, "R", [(1, "x"), (1, "y")])
        repair = minimum_subset_repair([fd], db)
        ops = repair.operations()
        assert len(ops) == 1


class TestGreedy:
    def test_greedy_repairs(self, schema, fd):
        db = Database.from_rows(
            schema, "R", [(1, "x"), (1, "y"), (1, "z")]
        )
        repair = greedy_subset_repair([fd], db)
        assert is_consistent([fd], db.without(repair.deleted_ids))
        optimal = minimum_subset_repair([fd], db)
        assert repair.cost >= optimal.cost


class TestLpRelaxation:
    def test_consistent_zero(self, schema, fd):
        db = Database.from_rows(schema, "R", [(1, "x")])
        value, x = repair_lp_relaxation([fd], db)
        assert value == 0.0
        assert all(v == 0.0 for v in x.values())

    def test_triangle_half(self, schema, fd):
        db = Database.from_rows(schema, "R", [(1, "x"), (1, "y"), (1, "z")])
        value, x = repair_lp_relaxation([fd], db)
        assert value == pytest.approx(1.5)
        assert all(v == pytest.approx(0.5) for i, v in x.items())

    def test_lp_lower_bounds_ilp(self, schema, fd):
        db = Database.from_rows(
            schema, "R", [(1, "x"), (1, "y"), (2, "a"), (2, "b"), (2, "c")]
        )
        lp_value, _ = repair_lp_relaxation([fd], db)
        ilp_value = minimum_subset_repair([fd], db).cost
        assert lp_value <= ilp_value + 1e-9
        # Integrality gap bound for FDs is 2 (Section 5.2).
        index = build_violation_index([fd], db)
        assert ilp_value <= integrality_gap_bound(index) * lp_value + 1e-9

    def test_hypergraph_lp(self):
        # A 3-wide DC goes through the exact covering-LP path.
        from repro.properties.counterexamples import at_most_k_dc

        schema = Schema.from_dict({"R": ["Id"]})
        db = Database.from_rows(schema, "R", [(1,), (2,), (3,)])
        dc = at_most_k_dc(2)  # at most 2 facts: one MI set of width 3
        value, x = repair_lp_relaxation([dc], db)
        assert value == 1.0
        assert sum(x.values()) == 1.0

    def test_singleton_forces_one(self, schema):
        dc = parse_dc("not(t.A > 10)", "R")
        db = Database.from_rows(schema, "R", [(50, "x"), (5, "y")])
        value, x = repair_lp_relaxation([dc], db)
        assert x[0] == pytest.approx(1.0)
        assert value == pytest.approx(1.0)
