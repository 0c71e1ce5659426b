"""Unit tests for minimal-inconsistent-subset enumeration."""

import pytest

from repro.constraints import FunctionalDependency, parse_dc
from repro.constraints.dc import DenialConstraint, Predicate, Term
from repro.constraints.base import ComparisonOp
from repro.relational import Database, Schema
from repro.violations import (
    build_violation_index,
    find_first_violation,
    is_consistent,
    lower_constraints,
    violations_of,
)
from repro.violations.minimal import find_first_violation


@pytest.fixture
def schema():
    return Schema.from_dict({"R": ["A", "B", "C"]})


class TestFdViolations:
    def test_consistent_database(self, schema):
        db = Database.from_rows(schema, "R", [(1, "x", 0), (2, "y", 0)])
        index = build_violation_index([FunctionalDependency("R", {"A"}, {"B"})], db)
        assert index.is_consistent()
        assert index.mi_sets == []

    def test_single_violation_pair(self, schema):
        db = Database.from_rows(schema, "R", [(1, "x", 0), (1, "y", 0)])
        index = build_violation_index([FunctionalDependency("R", {"A"}, {"B"})], db)
        assert index.mi_sets == [frozenset({0, 1})]

    def test_clique_of_violations(self, schema):
        db = Database.from_rows(
            schema, "R", [(1, "x", 0), (1, "y", 0), (1, "z", 0)]
        )
        index = build_violation_index([FunctionalDependency("R", {"A"}, {"B"})], db)
        assert len(index.mi_sets) == 3  # all pairs

    def test_duplicates_do_not_violate(self, schema):
        db = Database.from_rows(schema, "R", [(1, "x", 0), (1, "x", 0)])
        assert is_consistent([FunctionalDependency("R", {"A"}, {"B"})], db)

    def test_multi_rhs_fd(self, schema):
        fd = FunctionalDependency("R", {"A"}, {"B", "C"})
        db = Database.from_rows(schema, "R", [(1, "x", 0), (1, "x", 5)])
        index = build_violation_index([fd], db)
        assert index.mi_sets == [frozenset({0, 1})]


class TestUnaryDc:
    def test_singleton_violations(self, schema):
        dc = parse_dc("not(t.A > t.C)", "R")
        db = Database.from_rows(schema, "R", [(5, "x", 1), (0, "y", 1)])
        index = build_violation_index([dc], db)
        assert index.mi_sets == [frozenset({0})]
        assert index.self_inconsistent == {0}

    def test_constant_dc(self, schema):
        dc = DenialConstraint(
            [("t", "R")],
            [Predicate(Term.col("t", "B"), ComparisonOp.EQ, Term.const("bad"))],
        )
        db = Database.from_rows(schema, "R", [(1, "bad", 0), (1, "ok", 0)])
        index = build_violation_index([dc], db)
        assert index.mi_sets == [frozenset({0})]


class TestMinimization:
    def test_singleton_absorbs_pairs(self, schema):
        # A fact violating a unary DC also appears in FD pairs; the MI
        # family keeps only the singleton for it.
        unary = parse_dc("not(t.A > t.C)", "R")
        fd = FunctionalDependency("R", {"A"}, {"B"})
        db = Database.from_rows(schema, "R", [(5, "x", 1), (5, "y", 1)])
        index = build_violation_index([unary, fd], db)
        # id0 and id1 both violate the unary DC (5 > 1): singletons {0},{1}
        # absorb the FD pair {0,1}.
        assert sorted(tuple(sorted(s)) for s in index.mi_sets) == [(0,), (1,)]

    def test_max_width(self, schema):
        fd = FunctionalDependency("R", {"A"}, {"B"})
        db = Database.from_rows(schema, "R", [(1, "x", 0), (1, "y", 0)])
        index = build_violation_index([fd], db)
        assert index.max_width == 2

    def test_problematic_union(self, schema):
        fd = FunctionalDependency("R", {"A"}, {"B"})
        db = Database.from_rows(
            schema, "R", [(1, "x", 0), (1, "y", 0), (9, "z", 0)]
        )
        index = build_violation_index([fd], db)
        assert index.problematic == {0, 1}


class TestWideDc:
    def test_three_variable_dc(self):
        schema = Schema.from_dict({"R": ["Id"]})
        three = DenialConstraint(
            [("t0", "R"), ("t1", "R"), ("t2", "R")],
            [
                Predicate(Term.col("t0", "Id"), ComparisonOp.NE, Term.col("t1", "Id")),
                Predicate(Term.col("t0", "Id"), ComparisonOp.NE, Term.col("t2", "Id")),
                Predicate(Term.col("t1", "Id"), ComparisonOp.NE, Term.col("t2", "Id")),
            ],
            name="at_most_2",
        )
        db = Database.from_rows(schema, "R", [(1,), (2,), (3,), (4,)])
        index = build_violation_index([three], db)
        assert len(index.mi_sets) == 4  # C(4,3)
        assert index.max_width == 3

    def test_wide_dc_consistent(self):
        schema = Schema.from_dict({"R": ["Id"]})
        three = DenialConstraint(
            [("t0", "R"), ("t1", "R"), ("t2", "R")],
            [
                Predicate(Term.col("t0", "Id"), ComparisonOp.NE, Term.col("t1", "Id")),
                Predicate(Term.col("t0", "Id"), ComparisonOp.NE, Term.col("t2", "Id")),
                Predicate(Term.col("t1", "Id"), ComparisonOp.NE, Term.col("t2", "Id")),
            ],
        )
        db = Database.from_rows(schema, "R", [(1,), (2,)])
        assert is_consistent([three], db)


class TestHelpers:
    def test_find_first_violation(self, schema):
        fd = FunctionalDependency("R", {"A"}, {"B"})
        db = Database.from_rows(schema, "R", [(1, "x", 0), (1, "y", 0)])
        violation = find_first_violation([fd], db)
        assert violation is not None
        assert violation.fact_ids == frozenset({0, 1})

    def test_find_first_violation_consistent(self, schema):
        fd = FunctionalDependency("R", {"A"}, {"B"})
        db = Database.from_rows(schema, "R", [(1, "x", 0)])
        assert find_first_violation([fd], db) is None

    def test_violations_of_single_dc(self, schema):
        dc = parse_dc("not(t.A = t'.A, t.B != t'.B)", "R")
        db = Database.from_rows(schema, "R", [(1, "x", 0), (1, "y", 0)])
        assert violations_of(dc, db) == [frozenset({0, 1})]

    def test_lower_constraints_mixed(self, schema):
        fd = FunctionalDependency("R", {"A"}, {"B", "C"})
        dc = parse_dc("not(t.A > t.C)", "R")
        lowered = lower_constraints([fd, dc], schema)
        assert len(lowered) == 3
