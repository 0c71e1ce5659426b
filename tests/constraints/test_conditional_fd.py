"""Conditional FDs as denial constraints with constants.

The paper lists conditional FDs [Bohannon et al. 2007] among the
anti-monotonic constraint classes DCs generalize; these tests exercise the
constant-predicate machinery that encodes them.
"""

import pytest

from repro.constraints import ComparisonOp, DenialConstraint, Predicate, Term
from repro.measures import make_measure
from repro.relational import Database, Schema
from repro.violations import build_violation_index, violations_of


@pytest.fixture
def schema():
    return Schema.from_dict({"Cust": ["Country", "AreaCode", "City"]})


def conditional_fd(schema) -> DenialConstraint:
    """CFD: within Country='US', AreaCode -> City."""
    return DenialConstraint(
        [("t", "Cust"), ("t2", "Cust")],
        [
            Predicate(Term.col("t", "Country"), ComparisonOp.EQ, Term.const("US")),
            Predicate(Term.col("t2", "Country"), ComparisonOp.EQ, Term.const("US")),
            Predicate(
                Term.col("t", "AreaCode"), ComparisonOp.EQ, Term.col("t2", "AreaCode")
            ),
            Predicate(Term.col("t", "City"), ComparisonOp.NE, Term.col("t2", "City")),
        ],
        name="cfd_us_areacode_city",
    )


class TestConditionalFd:
    def test_violation_only_inside_condition(self, schema):
        cfd = conditional_fd(schema)
        db = Database.from_rows(
            schema,
            "Cust",
            [
                ("US", 212, "NYC"),
                ("US", 212, "Albany"),   # violates within US
                ("UK", 20, "London"),
                ("UK", 20, "Leeds"),     # same pattern, outside condition
            ],
        )
        index = build_violation_index([cfd], db)
        assert index.mi_sets == [frozenset({0, 1})]

    def test_consistent_when_condition_empty(self, schema):
        cfd = conditional_fd(schema)
        db = Database.from_rows(
            schema, "Cust", [("UK", 20, "London"), ("UK", 20, "Leeds")]
        )
        assert build_violation_index([cfd], db).is_consistent()

    def test_measures_work_on_cfds(self, schema):
        cfd = conditional_fd(schema)
        db = Database.from_rows(
            schema,
            "Cust",
            [("US", 212, "NYC"), ("US", 212, "Albany"), ("US", 415, "SF")],
        )
        assert make_measure("I_MI").value([cfd], db) == 1.0
        assert make_measure("I_R").value([cfd], db) == 1.0
        assert make_measure("I_lin_R").value([cfd], db) == 1.0

    def test_constant_condition_keeps_other_countries_out(self, schema):
        db = Database.from_rows(
            schema,
            "Cust",
            [
                ("US", 212, "NYC"),
                ("UK", 212, "London"),
                ("US", 212, "Albany"),
                ("UK", 212, "Leeds"),
            ],
        )
        # Only the two US facts conflict; the UK pair and every US/UK pair
        # share the area code too, but fail Country = 'US'.
        assert violations_of(conditional_fd(schema), db) == [frozenset({0, 2})]
