"""Unit tests for denial constraints."""

import pytest

from repro.constraints import ComparisonOp, DenialConstraint, Predicate, Term
from repro.constraints.dc import binary_dc, unary_dc
from repro.relational import Fact, Schema


@pytest.fixture
def schema():
    return Schema.from_dict({"R": ["A", "B"]})


class TestConstruction:
    def test_needs_variable(self):
        with pytest.raises(ValueError):
            DenialConstraint([], [])

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DenialConstraint([("t", "R"), ("t", "R")], [])

    def test_unbound_variable_rejected(self):
        pred = Predicate(Term.col("x", "A"), ComparisonOp.EQ, Term.col("t", "A"))
        with pytest.raises(ValueError, match="unbound"):
            DenialConstraint([("t", "R")], [pred])

    def test_equality_and_hash(self):
        dc1 = unary_dc("R", [("A", ">", "B")])
        dc2 = unary_dc("R", [("A", ">", "B")])
        assert dc1 == dc2
        assert hash(dc1) == hash(dc2)


class TestEvaluation:
    def test_unary_body(self, schema):
        dc = unary_dc("R", [("A", ">", "B")])
        assert dc.body_holds({"t": Fact("R", (2, 1))}, schema)
        assert not dc.body_holds({"t": Fact("R", (1, 2))}, schema)

    def test_constant_predicate(self, schema):
        dc = unary_dc("R", [("A", "=", Term.const(5))])
        assert dc.body_holds({"t": Fact("R", (5, 0))}, schema)
        assert not dc.body_holds({"t": Fact("R", (4, 0))}, schema)

    def test_binary_body(self, schema):
        dc = binary_dc("R", [("A", "=", "A", "tt'"), ("B", "!=", "B", "tt'")])
        f1, f2, f3 = Fact("R", (1, "x")), Fact("R", (1, "y")), Fact("R", (2, "x"))
        assert dc.body_holds({"t": f1, "t2": f2}, schema)
        assert not dc.body_holds({"t": f1, "t2": f3}, schema)

    def test_wrong_relation_fails_body(self):
        schema = Schema.from_dict({"R": ["A"], "S": ["A"]})
        dc = unary_dc("R", [("A", "=", Term.const(1))])
        assert not dc.body_holds({"t": Fact("S", (1,))}, schema)

class TestStructure:
    def test_attributes_involved(self):
        dc = binary_dc("R", [("A", "=", "B", "tt'")])
        assert dc.attributes_involved() == {("R", "A"), ("R", "B")}

    def test_width(self):
        assert unary_dc("R", [("A", ">", "B")]).width == 1
        assert binary_dc("R", [("A", "=", "A", "tt'")]).width == 2

    def test_to_dc_identity(self):
        dc = unary_dc("R", [("A", ">", "B")])
        assert dc.to_dc() is dc

    def test_str_rendering(self):
        dc = unary_dc("R", [("A", ">", "B")], name="order")
        assert "not(" in str(dc)
        assert dc.name == "order"


class TestShorthands:
    def test_binary_dc_modes(self, schema):
        dc = binary_dc("R", [("A", "=", "B", "tt")])
        assert dc.body_holds(
            {"t": Fact("R", (1, 1)), "t2": Fact("R", (9, 9))}, schema
        )

    def test_binary_dc_bad_mode(self):
        with pytest.raises(ValueError, match="unknown predicate mode"):
            binary_dc("R", [("A", "=", "B", "xx")])

    def test_unary_dc_term_rhs(self, schema):
        dc = unary_dc("R", [("A", "=", Term.const("B"))])
        # The string "B" as a Term.const is a constant, not a column.
        assert dc.body_holds({"t": Fact("R", ("B", 0))}, schema)
        assert not dc.body_holds({"t": Fact("R", (0, "B"))}, schema)
