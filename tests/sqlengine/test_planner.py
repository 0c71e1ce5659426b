"""Unit tests for the query planner."""

import pytest

from repro.sqlengine import SqlSyntaxError, explain, plan_query
from repro.sqlengine.planner import JoinPlan, ScanPlan

from .builders import cmp, query

PAIR = ["R AS R1", "R AS R2"]


class TestPlanShapes:
    def test_single_table_scan(self):
        p = plan_query(query(["R1.ID"], ["R AS R1"], cmp("R1.A", "=", 1)))
        assert isinstance(p.root, ScanPlan)
        assert len(p.root.filters) == 1

    def test_equality_becomes_hash_join(self):
        p = plan_query(
            query(["R1.ID"], PAIR, cmp("R1.A", "=", "R2.A"), cmp("R1.B", "<", "R2.B"))
        )
        assert isinstance(p.root, JoinPlan)
        assert p.root.use_hash
        assert len(p.root.equi_keys) == 1
        assert len(p.root.residual) == 1

    def test_no_equality_means_nested_loop(self):
        p = plan_query(query(["R1.ID"], PAIR, cmp("R1.A", "<", "R2.A")))
        assert isinstance(p.root, JoinPlan)
        assert not p.root.use_hash

    def test_force_nested_loop(self):
        p = plan_query(
            query(["R1.ID"], PAIR, cmp("R1.A", "=", "R2.A")),
            force_nested_loop=True,
        )
        assert not p.root.use_hash
        # The equality key is still recorded for the nested-loop filter.
        assert p.root.equi_keys

    def test_single_alias_predicates_pushed_down(self):
        p = plan_query(
            query(["R1.ID"], PAIR, cmp("R1.A", "=", 1), cmp("R1.A", "=", "R2.A"))
        )
        scans = [p.root.left, p.root.right]
        pushed = [s for s in scans if isinstance(s, ScanPlan) and s.filters]
        assert len(pushed) == 1

    def test_three_way_join_left_deep(self):
        p = plan_query(
            query(
                ["A.ID"],
                ["R AS A", "R AS B", "R AS C"],
                cmp("A.X", "=", "B.X"),
                cmp("B.Y", "=", "C.Y"),
            )
        )
        assert isinstance(p.root, JoinPlan)
        assert isinstance(p.root.left, JoinPlan)
        assert p.root.use_hash and p.root.left.use_hash

    def test_constant_only_condition_is_residual(self):
        p = plan_query(query(["R1.ID"], PAIR, cmp("R1.A", "=", "R2.A"), cmp(1, "<", 2)))
        assert len(p.root.residual) == 1
        assert not p.final_residual


class TestErrors:
    def test_unqualified_column_in_join_rejected(self):
        with pytest.raises(SqlSyntaxError, match="unqualified"):
            plan_query(query(["R1.ID"], PAIR, cmp("A", "=", "R2.A")))

    def test_unknown_alias_rejected(self):
        with pytest.raises(SqlSyntaxError, match="unknown table alias"):
            plan_query(query(["R1.ID"], ["R AS R1"], cmp("R9.A", "=", 1)))


class TestExplain:
    def test_explain_mentions_join_kind(self):
        text = explain(plan_query(query(["R1.ID"], PAIR, cmp("R1.A", "=", "R2.A"))))
        assert "HashJoin" in text
        assert "Scan R AS R1" in text

    def test_explain_nested_loop(self):
        p = plan_query(query(["R1.ID"], PAIR, cmp("R1.A", "<", "R2.A")))
        assert "NestedLoopJoin" in explain(p)
