"""Execution tests for queries over three tables (wide-DC support path)."""

import pytest

from repro.relational import Database, Fact, Schema
from repro.sqlengine import SqlEngine

from .builders import cmp, lit, query

CHAIN = (cmp("R.B", "=", "S.B"), cmp("S.C", "=", "T.C"))


@pytest.fixture
def db():
    schema = Schema.from_dict(
        {"R": ["A", "B"], "S": ["B", "C"], "T": ["C", "D"]}
    )
    database = Database(schema)
    for row in [(1, 10), (2, 20)]:
        database.insert(Fact("R", row))
    for row in [(10, 100), (20, 200), (10, 300)]:
        database.insert(Fact("S", row))
    for row in [(100, "x"), (300, "y")]:
        database.insert(Fact("T", row))
    return database


class TestThreeWayJoins:
    def test_chain_join(self, db):
        rows = SqlEngine(db).execute_query(
            query(["R.A", "T.D"], ["R", "S", "T"], *CHAIN)
        )
        assert sorted(rows) == [(1, "x"), (1, "y")]

    def test_chain_join_nested_loop_agrees(self, db):
        chain = query(["R.A", "T.D"], ["R", "S", "T"], *CHAIN)
        fast = SqlEngine(db).execute_query(chain)
        slow = SqlEngine(db, force_nested_loop=True).execute_query(chain)
        assert sorted(fast) == sorted(slow)

    def test_triple_cross_product_count(self, db):
        rows = SqlEngine(db).execute_query(
            query(["R.ID", "S.ID", "T.ID"], ["R", "S", "T"])
        )
        assert len(rows) == 2 * 3 * 2

    def test_filter_on_last_table(self, db):
        rows = SqlEngine(db).execute_query(
            query(["R.A"], ["R", "S", "T"], *CHAIN, cmp("T.D", "=", lit("y")))
        )
        assert rows == [(1,)]

    def test_distinct_across_three(self, db):
        rows = SqlEngine(db).execute_query(
            query(["R.A"], ["R", "S", "T"], *CHAIN, distinct=True)
        )
        assert rows == [(1,)]

    def test_ids_exposed_for_all_aliases(self, db):
        rows = SqlEngine(db).execute_query(
            query(["R.ID", "S.ID", "T.ID"], ["R", "S", "T"], *CHAIN)
        )
        assert all(len(row) == 3 for row in rows)
        assert len(rows) == 2
