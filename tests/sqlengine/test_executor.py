"""Unit and integration tests for SQL execution."""

import pytest

from repro.relational import Database, Fact, Schema
from repro.sqlengine import SqlEngine, SqlSyntaxError

from .builders import cmp, lit, query


@pytest.fixture
def db():
    schema = Schema.from_dict({"R": ["St", "Salary", "Tax"], "S": ["St", "Code"]})
    database = Database.from_rows(
        schema,
        "R",
        [
            ("NY", 100, 10),
            ("NY", 200, 5),
            ("CA", 50, 1),
            ("NY", 150, 20),
            ("CA", 80, 2),
        ],
    )
    for row in [("NY", 1), ("CA", 2)]:
        database.insert(Fact("S", row))
    return database


@pytest.fixture
def engine(db):
    return SqlEngine(db)


class TestScans:
    def test_scan_projects_identifiers(self, engine):
        rows = engine.execute_query(query(["R.ID", "R.St"], ["R"]))
        assert len(rows) == 5
        assert rows[0] == (0, "NY")

    def test_filter(self, engine):
        rows = engine.execute_query(
            query(["R.ID"], ["R"], cmp("R.St", "=", lit("CA")))
        )
        assert sorted(rows) == [(2,), (4,)]

    def test_count(self, engine):
        rows = engine.execute_query(query(["R.ID"], ["R"], cmp("R.Salary", ">", 90)))
        assert len(rows) == 3

    def test_constant_comparison_types(self, engine):
        rows = engine.execute_query(query(["R.ID"], ["R"], cmp("R.Tax", "<=", 2)))
        assert sorted(rows) == [(2,), (4,)]


class TestJoins:
    PAPER_QUERY = query(
        ["R1.ID", "R2.ID"],
        ["R AS R1", "R AS R2"],
        cmp("R1.St", "=", "R2.St"),
        cmp("R1.Salary", ">", "R2.Salary"),
        cmp("R1.Tax", "<", "R2.Tax"),
        distinct=True,
    )

    def test_paper_conflict_query(self, engine):
        # (1) 200/5 vs (0) 100/10 and vs (3) 150/20: salary greater, tax less.
        assert sorted(engine.execute_query(self.PAPER_QUERY)) == [(1, 0), (1, 3)]

    def test_hash_and_nested_agree(self, db):
        fast = SqlEngine(db).execute_query(self.PAPER_QUERY)
        slow = SqlEngine(db, force_nested_loop=True).execute_query(self.PAPER_QUERY)
        assert sorted(fast) == sorted(slow)

    def test_cross_relation_join(self, engine):
        rows = engine.execute_query(
            query(
                ["R.ID", "S.Code"],
                ["R", "S"],
                cmp("R.St", "=", "S.St"),
                cmp("R.Salary", ">", 90),
            )
        )
        assert sorted(rows) == [(0, 1), (1, 1), (3, 1)]

    def test_pure_cross_product(self, engine):
        rows = engine.execute_query(query(["R.ID", "S.ID"], ["R", "S"]))
        assert len(rows) == 10

    def test_distinct_dedupes(self, engine):
        rows = engine.execute_query(query(["R.St"], ["R"], distinct=True))
        assert sorted(rows) == [("CA",), ("NY",)]


class TestNullSemantics:
    def test_null_never_joins(self):
        schema = Schema.from_dict({"T": ["A"]})
        db = Database.from_rows(schema, "T", [(None,), (1,), (1,)])
        rows = SqlEngine(db).execute_query(
            query(
                ["T1.ID", "T2.ID"],
                ["T AS T1", "T AS T2"],
                cmp("T1.A", "=", "T2.A"),
                cmp("T1.ID", "<", "T2.ID"),
            )
        )
        assert rows == [(1, 2)]

    def test_null_comparison_false(self):
        schema = Schema.from_dict({"T": ["A"]})
        db = Database.from_rows(schema, "T", [(None,), (5,)])
        rows = SqlEngine(db).execute_query(
            query(["T.ID"], ["T"], cmp("T.A", "<", 10))
        )
        assert rows == [(1,)]


class TestErrors:
    def test_unknown_relation(self, engine):
        with pytest.raises(SqlSyntaxError, match="unknown relation"):
            engine.execute_query(query(["Nope.ID"], ["Nope"]))

    def test_unknown_column(self, engine):
        with pytest.raises(Exception):
            engine.execute_query(query(["R.Bogus"], ["R"]))

    @pytest.mark.parametrize(
        "shape",
        [
            query(["T.ID"], ["T"]),
            query(["T.A"], ["T"], cmp("T.ID", "=", 7)),
            query(["T1.A"], ["T AS T1", "T AS T2"], cmp("T1.ID", "=", "T2.ID")),
        ],
        ids=["select", "filter", "join"],
    )
    def test_id_attribute_makes_id_ambiguous(self, shape):
        """A relation with its own ``ID`` attribute shadows the pseudo-column."""
        schema = Schema.from_dict({"T": ["ID", "A"]})
        db = Database.from_rows(schema, "T", [(7, "x"), (7, "y")])
        with pytest.raises(SqlSyntaxError, match="ambiguous column"):
            SqlEngine(db).execute_query(shape)

    def test_id_pseudo_column_beside_other_relation_id(self):
        """Only the alias whose relation has an ``ID`` attribute is ambiguous."""
        schema = Schema.from_dict({"T": ["ID"], "U": ["B"]})
        database = Database(schema)
        database.insert(Fact("U", (1,)))
        rows = SqlEngine(database).execute_query(query(["U.ID"], ["U"]))
        assert rows == [(0,)]
