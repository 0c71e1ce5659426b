"""Randomized hash-join vs nested-loop parity for the mini SQL engine.

The planner promises that join strategy is a pure performance choice: for
any query, ``force_nested_loop=True`` and the default hash-join plan must
return the same row multiset.  This suite generates random multi-table
equi-join query trees (with NULL-heavy columns, cross-alias inequalities
and constant filters) over random databases and pins that parity.
"""

from __future__ import annotations

import random

import pytest

from repro.relational import Database, Fact, Schema
from repro.sqlengine import SelectQuery, SqlEngine

from .builders import cmp, query

_ATTRIBUTES = ["A", "B", "C"]


def _random_database(rng: random.Random) -> Database:
    relations = [f"R{k}" for k in range(rng.randint(1, 3))]
    schema = Schema.from_dict({name: list(_ATTRIBUTES) for name in relations})
    database = Database(schema)
    for name in relations:
        for _ in range(rng.randint(0, 25)):
            values = tuple(
                None if rng.random() < 0.15 else rng.randint(0, 5)
                for _ in _ATTRIBUTES
            )
            database.insert(Fact(name, values))
    return database


def _random_query(rng: random.Random, database: Database) -> SelectQuery:
    relations = database.schema.relation_names()
    width = rng.randint(1, 3)
    aliases = [f"T{k}" for k in range(width)]
    tables = [f"{rng.choice(relations)} AS {alias}" for alias in aliases]
    predicates = []
    # Equality joins chaining the aliases (sometimes sparse, leaving
    # genuine cross products for the nested-loop fallback).
    for position in range(1, width):
        if rng.random() < 0.8:
            left = rng.choice(aliases[:position])
            predicates.append(
                cmp(
                    f"{left}.{rng.choice(_ATTRIBUTES)}",
                    "=",
                    f"T{position}.{rng.choice(_ATTRIBUTES)}",
                )
            )
    for _ in range(rng.randint(0, 2)):
        alias = rng.choice(aliases)
        if rng.random() < 0.5:
            predicates.append(
                cmp(
                    f"{alias}.{rng.choice(_ATTRIBUTES)}",
                    rng.choice(["<", "<=", ">", ">=", "<>"]),
                    f"{rng.choice(aliases)}.{rng.choice(_ATTRIBUTES)}",
                )
            )
        else:
            predicates.append(
                cmp(
                    f"{alias}.{rng.choice(_ATTRIBUTES)}",
                    rng.choice(["=", "<", ">"]),
                    rng.randint(0, 5),
                )
            )
    return query([f"{alias}.ID" for alias in aliases], tables, *predicates)


class TestJoinParity:
    @pytest.mark.parametrize("case", range(20))
    def test_hash_equals_nested_loop(self, case, case_rng):
        rng = case_rng
        database = _random_database(rng)
        tree = _random_query(rng, database)
        hash_rows = SqlEngine(database).execute_query(tree)
        nested_rows = SqlEngine(database, force_nested_loop=True).execute_query(tree)
        assert sorted(hash_rows) == sorted(nested_rows)

    def test_null_keys_never_join(self):
        schema = Schema.from_dict({"R": ["A"]})
        database = Database(schema)
        database.insert(Fact("R", (None,)))
        database.insert(Fact("R", (None,)))
        database.insert(Fact("R", (1,)))
        tree = query(
            ["T0.ID", "T1.ID"], ["R AS T0", "R AS T1"], cmp("T0.A", "=", "T1.A")
        )
        for force in (False, True):
            rows = SqlEngine(database, force_nested_loop=force).execute_query(tree)
            assert rows == [(2, 2)]
