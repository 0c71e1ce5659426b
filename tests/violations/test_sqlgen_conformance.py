"""SQL conflict rows and compiled batch plans == brute force, on random DCs.

The SQL conflict query (:func:`repro.violations.sqlgen.conflict_query`) and
the session's witness enumerator (:class:`repro.session.WitnessEnumerator`)
are two independent implementations of the same definition — "all
assignments of facts to tuple variables satisfying every predicate".  This
suite generates random DCs (equality joins, inequalities, constants,
NULL-heavy columns, widths 1–3, connected or not) over random databases and
pins that the identifier tuples the SQL engine returns, and on both column
backends the enumerator's cold family, the union of its cold chunks and its
delta over a random dirty subset, all collapse to exactly the witness
fact-id sets a brute-force evaluation of the DC body
(``Predicate.evaluate``) produces.  A mixed-value variant (ints, strs,
floats with NaN, bools, NULL) checks the compiled comparison kernels
against ``ComparisonOp.evaluate``.
"""

from __future__ import annotations

import importlib.util
import random

import pytest

from repro.constraints.base import ComparisonOp
from repro.constraints.dc import DenialConstraint, Predicate, Term
from repro.relational import Database, Fact, Schema
from repro.session import WitnessEnumerator, build_enumerators
from repro.sqlengine.ast import conjuncts
from repro.violations import conflict_query, conflict_rows
from repro.violations.sqlgen import conflict_sql

from ..oracle import brute_force_witnesses

#: Column backends available in this process ("list" always is).
BACKENDS = ["list"] + (["numpy"] if importlib.util.find_spec("numpy") else [])

_OPS = [
    ComparisonOp.EQ,
    ComparisonOp.NE,
    ComparisonOp.LT,
    ComparisonOp.LE,
    ComparisonOp.GT,
    ComparisonOp.GE,
]
_ATTRIBUTES = ["A", "B"]


def _int_cell(rng: random.Random):
    return None if rng.random() < 0.15 else rng.randint(0, 3)


def _int_constant(rng: random.Random):
    return rng.randint(0, 3)


_NAN = float("nan")

#: Mixed-type cells: numbers that compare across int/float/bool, strings
#: that compare only with strings, one shared NaN object (so a hash
#: lookup could match it by identity), fresh NaNs and NULLs.
_MIXED = [None, None, 0, 1, 2, 1.0, 2.5, True, False, "a", "b", "1", _NAN]


def _mixed_cell(rng: random.Random):
    value = rng.choice(_MIXED)
    if value is _NAN and rng.random() < 0.5:
        return float("nan")
    return value


def _random_instance(
    rng: random.Random, cell=_int_cell, constant=_int_constant
):
    relations = [f"R{k}" for k in range(rng.randint(1, 2))]
    schema = Schema.from_dict({name: list(_ATTRIBUTES) for name in relations})
    database = Database(schema)
    for name in relations:
        for _ in range(rng.randint(2, 14)):
            values = tuple(cell(rng) for _ in _ATTRIBUTES)
            database.insert(Fact(name, values))
    width = rng.randint(1, 3)
    variables = [(f"t{k}", rng.choice(relations)) for k in range(width)]
    names = [variable for variable, _ in variables]
    predicates = []
    for _ in range(rng.randint(1, 3)):
        left = Term.col(rng.choice(names), rng.choice(_ATTRIBUTES))
        if rng.random() < 0.3:
            right = Term.const(constant(rng))
        else:
            right = Term.col(rng.choice(names), rng.choice(_ATTRIBUTES))
        predicates.append(Predicate(left, rng.choice(_OPS), right))
    dc = DenialConstraint(variables, predicates, name="random_dc")
    return database, dc


class TestConflictRowsConformance:
    @pytest.mark.parametrize("case", range(25))
    def test_rows_match_brute_force(self, case, case_rng):
        rng = case_rng
        database, dc = _random_instance(rng)
        expected = brute_force_witnesses(dc, database)
        rows = conflict_rows(dc, database)
        assert {frozenset(row) for row in rows} == expected
        # Nested-loop execution of the same query agrees row-for-row.
        assert sorted(rows) == sorted(
            conflict_rows(dc, database, force_nested_loop=True)
        )

    @pytest.mark.parametrize("case", range(10))
    def test_query_ast_matches_rendered_sql(self, case, case_rng):
        """conflict_sql prints conflict_query's tree node for node."""
        rng = case_rng
        _, dc = _random_instance(rng)
        tree = conflict_query(dc)
        comparisons = conjuncts(tree.where)
        assert tree.distinct
        assert len(tree.tables) == len(tree.select) == dc.width
        assert len(comparisons) == len(dc.predicates)
        assert [c.op for c in comparisons] == [p.op for p in dc.predicates]
        sql = "SELECT DISTINCT " + ", ".join(str(ref) for ref in tree.select)
        sql += " FROM " + ", ".join(
            f"{table.relation} AS {table.alias}" for table in tree.tables
        )
        if comparisons:
            sql += " WHERE " + " AND ".join(
                f"{c.left} {'<>' if c.op is ComparisonOp.NE else c.op.value} "
                f"{c.right}"
                for c in comparisons
            )
        assert conflict_sql(dc) == sql

    def test_unrenderable_constant_still_executes(self):
        """AST construction sidesteps SQL text for constants with no literal."""
        schema = Schema.from_dict({"R": ["A"]})
        database = Database(schema)
        database.insert(Fact("R", (None,)))
        database.insert(Fact("R", (1,)))
        dc = DenialConstraint(
            [("t", "R")],
            [Predicate(Term.col("t", "A"), ComparisonOp.EQ, Term.const(None))],
            name="null_const",
        )
        # EQ with NULL is never satisfied — no rows, no lexer crash.
        assert conflict_rows(dc, database) == []


def _enumerator(
    dc: DenialConstraint, database: Database, backend: str
) -> WitnessEnumerator:
    (enumerator,), _ = build_enumerators([dc], database, vector_backend=backend)
    return enumerator


_VALUE_DOMAINS = {
    "ints": (_int_cell, _int_constant),
    "mixed": (_mixed_cell, _mixed_cell),
}


@pytest.mark.parametrize("backend", BACKENDS)
class TestBatchConformance:
    """The compiled batch plans against the brute-force definition."""

    @pytest.mark.parametrize("values", sorted(_VALUE_DOMAINS))
    @pytest.mark.parametrize("case", range(30))
    def test_cold_matches_brute_force(self, backend, values, case, case_rng):
        database, dc = _random_instance(case_rng, *_VALUE_DOMAINS[values])
        expected = brute_force_witnesses(dc, database)
        assert _enumerator(dc, database, backend).cold(database) == expected

    @pytest.mark.parametrize("values", sorted(_VALUE_DOMAINS))
    @pytest.mark.parametrize("case", range(30))
    def test_cold_chunks_union_matches_brute_force(
        self, backend, values, case, case_rng
    ):
        database, dc = _random_instance(case_rng, *_VALUE_DOMAINS[values])
        expected = brute_force_witnesses(dc, database)
        enumerator = _enumerator(dc, database, backend)
        # One seed fact first, then chunks of two: most instances split.
        enumerator.FIRST_CHUNK, enumerator.cold_chunk = 1, 2
        union: set[frozenset[int]] = set()
        for chunk in enumerator.cold_chunks(database):
            union |= chunk
        assert union == expected

    @pytest.mark.parametrize("values", sorted(_VALUE_DOMAINS))
    @pytest.mark.parametrize("case", range(30))
    def test_delta_matches_brute_force_touching_dirty(
        self, backend, values, case, case_rng
    ):
        rng = case_rng
        database, dc = _random_instance(rng, *_VALUE_DOMAINS[values])
        identifiers = database.ids()
        dirty = set(rng.sample(identifiers, rng.randint(1, len(identifiers))))
        expected = {
            witness
            for witness in brute_force_witnesses(dc, database)
            if witness & dirty
        }
        # An identifier outside the database (a deleted fact) is skipped.
        found = _enumerator(dc, database, backend).delta(
            database, dirty | {10_000}
        )
        assert found == expected

    @pytest.mark.parametrize("case", range(10))
    def test_cross_blocks_split_mid_batch(
        self, backend, case, case_rng, monkeypatch
    ):
        """A pair budget of three splits every numpy cross step into
        blocks of a candidate or so; the survivors still union exactly."""
        if backend == "numpy":
            import repro.session.vectorized as vectorized

            monkeypatch.setattr(vectorized, "CROSS_PAIR_BUDGET", 3)
        database, dc = _random_instance(case_rng, *_VALUE_DOMAINS["mixed"])
        expected = brute_force_witnesses(dc, database)
        enumerator = _enumerator(dc, database, backend)
        assert enumerator.cold(database) == expected
        everything = set(database.ids())
        assert enumerator.delta(database, everything) == expected

    def test_shared_nan_object_joins_nothing(self, backend):
        """One NaN object in two facts would share a dict bucket by
        identity, yet NaN equals nothing — not even itself."""
        schema = Schema.from_dict({"R": list(_ATTRIBUTES)})
        database = Database(schema)
        database.insert(Fact("R", (_NAN, 1)))
        database.insert(Fact("R", (_NAN, 2)))
        dc = DenialConstraint(
            [("t", "R"), ("t2", "R")],
            [Predicate(Term.col("t", "A"), ComparisonOp.EQ, Term.col("t2", "A"))],
            name="nan_join",
        )
        assert brute_force_witnesses(dc, database) == set()
        enumerator = _enumerator(dc, database, backend)
        assert enumerator.cold(database) == set()
        assert enumerator.delta(database, {0, 1}) == set()
