"""SQL conflict rows and compiled probe plans == brute force, on random DCs.

The SQL conflict query (:func:`repro.violations.sqlgen.conflict_query`) and
the session's probe enumerator (:class:`repro.session.ProbeEnumerator`)
are two independent implementations of the same definition — "all
assignments of facts to tuple variables satisfying every predicate".  This
suite generates random DCs (equality joins, inequalities, constants,
NULL-heavy columns, widths 1–3) over random databases and pins that the
identifier tuples the SQL engine returns, the probe's cold family, the
union of its cold chunks and its delta over a random dirty subset all
collapse to exactly the witness fact-id sets a brute-force evaluation of
the DC body (``Predicate.evaluate``) produces.  A mixed-value variant
(ints, strs, floats with NaN, bools, NULL) checks the probe's compiled
comparison kernels against ``ComparisonOp.evaluate``.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.constraints.base import ComparisonOp
from repro.constraints.dc import DenialConstraint, Predicate, Term
from repro.relational import Database, Fact, Schema
from repro.session import ProbeEnumerator, build_enumerators
from repro.violations import conflict_query, conflict_rows
from repro.violations.sqlgen import conflict_sql

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


def _brute_force_witnesses(
    database: Database, dc: DenialConstraint
) -> set[frozenset[int]]:
    """Every satisfying assignment, by exhaustive enumeration."""
    schema = database.schema
    pools = [
        [
            (identifier, database[identifier])
            for identifier in database.relation_ids(relation)
        ]
        for _, relation in dc.variables
    ]
    names = [variable for variable, _ in dc.variables]
    found: set[frozenset[int]] = set()
    for combo in itertools.product(*pools):
        assignment = {
            name: fact for name, (_, fact) in zip(names, combo)
        }
        if all(p.evaluate(assignment, schema) for p in dc.predicates):
            found.add(frozenset(identifier for identifier, _ in combo))
    return found


class TestConflictRowsConformance:
    @pytest.mark.parametrize("case", range(25))
    def test_rows_match_brute_force(self, case, case_rng):
        rng = case_rng
        database, dc = _random_instance(rng)
        expected = _brute_force_witnesses(database, dc)
        rows = conflict_rows(dc, database)
        assert {frozenset(row) for row in rows} == expected
        # Nested-loop execution of the same query agrees row-for-row.
        assert sorted(rows) == sorted(
            conflict_rows(dc, database, force_nested_loop=True)
        )

    @pytest.mark.parametrize("case", range(10))
    def test_query_ast_matches_rendered_sql(self, case, case_rng):
        """conflict_query is the parse of conflict_sql whenever both exist."""
        from repro.sqlengine import parse_query

        rng = case_rng
        _, dc = _random_instance(rng)
        assert conflict_query(dc) == parse_query(conflict_sql(dc))

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


def _probe(dc: DenialConstraint, database: Database) -> ProbeEnumerator:
    (enumerator,), _, _ = build_enumerators("probe", [dc], database)
    return enumerator


_VALUE_DOMAINS = {
    "ints": (_int_cell, _int_constant),
    "mixed": (_mixed_cell, _mixed_cell),
}


class TestProbeConformance:
    """The compiled probe plans against the brute-force definition."""

    @pytest.mark.parametrize("values", sorted(_VALUE_DOMAINS))
    @pytest.mark.parametrize("case", range(30))
    def test_cold_matches_brute_force(self, values, case, case_rng):
        database, dc = _random_instance(case_rng, *_VALUE_DOMAINS[values])
        expected = _brute_force_witnesses(database, dc)
        assert _probe(dc, database).cold(database) == expected

    @pytest.mark.parametrize("values", sorted(_VALUE_DOMAINS))
    @pytest.mark.parametrize("case", range(30))
    def test_cold_chunks_union_matches_brute_force(self, values, case, case_rng):
        database, dc = _random_instance(case_rng, *_VALUE_DOMAINS[values])
        expected = _brute_force_witnesses(database, dc)
        enumerator = _probe(dc, database)
        # One seed fact first, then chunks of two: most instances split.
        enumerator.FIRST_CHUNK, enumerator.cold_chunk = 1, 2
        union: set[frozenset[int]] = set()
        for chunk in enumerator.cold_chunks(database):
            union |= chunk
        assert union == expected

    @pytest.mark.parametrize("values", sorted(_VALUE_DOMAINS))
    @pytest.mark.parametrize("case", range(30))
    def test_delta_matches_brute_force_touching_dirty(
        self, values, case, case_rng
    ):
        rng = case_rng
        database, dc = _random_instance(rng, *_VALUE_DOMAINS[values])
        identifiers = database.ids()
        dirty = set(rng.sample(identifiers, rng.randint(1, len(identifiers))))
        expected = {
            witness
            for witness in _brute_force_witnesses(database, dc)
            if witness & dirty
        }
        # An identifier outside the database (a deleted fact) is skipped.
        found = _probe(dc, database).delta(database, dirty | {10_000})
        assert found == expected


    def test_shared_nan_object_joins_nothing(self):
        """One NaN object in two facts shares an index bucket by identity,
        yet NaN equals nothing — not even itself."""
        schema = Schema.from_dict({"R": list(_ATTRIBUTES)})
        database = Database(schema)
        database.insert(Fact("R", (_NAN, 1)))
        database.insert(Fact("R", (_NAN, 2)))
        dc = DenialConstraint(
            [("t", "R"), ("t2", "R")],
            [Predicate(Term.col("t", "A"), ComparisonOp.EQ, Term.col("t2", "A"))],
            name="nan_join",
        )
        assert _brute_force_witnesses(database, dc) == set()
        enumerator = _probe(dc, database)
        assert enumerator.cold(database) == set()
        assert enumerator.delta(database, {0, 1}) == set()
