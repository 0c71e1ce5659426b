"""Compiled batch plans == brute force, on random and hand-written DCs.

The session's witness enumerator (:class:`repro.session.WitnessEnumerator`)
is pinned to the definition — "all assignments of facts to tuple variables
satisfying every predicate" — as a brute-force evaluation of the DC body
(``Predicate.evaluate``, see ``tests/oracle.py``) computes it.  Random DCs
(equality joins, inequalities, constants, NULL-heavy columns, widths 1–3,
connected or not) over random databases, plus hand-written cases with
their witnesses stated, run on both column backends: the enumerator's cold
family, the union of its cold chunks and its delta over a random dirty
subset all equal the oracle's fact-id sets.  The numpy store runs each
delta on both sides of its scalar crossover (``SCALAR_DELTA_ROWS``
patched to 0 and to a huge value), and its arrays must equal the list
store it owns afterwards.  A mixed-value variant (ints,
strs, floats with NaN, bools, NULL) checks the compiled comparison kernels
against ``ComparisonOp.evaluate``.
"""

from __future__ import annotations

import importlib.util
import random

import pytest

from repro.constraints import FunctionalDependency, parse_dc
from repro.constraints.base import ComparisonOp
from repro.constraints.dc import DenialConstraint, Predicate, Term
from repro.relational import Database, Fact, Schema
from repro.session import WitnessEnumerator, build_enumerators
from repro.session.enumeration import group_by_relation
from repro.testing.layout import column_backend

from ..oracle import (
    ATTRIBUTES,
    brute_force_witnesses,
    int_cell,
    int_constant,
    random_instance,
)
from ..session.test_vectorized import assert_store_consistent

#: The numpy backend with a 64-pair expansion budget: most random
#: instances then run their hash and cross steps in several blocks.
NUMPY_BLOCKED = "numpy-64"

#: The numpy store with every delta on the scalar path (the list kernels
#: over its owned list store); "numpy" and NUMPY_BLOCKED send every delta
#: to the numpy kernels.
NUMPY_SCALAR = "numpy-scalar"

#: Column backends available in this process ("list" always is).
BACKENDS = ["list"] + (
    ["numpy", NUMPY_BLOCKED, NUMPY_SCALAR]
    if importlib.util.find_spec("numpy")
    else []
)

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


def _dc(variables, *predicates) -> DenialConstraint:
    """``_dc([("t", "R")], ("t", "A", "<", 10))``: a column operand is a
    ``(variable, attribute)`` pair, anything else a constant."""

    def term(operand) -> Term:
        if isinstance(operand, tuple):
            return Term.col(*operand)
        return Term.const(operand)

    return DenialConstraint(
        variables,
        [
            Predicate(term(left), ComparisonOp.parse(op), term(right))
            for left, op, right in predicates
        ],
        name="hand_dc",
    )


def _payroll() -> Database:
    """``R(St, Salary, Tax)`` facts 0–4 and ``S(St, Code)`` facts 5–6."""
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


def _paper_salary_tax():
    # The paper's conflict query: within a state, a higher salary must not
    # pay less tax.  Fact 1 (200/5) conflicts with 0 (100/10) and 3 (150/20).
    dc = _dc(
        [("t", "R"), ("t2", "R")],
        (("t", "St"), "=", ("t2", "St")),
        (("t", "Salary"), ">", ("t2", "Salary")),
        (("t", "Tax"), "<", ("t2", "Tax")),
    )
    return _payroll(), dc, {frozenset({1, 0}), frozenset({1, 3})}


def _null_never_joins():
    # The NULLs of facts 0 and 1 join nothing, not even each other.
    schema = Schema.from_dict({"T": ["A", "B"]})
    database = Database.from_rows(
        schema, "T", [(None, 0), (None, 1), (1, 2), (1, 3)]
    )
    dc = _dc(
        [("t", "T"), ("t2", "T")],
        (("t", "A"), "=", ("t2", "A")),
        (("t", "B"), "<", ("t2", "B")),
    )
    return database, dc, {frozenset({2, 3})}


def _null_comparison_false():
    schema = Schema.from_dict({"T": ["A"]})
    database = Database.from_rows(schema, "T", [(None,), (5,)])
    dc = _dc([("t", "T")], (("t", "A"), "<", 10))
    return database, dc, {frozenset({1})}


def _cross_relation_constant_filter():
    dc = _dc(
        [("t", "R"), ("s", "S")],
        (("t", "St"), "=", ("s", "St")),
        (("t", "Salary"), ">", 90),
    )
    return _payroll(), dc, {frozenset({r, 5}) for r in (0, 1, 3)}


def _pure_cross_product():
    dc = _dc([("t", "R"), ("s", "S")])
    return _payroll(), dc, {frozenset({r, s}) for r in range(5) for s in (5, 6)}


def _quoted_string_constant():
    schema = Schema.from_dict({"Airport": ["Name"]})
    database = Database.from_rows(
        schema, "Airport", [("O'Hare",), ("JFK",), ("O''Hare",)]
    )
    return database, parse_dc("not(t.Name = 'O''Hare')", "Airport"), {frozenset({0})}


def _fd_symmetric_pair():
    # Both orders (0, 1) and (1, 0) satisfy the body: one witness.
    schema = Schema.from_dict({"R": ["A", "B"]})
    database = Database.from_rows(schema, "R", [(1, "x"), (1, "y")])
    dc = FunctionalDependency("R", {"A"}, {"B"}).to_dc()
    return database, dc, {frozenset({0, 1})}


def _string_constant_filter():
    dc = _dc([("t", "R")], (("t", "St"), "=", "CA"))
    return _payroll(), dc, {frozenset({2}), frozenset({4})}


def _int_constant_at_most():
    dc = _dc([("t", "R")], (("t", "Tax"), "<=", 2))
    return _payroll(), dc, {frozenset({2}), frozenset({4})}


def _chain() -> Database:
    """``R(A, B)`` facts 0–1, ``S(B, C)`` facts 2–4, ``T(C, D)`` facts 5–6."""
    schema = Schema.from_dict({"R": ["A", "B"], "S": ["B", "C"], "T": ["C", "D"]})
    database = Database(schema)
    for relation, rows in (
        ("R", [(1, 10), (2, 20)]),
        ("S", [(10, 100), (20, 200), (10, 300)]),
        ("T", [(100, "x"), (300, "y")]),
    ):
        for row in rows:
            database.insert(Fact(relation, row))
    return database


_CHAIN_VARIABLES = [("r", "R"), ("s", "S"), ("t", "T")]
_CHAIN_JOINS = (
    (("r", "B"), "=", ("s", "B")),
    (("s", "C"), "=", ("t", "C")),
)


def _three_table_chain_join():
    # R's fact 1 reaches S's fact 3, whose C = 200 matches no T fact.
    dc = _dc(_CHAIN_VARIABLES, *_CHAIN_JOINS)
    return _chain(), dc, {frozenset({0, 2, 5}), frozenset({0, 4, 6})}


def _three_table_filter_on_last():
    dc = _dc(_CHAIN_VARIABLES, *_CHAIN_JOINS, (("t", "D"), "=", "y"))
    return _chain(), dc, {frozenset({0, 4, 6})}


def _triple_cross_product():
    dc = _dc(_CHAIN_VARIABLES)
    return _chain(), dc, {
        frozenset({r, s, t}) for r in (0, 1) for s in (2, 3, 4) for t in (5, 6)
    }


def _self_join_binds_one_fact_twice():
    # Only fact 2 equals anything (itself): its witness is a singleton.
    schema = Schema.from_dict({"R": ["A"]})
    database = Database.from_rows(schema, "R", [(None,), (None,), (1,)])
    dc = _dc([("t", "R"), ("t2", "R")], (("t", "A"), "=", ("t2", "A")))
    return database, dc, {frozenset({2})}


def _attribute_named_id():
    # A real attribute called ID is an ordinary column, not a fact id.
    schema = Schema.from_dict({"T": ["ID", "A"]})
    database = Database.from_rows(schema, "T", [(7, "x"), (7, "y"), (8, "z")])
    dc = _dc(
        [("t", "T"), ("t2", "T")],
        (("t", "ID"), "=", ("t2", "ID")),
        (("t", "A"), "!=", ("t2", "A")),
    )
    return database, dc, {frozenset({0, 1})}


#: Hand-written (database, DC, stated witnesses) cases by name.
_HAND_WRITTEN = {
    builder.__name__.lstrip("_"): builder
    for builder in (
        _paper_salary_tax,
        _null_never_joins,
        _null_comparison_false,
        _cross_relation_constant_filter,
        _pure_cross_product,
        _quoted_string_constant,
        _fd_symmetric_pair,
        _string_constant_filter,
        _int_constant_at_most,
        _three_table_chain_join,
        _three_table_filter_on_last,
        _triple_cross_product,
        _self_join_binds_one_fact_twice,
        _attribute_named_id,
    )
}

_VALUE_DOMAINS = {
    "ints": (int_cell, int_constant),
    "mixed": (_mixed_cell, _mixed_cell),
}

#: ``(values, case)`` inputs: 30 random instances per value domain, then
#: every hand-written case (``values`` None).
_INSTANCES = [
    pytest.param(values, case, id=f"{case}-{values}")
    for values in sorted(_VALUE_DOMAINS)
    for case in range(30)
] + [pytest.param(None, name, id=name) for name in _HAND_WRITTEN]


def _instance(values, case, rng: random.Random):
    """The (database, DC) of one ``_INSTANCES`` entry, and the oracle's
    witnesses — checked against the stated ones for a hand-written case."""
    if values is None:
        database, dc, stated = _HAND_WRITTEN[case]()
        expected = brute_force_witnesses(dc, database)
        assert expected == stated
    else:
        database, dc = random_instance(rng, *_VALUE_DOMAINS[values])
        expected = brute_force_witnesses(dc, database)
    return database, dc, expected


def _enumerator(
    dc: DenialConstraint, database: Database, backend: str
) -> WitnessEnumerator:
    with column_backend("list" if backend == "list" else "numpy"):
        (enumerator,), _ = build_enumerators([dc], database)
    return enumerator


@pytest.mark.parametrize("backend", BACKENDS)
class TestBatchConformance:
    """The compiled batch plans against the brute-force definition."""

    @pytest.fixture(autouse=True)
    def _pair_budget(self, backend, monkeypatch):
        if backend == "list":
            return
        import repro.session.vectorized as vectorized

        if backend == NUMPY_BLOCKED:
            monkeypatch.setattr(vectorized, "CROSS_PAIR_BUDGET", 64)
        scalar = 1 << 30 if backend == NUMPY_SCALAR else 0
        monkeypatch.setattr(vectorized, "SCALAR_DELTA_ROWS", scalar)

    @pytest.mark.parametrize("values, case", _INSTANCES)
    def test_cold_matches_brute_force(self, backend, values, case, case_rng):
        database, dc, expected = _instance(values, case, case_rng)
        assert _enumerator(dc, database, backend).cold(database) == expected

    @pytest.mark.parametrize("values, case", _INSTANCES)
    def test_cold_chunks_union_matches_brute_force(
        self, backend, values, case, case_rng
    ):
        database, dc, expected = _instance(values, case, case_rng)
        enumerator = _enumerator(dc, database, backend)
        # One seed fact first, then chunks of two: most instances split.
        enumerator.FIRST_CHUNK, enumerator.cold_chunk = 1, 2
        union: set[frozenset[int]] = set()
        for chunk in enumerator.cold_chunks(database):
            union |= chunk
        assert union == expected

    @pytest.mark.parametrize("values, case", _INSTANCES)
    def test_delta_matches_brute_force_touching_dirty(
        self, backend, values, case, case_rng
    ):
        rng = case_rng
        database, dc, everything = _instance(values, case, rng)
        identifiers = database.ids()
        dirty = set(rng.sample(identifiers, rng.randint(1, len(identifiers))))
        expected = {witness for witness in everything if witness & dirty}
        # An identifier outside the database (a deleted fact) is skipped.
        enumerator = _enumerator(dc, database, backend)
        found = enumerator.delta(group_by_relation(database, dirty | {10_000}))
        assert found == expected
        assert_store_consistent(enumerator.store)

    @pytest.mark.parametrize("values, case", _INSTANCES)
    def test_blocks_split_mid_batch(
        self, backend, values, case, case_rng, monkeypatch
    ):
        """A pair budget of three splits every numpy hash and cross step
        into blocks of a candidate or so; the survivors still union
        exactly."""
        if backend != "list":
            import repro.session.vectorized as vectorized

            monkeypatch.setattr(vectorized, "CROSS_PAIR_BUDGET", 3)
        database, dc, expected = _instance(values, case, case_rng)
        enumerator = _enumerator(dc, database, backend)
        assert enumerator.cold(database) == expected
        everything = set(database.ids())
        by_relation = group_by_relation(database, everything)
        assert enumerator.delta(by_relation) == expected

    def test_shared_nan_object_joins_nothing(self, backend):
        """One NaN object in two facts would share a dict bucket by
        identity, yet NaN equals nothing — not even itself."""
        schema = Schema.from_dict({"R": list(ATTRIBUTES)})
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
        by_relation = group_by_relation(database, {0, 1})
        assert enumerator.delta(by_relation) == set()
