"""One-shot detection against a brute-force oracle and against the session.

The one-shot entry points (``build_violation_index``, ``is_consistent``,
``find_first_violation``) run a cold build of the session's enumerators:
compiled batch plans, with hash joins along each DC's equality graph and
cross steps between its disconnected parts.  Comparing them with a session
only shows that the two agree, so this suite also checks them against the
shared brute-force oracle (``tests/oracle.py``), which shares no code with
any enumerator.
Random databases have at most six facts over tiny domains mixing ints,
strings, ``None`` and NaN, and every case runs on both column backends.
"""

from __future__ import annotations

import random

import pytest

import repro.session.columnar as columnar
from repro.constraints import (
    Atom,
    EqualityGeneratingDependency,
    FunctionalDependency,
)
from repro.constraints.base import ComparisonOp
from repro.constraints.dc import DenialConstraint, Predicate, Term
from repro.datasets import DATASET_ORDER, generate_sample
from repro.noise import CONoise
from repro.relational import Database, Fact, Schema
from repro.session import make_session
from repro.session.enumeration import plan_pin
from repro.violations import (
    build_violation_index,
    find_first_violation,
    is_consistent,
    lower_constraints,
)

from ..oracle import brute_force_witnesses, minimal_sets

_SCHEMA = Schema.from_dict({"R": ["A", "B", "C"], "S": ["A", "B"]})

_NAN = float("nan")

#: Cell values besides the small ints: strs, NULL and NaN.
_ODD_VALUES = ("x", "y", None, _NAN)


@pytest.fixture(params=["list", "numpy"])
def backend(request, monkeypatch):
    """Run the one-shot path on one process-default column backend."""
    if request.param == "numpy":
        pytest.importorskip("numpy")
    monkeypatch.setattr(columnar, "VECTOR_BACKEND", request.param)
    return request.param


def _col(variable: str, attribute: str) -> Term:
    return Term.col(variable, attribute)


def _shapes() -> dict[str, object]:
    """One constraint per shape the one-shot engine must cover."""
    return {
        "fd": FunctionalDependency("R", {"A"}, {"B"}),
        "equality_join": DenialConstraint(
            [("t", "R"), ("s", "S")],
            [
                Predicate(_col("t", "A"), ComparisonOp.EQ, _col("s", "A")),
                Predicate(_col("t", "B"), ComparisonOp.LT, _col("s", "B")),
            ],
            name="equality_join",
        ),
        "inequality_only": DenialConstraint(
            [("t", "R"), ("u", "R")],
            [
                Predicate(_col("t", "B"), ComparisonOp.LT, _col("u", "B")),
                Predicate(_col("t", "C"), ComparisonOp.GE, _col("u", "C")),
            ],
            name="inequality_only",
        ),
        "width3_connected": DenialConstraint(
            [("t", "R"), ("u", "R"), ("v", "S")],
            [
                Predicate(_col("t", "A"), ComparisonOp.EQ, _col("u", "A")),
                Predicate(_col("u", "B"), ComparisonOp.EQ, _col("v", "A")),
                Predicate(_col("t", "C"), ComparisonOp.NE, _col("v", "B")),
            ],
            name="width3_connected",
        ),
        "width3_lone": DenialConstraint(
            [("t", "R"), ("u", "R"), ("v", "S")],
            [
                Predicate(_col("t", "A"), ComparisonOp.EQ, _col("u", "A")),
                Predicate(_col("t", "B"), ComparisonOp.NE, _col("u", "B")),
                Predicate(_col("v", "B"), ComparisonOp.LE, Term.const(1)),
            ],
            name="width3_lone",
        ),
        "unary": DenialConstraint(
            [("t", "R")],
            [
                Predicate(_col("t", "B"), ComparisonOp.GT, _col("t", "C")),
                Predicate(_col("t", "A"), ComparisonOp.NE, Term.const(2)),
            ],
            name="unary",
        ),
        "egd": EqualityGeneratingDependency(
            [Atom("S", ("x", "y")), Atom("S", ("y", "z"))], "x", "z"
        ),
    }


SHAPES = sorted(_shapes())


def _random_database(rng: random.Random) -> Database:
    database = Database(_SCHEMA)
    for _ in range(rng.randint(1, 6)):
        relation = rng.choice(("R", "S"))
        arity = len(_SCHEMA.signature(relation).attributes)
        database.insert(
            Fact(relation, tuple(_random_value(rng) for _ in range(arity)))
        )
    return database


def _random_value(rng: random.Random):
    if rng.random() < 0.75:
        return rng.randint(0, 2)
    return rng.choice(_ODD_VALUES)


def _check_against_oracle(constraints, database: Database) -> None:
    dcs = lower_constraints(constraints, database.schema)
    families = [brute_force_witnesses(dc, database) for dc in dcs]
    expected_mi = minimal_sets(set().union(*families))

    index = build_violation_index(constraints, database)
    assert set(index.mi_sets) == expected_mi
    assert len(index.mi_sets) == len(expected_mi)
    assert [
        (violation.constraint, violation.fact_ids)
        for violation in index.per_constraint
    ] == [
        (dc, witness)
        for dc, family in zip(dcs, families)
        for witness in sorted(family, key=sorted)
    ]

    assert is_consistent(constraints, database) == (not expected_mi)
    first = find_first_violation(constraints, database)
    if not expected_mi:
        assert first is None
        return
    assert first is not None
    position = next(i for i, family in enumerate(families) if family)
    assert first.constraint == dcs[position]
    assert first.fact_ids in families[position]


@pytest.mark.parametrize("shape", SHAPES)
def test_oneshot_matches_brute_force(shape, backend, case_rng):
    constraint = _shapes()[shape]
    for _ in range(100):
        _check_against_oracle([constraint], _random_database(case_rng))


def test_mixed_constraint_set_matches_brute_force(backend, case_rng):
    constraints = list(_shapes().values())
    for _ in range(60):
        _check_against_oracle(constraints, _random_database(case_rng))


def _keyless_steps(dc: DenialConstraint) -> int:
    """Join steps without a hash key in *dc*'s pin-0 plan (cross steps)."""
    plan = plan_pin(dc, 0, live_count=lambda relation: 0)
    return sum(not step.keys for step in plan.steps)


def test_shapes_cover_keyed_and_cross_steps():
    crosses = {
        shape: sum(
            _keyless_steps(dc)
            for dc in lower_constraints([_shapes()[shape]], _SCHEMA)
        )
        for shape in SHAPES
    }
    assert crosses["inequality_only"] == 1
    assert crosses["width3_lone"] == 1
    assert all(
        count == 0
        for shape, count in crosses.items()
        if shape not in ("inequality_only", "width3_lone")
    )


def test_early_exit_stops_at_first_chunk(backend, monkeypatch):
    """A witness in the first seed chunk never runs the later chunks."""
    schema = Schema.from_dict({"R": ["A", "B", "C"]})
    rows = [(1, "x", 0), (1, "y", 0)] + [(n, "x", 0) for n in range(2, 2000)]
    database = Database.from_rows(schema, "R", rows)
    fd = FunctionalDependency("R", {"A"}, {"B"})
    chunks_run = _count_chunks(monkeypatch)
    assert not is_consistent([fd], database)
    violation = find_first_violation([fd], database)
    assert violation.fact_ids == frozenset({0, 1})
    # One chunk per call: the early exit never reached the other 1936 seeds.
    assert chunks_run == [1, 1]


def test_early_exit_on_inequality_only_dc(backend, monkeypatch):
    """A DC joined only by a cross step stops at its first chunk too."""
    schema = Schema.from_dict({"R": ["A", "B", "C"]})
    rows = [(2, "x", 0), (1, "x", 1)] + [(n, "x", n) for n in range(2, 2000)]
    database = Database.from_rows(schema, "R", rows)
    dominance = DenialConstraint(
        [("t", "R"), ("t2", "R")],
        [
            Predicate(Term.col("t", "A"), ComparisonOp.GT, Term.col("t2", "A")),
            Predicate(Term.col("t", "C"), ComparisonOp.LT, Term.col("t2", "C")),
        ],
        name="dominance",
    )
    assert _keyless_steps(dominance) == 1
    chunks_run = _count_chunks(monkeypatch)
    violation = find_first_violation([dominance], database)
    assert violation.fact_ids == frozenset({0, 1})
    assert len(chunks_run) == 1


def _count_chunks(monkeypatch) -> list[int]:
    """Record the witness count of every cold chunk any enumerator runs."""
    from repro.session.enumeration import WitnessEnumerator

    chunks_run: list[int] = []
    run = WitnessEnumerator._seed_chunks

    def counting(self, first):
        for part in run(self, first):
            chunks_run.append(len(part))
            yield part

    monkeypatch.setattr(WitnessEnumerator, "_seed_chunks", counting)
    return chunks_run


@pytest.mark.parametrize("dataset", DATASET_ORDER)
def test_oneshot_index_equals_session_index(dataset):
    database, constraints = generate_sample(dataset, 120, seed=48)
    CONoise(constraints, seed=7).run(database, 6)
    oneshot = build_violation_index(constraints, database)
    with make_session(list(constraints), database) as session:
        live = session.index()
    assert oneshot.per_constraint == live.per_constraint
    assert oneshot.mi_sets == live.mi_sets
