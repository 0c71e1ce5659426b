"""MeasurementSession: incremental maintenance and component-wise measures.

Two randomized invariants anchor the subsystem:

* after any sequence of inserts/deletes/updates, the session's patched
  ``ViolationIndex`` equals ``build_violation_index`` from scratch;
* every component-wise measure value equals the whole-database computation
  (naive references built directly on the solvers).
"""

from __future__ import annotations

import random

import pytest

from repro.constraints import FunctionalDependency, parse_dc
from repro.constraints.base import ComparisonOp
from repro.constraints.dc import DenialConstraint, Predicate, Term
from repro.measures import TABLE2_MEASURES, make_measure
from repro.relational import Database, Fact, Schema
from repro.repairs.costs import deletion_costs, subset_cost
from repro.session import MeasurementSession
from repro.solvers.cliques import maximal_sets_avoiding
from repro.solvers.simplex import LpProblem, Sense, solve_lp
from repro.solvers.vertex_cover import minimum_hitting_set
from repro.violations import build_violation_index


def _random_fact(rng: random.Random) -> Fact:
    return Fact("R", (rng.randint(0, 4), rng.choice("xyz"), rng.randint(0, 30)))


def _random_mutation(rng: random.Random, database: Database) -> None:
    choice = rng.random()
    identifiers = database.ids()
    if choice < 0.5 and identifiers:
        attribute = rng.choice(["A", "B", "C"])
        value = rng.randint(0, 6) if rng.random() < 0.7 else rng.choice("xyz")
        database.update(rng.choice(identifiers), attribute, value)
    elif choice < 0.75 or not identifiers:
        database.insert(_random_fact(rng))
    else:
        database.delete(rng.choice(identifiers))


def _constraint_suites():
    binary = [
        FunctionalDependency("R", {"A"}, {"B"}),
        parse_dc("not(t.A > t.C)", "R", name="order"),
        parse_dc("not(t.A = t2.A, t.C > t2.C, t.B != t2.B)", "R", name="mixed"),
    ]
    wide = [
        FunctionalDependency("R", {"A"}, {"B"}),
        DenialConstraint(
            [("x", "R"), ("y", "R"), ("z", "R")],
            [
                Predicate(Term.col("x", "A"), ComparisonOp.EQ, Term.col("y", "A")),
                Predicate(Term.col("y", "A"), ComparisonOp.EQ, Term.col("z", "A")),
                Predicate(Term.col("x", "C"), ComparisonOp.GT, Term.col("y", "C")),
                Predicate(Term.col("y", "C"), ComparisonOp.GT, Term.col("z", "C")),
            ],
            name="wide3",
        ),
    ]
    # Not batch-compilable (t3 shares a predicate with t but no equality),
    # so the probe serves it and its equality join reads the equality index.
    probe_join = [
        FunctionalDependency("R", {"A"}, {"B"}),
        DenialConstraint(
            [("t", "R"), ("t2", "R"), ("t3", "R")],
            [
                Predicate(Term.col("t", "A"), ComparisonOp.EQ, Term.col("t2", "A")),
                Predicate(Term.col("t3", "B"), ComparisonOp.LT, Term.col("t", "B")),
                Predicate(Term.col("t", "C"), ComparisonOp.NE, Term.col("t2", "C")),
            ],
            name="probe_join",
        ),
    ]
    return {"binary": binary, "wide": wide, "probe_join": probe_join}


@pytest.fixture
def schema() -> Schema:
    return Schema.from_dict({"R": ["A", "B", "C"]})


class TestIncrementalMaintenance:
    @pytest.mark.parametrize("suite", ["binary", "wide"])
    @pytest.mark.parametrize("case", [0, 1, 2])
    def test_random_deltas_match_full_rebuild(self, schema, suite, case, case_rng):
        rng = case_rng
        database = Database.from_facts(
            schema, [_random_fact(rng) for _ in range(25)]
        )
        constraints = _constraint_suites()[suite]
        with MeasurementSession(constraints, database) as session:
            for step in range(120):
                _random_mutation(rng, database)
                if step % rng.choice([1, 2, 3]) == 0:
                    incremental = session.index()
                    full = build_violation_index(constraints, database)
                    assert incremental.mi_sets == full.mi_sets, f"step {step}"
                    assert {
                        (v.fact_ids, v.constraint.name)
                        for v in incremental.per_constraint
                    } == {
                        (v.fact_ids, v.constraint.name)
                        for v in full.per_constraint
                    }, f"step {step}"

    def test_batched_deltas_flush_once(self, schema, case_rng):
        rng = case_rng
        database = Database.from_facts(
            schema, [_random_fact(rng) for _ in range(20)]
        )
        constraints = _constraint_suites()["binary"]
        with MeasurementSession(constraints, database) as session:
            session.index()
            for _ in range(40):
                _random_mutation(rng, database)
            assert session.pending_deltas > 0
            incremental = session.index()
            assert session.pending_deltas == 0
            assert incremental.mi_sets == build_violation_index(
                constraints, database
            ).mi_sets

    def test_session_mutators_and_close(self, schema):
        database = Database.from_rows(
            schema, "R", [(1, "x", 5), (1, "y", 5)]
        )
        constraints = [FunctionalDependency("R", {"A"}, {"B"})]
        session = MeasurementSession(constraints, database)
        assert not session.is_consistent()
        assert session.update(1, "B", "x")
        assert session.is_consistent()
        new_id = session.insert(Fact("R", (1, "z", 0)))
        assert not session.is_consistent()
        assert session.delete(new_id)
        assert session.is_consistent()
        session.close()
        # After close the session no longer tracks the database.
        database.insert(Fact("R", (1, "w", 0)))
        assert session.is_consistent()

    def test_apply_operations_and_measure_batch(self, schema):
        from repro.repairs.operations import DeleteOperation, UpdateOperation

        database = Database.from_rows(
            schema, "R", [(1, "x", 5), (1, "y", 5), (2, "x", 0), (2, "y", 0)]
        )
        constraints = [FunctionalDependency("R", {"A"}, {"B"})]
        with MeasurementSession(constraints, database) as session:
            values = session.measure_all(
                [make_measure(name) for name in ("I_MI", "I_P", "I_R")]
            )
            assert values == {"I_MI": 2.0, "I_P": 4.0, "I_R": 2.0}
            session.apply([DeleteOperation(0), UpdateOperation(3, "B", "x")])
            assert session.measure(make_measure("I_MI")) == 0.0
            assert session.is_consistent()
            full = build_violation_index(constraints, database)
            assert session.index().mi_sets == full.mi_sets

    def test_refresh_recovers_from_untracked_state(self, schema):
        database = Database.from_rows(schema, "R", [(1, "x", 5), (1, "y", 5)])
        constraints = [FunctionalDependency("R", {"A"}, {"B"})]
        session = MeasurementSession(constraints, database)
        session.close()
        database.insert(Fact("R", (2, "x", 0)))
        database.insert(Fact("R", (2, "y", 0)))
        assert len(session.refresh().mi_sets) == 2


def _reference_value(name: str, constraints, database, index) -> float:
    """Whole-database (non-decomposed) reference for each Table 2 measure."""
    if name == "I_d":
        return 0.0 if index.is_consistent() else 1.0
    if name == "I_MI":
        return float(len(index.mi_sets))
    if name == "I_P":
        return float(len(index.problematic))
    if name in ("I_MC", "I'_MC"):
        poisoned = index.self_inconsistent
        usable = [i for i in database.ids() if i not in poisoned]
        groups = [g for g in index.mi_sets if len(g) >= 2]
        count = (
            sum(1 for _ in maximal_sets_avoiding(usable, groups))
            if groups
            else 1
        )
        extra = len(poisoned) if name == "I'_MC" else 0
        return float(count + extra - 1)
    weights = deletion_costs(database, subset_cost)
    if name == "I_R":
        value, _ = minimum_hitting_set(list(index.mi_sets), weights)
        return float(value)
    if name == "I_lin_R":
        if index.is_consistent():
            return 0.0
        involved = sorted(index.problematic)
        position = {i: k for k, i in enumerate(involved)}
        problem = LpProblem(
            num_vars=len(involved),
            objective={position[i]: weights[i] for i in involved},
        )
        for group in index.mi_sets:
            problem.add_row({position[i]: 1.0 for i in group}, Sense.GE, 1.0)
        return float(solve_lp(problem).objective)
    raise KeyError(name)


class TestComponentwiseEqualsWholeDatabase:
    @pytest.mark.parametrize("suite", ["binary", "wide"])
    @pytest.mark.parametrize("case", [0, 1])
    def test_all_table2_measures(self, schema, suite, case, case_rng):
        rng = case_rng
        constraints = _constraint_suites()[suite]
        # Redraw (deterministically, from the case's stream) until the
        # sample is inconsistent with a non-trivial component split.
        for _ in range(50):
            database = Database.from_facts(
                schema, [_random_fact(rng) for _ in range(14)]
            )
            index = build_violation_index(constraints, database)
            if not index.is_consistent() and len(index.components()) > 1:
                break
        else:
            pytest.fail("no multi-component inconsistent sample in 50 draws")
        for name in TABLE2_MEASURES:
            componentwise = make_measure(name).value(
                constraints, database, index
            )
            reference = _reference_value(name, constraints, database, index)
            assert componentwise == pytest.approx(reference), name

    def test_consistent_database_is_all_zero(self, schema):
        database = Database.from_rows(schema, "R", [(1, "x", 5), (2, "y", 6)])
        constraints = _constraint_suites()["binary"]
        index = build_violation_index(constraints, database)
        assert index.components() == []
        for name in TABLE2_MEASURES:
            assert make_measure(name).value(constraints, database, index) == 0.0

    def test_mc_multiplies_over_components(self, schema):
        # Two disjoint FD conflict pairs: |MC| = 2 · 2, I_MC = 3.
        database = Database.from_rows(
            schema,
            "R",
            [(1, "x", 0), (1, "y", 0), (2, "x", 0), (2, "y", 0)],
        )
        constraints = [FunctionalDependency("R", {"A"}, {"B"})]
        index = build_violation_index(constraints, database)
        assert len(index.components()) == 2
        assert make_measure("I_MC").value(constraints, database, index) == 3.0
