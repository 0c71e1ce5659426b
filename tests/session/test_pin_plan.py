"""The pin planner: one DC's join order and predicate placement per seed.

:func:`repro.session.enumeration.plan_pin` turns a DC, a pinned tuple
variable and the live row counts into the linear plan both column backends
compile.  These cases pin its order rules (the seed stays first, equality
reachability, unreachable variables last, cost tie-break), where each
predicate lands, that any join order yields the same witnesses, and that
terms resolve to the DC's real attributes — an attribute named ``ID``
included.
"""

from __future__ import annotations

import importlib.util

import pytest

import repro
import repro.session.enumeration as enumeration
from repro.constraints.base import ComparisonOp
from repro.constraints.dc import DenialConstraint, Predicate, Term
from repro.measures import make_measure
from repro.relational import Database, Fact, Schema
from repro.session import build_enumerators, make_session
from repro.session.enumeration import group_by_relation, plan_pin
from repro.testing.layout import column_backend
from repro.violations import build_violation_index

from ..oracle import brute_force_witnesses, minimal_sets, random_instance

BACKENDS = ["list"] + (["numpy"] if importlib.util.find_spec("numpy") else [])

EQ, NE, LT, GT = ComparisonOp.EQ, ComparisonOp.NE, ComparisonOp.LT, ComparisonOp.GT


def _col(variable: str, attribute: str) -> Term:
    return Term.col(variable, attribute)


def _pred(left: Term, op: ComparisonOp, right: Term) -> Predicate:
    return Predicate(left, op, right)


def _dc(relations: dict[str, str], *predicates: Predicate) -> DenialConstraint:
    return DenialConstraint(list(relations.items()), list(predicates), name="dc")


def _uniform(relation: str) -> int:
    return 0


THREE = {"t0": "R", "t1": "R", "t2": "R"}


class TestOrder:
    def test_seed_stays_first(self):
        dc = _dc(
            THREE,
            _pred(_col("t0", "A"), EQ, _col("t1", "A")),
            _pred(_col("t1", "B"), EQ, _col("t2", "B")),
        )
        for pin, seed in enumerate(["t0", "t1", "t2"]):
            plan = plan_pin(dc, pin, _uniform)
            assert plan.seed == seed
            assert plan.order[0] == seed
            assert sorted(plan.order) == ["t0", "t1", "t2"]

    def test_follows_equality_reachability(self):
        # Variable order t0, t1, t2, but the equality edges are t0–t2 and
        # t2–t1: binding t1 second would be a cross step.
        dc = _dc(
            THREE,
            _pred(_col("t0", "A"), EQ, _col("t2", "A")),
            _pred(_col("t2", "B"), EQ, _col("t1", "B")),
        )
        plan = plan_pin(dc, 0, _uniform)
        assert plan.order == ("t0", "t2", "t1")
        assert all(step.keys for step in plan.steps)

    def test_unreachable_variables_come_last(self):
        dc = _dc(THREE, _pred(_col("t0", "A"), EQ, _col("t2", "A")))
        plan = plan_pin(dc, 0, _uniform)
        assert plan.order == ("t0", "t2", "t1")
        assert [bool(step.keys) for step in plan.steps] == [True, False]

    def test_cost_breaks_ties_among_reachable(self):
        sizes = {"Big": 1000, "Small": 10, "Seed": 1}
        relations = {"t0": "Seed", "t1": "Big", "t2": "Small"}
        dc = _dc(
            relations,
            _pred(_col("t0", "A"), EQ, _col("t1", "A")),
            _pred(_col("t0", "A"), EQ, _col("t2", "A")),
        )
        assert plan_pin(dc, 0, sizes.__getitem__).order == ("t0", "t2", "t1")
        # Equal costs keep the variable order rotated to the seed.
        assert plan_pin(dc, 0, _uniform).order == ("t0", "t1", "t2")

    def test_reachability_beats_cost(self):
        sizes = {"Big": 1000, "Small": 10, "Seed": 1}
        relations = {"t0": "Seed", "t1": "Big", "t2": "Small"}
        dc = _dc(relations, _pred(_col("t0", "A"), EQ, _col("t1", "A")))
        plan = plan_pin(dc, 0, sizes.__getitem__)
        assert plan.order == ("t0", "t1", "t2")

    def test_ties_follow_rotated_order(self):
        dc = _dc(THREE, _pred(_col("t0", "A"), LT, _col("t1", "A")))
        assert plan_pin(dc, 1, _uniform).order == ("t1", "t2", "t0")
        assert plan_pin(dc, 2, _uniform).order == ("t2", "t0", "t1")


class TestPlacement:
    def test_each_predicate_lands_once(self):
        key = _pred(_col("t", "A"), EQ, _col("t2", "A"))
        seed_filter = _pred(_col("t", "B"), GT, Term.const(3))
        pre_filter = _pred(_col("t2", "C"), EQ, _col("t2", "B"))
        residual = _pred(_col("t", "C"), LT, _col("t2", "C"))
        constant = _pred(Term.const(1), LT, Term.const(2))
        dc = _dc(
            {"t": "R", "t2": "R"},
            key, seed_filter, pre_filter, residual, constant,
        )
        plan = plan_pin(dc, 0, _uniform)
        assert plan.seed_filters == (seed_filter,)
        (step,) = plan.steps
        assert step.variable == "t2"
        assert step.keys == ((key.left, key.right),)
        assert step.pre_filters == (pre_filter,)
        assert step.residual == (residual, constant)
        assert plan.final == ()
        # Pinned on t2, the key turns round: bound side first.
        flipped = plan_pin(dc, 1, _uniform)
        assert flipped.seed_filters == (pre_filter,)
        assert flipped.steps[0].keys == ((key.right, key.left),)
        assert flipped.steps[0].pre_filters == (seed_filter,)

    def test_residual_waits_for_its_last_variable(self):
        late = _pred(_col("t0", "B"), NE, _col("t2", "B"))
        dc = _dc(
            THREE,
            _pred(_col("t0", "A"), EQ, _col("t1", "A")),
            _pred(_col("t1", "A"), EQ, _col("t2", "A")),
            late,
        )
        plan = plan_pin(dc, 0, _uniform)
        assert [step.variable for step in plan.steps] == ["t1", "t2"]
        assert plan.steps[0].residual == ()
        assert plan.steps[1].residual == (late,)

    def test_one_variable_dc_keeps_constants_final(self):
        constant = _pred(Term.const(1), LT, Term.const(2))
        dc = _dc({"t": "R"}, _pred(_col("t", "A"), GT, Term.const(0)), constant)
        plan = plan_pin(dc, 0, _uniform)
        assert plan.steps == ()
        assert plan.final == (constant,)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", range(15))
def test_any_join_order_yields_the_same_witnesses(
    backend, case, case_rng, monkeypatch
):
    """Live counts only permute the join order, never the witness family."""
    database, dc = random_instance(case_rng)
    costs = {relation: case_rng.randint(0, 3) for relation in database.schema.relation_names()}
    planned = enumeration.plan_pin
    monkeypatch.setattr(
        enumeration,
        "plan_pin",
        lambda dc, pin, live_count: planned(dc, pin, costs.__getitem__),
    )
    with column_backend(backend):
        (enumerator,), _ = build_enumerators([dc], database)
    assert enumerator.cold(database) == brute_force_witnesses(dc, database)
    identifiers = [identifier for identifier, _ in database.items()]
    expected = {
        witness
        for witness in brute_force_witnesses(dc, database)
        if witness & set(identifiers[::2])
    }
    by_relation = group_by_relation(database, identifiers[::2])
    assert enumerator.delta(by_relation) == expected


def _id_attribute_instance():
    schema = Schema.from_dict({"R": ["ID", "A"]})
    database = Database.from_rows(schema, "R", [(7, "x"), (7, "y")])
    dc = _dc(
        {"t": "R", "t2": "R"},
        _pred(_col("t", "ID"), EQ, _col("t2", "ID")),
        _pred(_col("t", "A"), NE, _col("t2", "A")),
    )
    return database, dc


@pytest.mark.parametrize("backend", BACKENDS)
def test_attribute_named_id_is_a_real_column(backend):
    """``t[ID]`` reads the attribute, not the fact identifier."""
    database, dc = _id_attribute_instance()
    expected = brute_force_witnesses(dc, database)
    assert expected == {frozenset({0, 1})}
    with column_backend(backend):
        assert repro.measure("I_MI", [dc], database) == 1.0
        assert set(build_violation_index([dc], database).mi_sets) == minimal_sets(
            expected
        )
        with make_session([dc], database) as session:
            assert session.measure(make_measure("I_MI")) == 1.0
            session.insert(Fact("R", (7, "z")))
            session.insert(Fact("R", (8, "z")))
            assert set(session.index().mi_sets) == minimal_sets(
                brute_force_witnesses(dc, database)
            )
            assert session.measure(make_measure("I_MI")) == 3.0

