"""The anytime solver runtime: budgets, bounds, chains, bit-identity.

Unit coverage for :mod:`repro.solvers.anytime` plus the end-to-end
contract on real sessions: a budgeted solve returns within its deadline
with honest bracketing bounds and a status, an unbudgeted (or
``Budget(None)``) call is bit-identical to the historical exact path, and
degraded values never poison the component caches.
"""

from __future__ import annotations

import pickle
from contextlib import nullcontext

import pytest

from repro.constraints import FunctionalDependency
from repro.measures import make_measure
from repro.measures.mc import MaximalConsistentMeasure
from repro.measures.minimal_repair import MinimumRepairMeasure
from repro.relational import Database, Fact, Schema
from repro.session import MeasurementSession, make_session
from repro.solvers import anytime
from repro.solvers.anytime import (
    FALLBACK,
    FEASIBLE,
    NO_DEADLINE,
    OPTIMAL,
    TIMEOUT,
    BoundedValue,
    Budget,
    Deadline,
    SolveScope,
    SolveTimeout,
    as_budget,
    bounded,
    combine_bounds,
    current_scope,
    moon_moser_bound,
    register_chain,
    registered_chain,
    solve_component,
    solver_scope,
    status_of,
    subset_count_bound,
    worst_status,
)
from repro.testing.layout import one_group


def _path_workload(n: int = 16, relations=("R",)):
    """A path-shaped conflict graph per relation: one component each,
    ~1.32^n maximal sets."""
    schema = Schema.from_dict({relation: ["A", "B", "C"] for relation in relations})
    database = Database.from_facts(
        schema,
        [
            Fact(relation, (i // 2, i, (i + 1) // 2))
            for relation in relations
            for i in range(n)
        ],
    )
    constraints = [
        FunctionalDependency(relation, column, {"B"})
        for relation in relations
        for column in ({"A"}, {"C"})
    ]
    return constraints, database


#: Both session read paths over a two-relation workload: both relations
#: in one group (one shard, no merge) and the derived partition (one
#: shard per relation, k-way merge).
TWO_RELATIONS = ("R", "S")
PARTITIONS = [
    pytest.param(one_group, id="one-group"),
    pytest.param(nullcontext, id="auto"),
]


class _FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


class TestBoundedValue:
    def test_is_a_float(self):
        value = BoundedValue(3.0, 1.0, 9.0, TIMEOUT)
        assert value == 3.0
        assert value + 1 == 4.0
        assert float(value) == 3.0
        assert value.lower == 1.0 and value.upper == 9.0
        assert value.status == TIMEOUT

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError):
            BoundedValue(1.0, 1.0, 1.0, "MAYBE")

    def test_pickle_round_trip(self):
        value = BoundedValue(3.0, 1.0, 9.0, FEASIBLE)
        clone = pickle.loads(pickle.dumps(value))
        assert (clone, clone.lower, clone.upper, clone.status) == (
            3.0,
            1.0,
            9.0,
            FEASIBLE,
        )

    def test_as_dict(self):
        assert BoundedValue(3.0, 1.0, 9.0, TIMEOUT).as_dict() == {
            "value": 3.0,
            "lower": 1.0,
            "upper": 9.0,
            "status": TIMEOUT,
        }

    def test_bounded_collapses_optimal_to_plain_float(self):
        value = bounded(5.0, 5.0, 5.0, OPTIMAL)
        assert type(value) is float

    def test_bounded_clamps_interval_around_value(self):
        value = bounded(5.0, 6.0, 4.0, TIMEOUT)
        assert value.lower <= 5.0 <= value.upper


class TestStatuses:
    def test_worst_status_severity_order(self):
        assert worst_status([]) == OPTIMAL
        assert worst_status([OPTIMAL, FEASIBLE]) == FEASIBLE
        assert worst_status([FEASIBLE, FALLBACK]) == FALLBACK
        assert worst_status([TIMEOUT, FALLBACK, OPTIMAL]) == TIMEOUT

    def test_status_of(self):
        assert status_of(1.5) == OPTIMAL
        assert status_of(BoundedValue(1.0, 0.0, 2.0, TIMEOUT)) == TIMEOUT


class TestBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            Budget(-1.0)
        with pytest.raises(ValueError):
            Budget(1.0, prefer="quantum")

    def test_remaining_and_expiry(self):
        clock = _FakeClock()
        budget = Budget(10.0, clock=clock)
        assert budget.remaining() == 10.0
        clock.now = 4.0
        assert budget.remaining() == 6.0
        assert not budget.expired()
        clock.now = 10.0
        assert budget.expired()
        assert budget.remaining() == 0.0

    def test_unlimited(self):
        budget = Budget(None)
        assert budget.remaining() is None
        assert not budget.expired()

    def test_as_budget_coercion(self):
        assert as_budget(None) is None
        budget = Budget(1.0)
        assert as_budget(budget) is budget
        assert as_budget(2).seconds == 2.0


class TestDeadline:
    def test_check_raises_on_expiry(self):
        clock = _FakeClock()
        deadline = Deadline(5.0, clock)
        deadline.check()  # not expired yet
        clock.now = 5.0
        with pytest.raises(SolveTimeout):
            deadline.check()

    def test_no_deadline_never_expires(self):
        assert not NO_DEADLINE.expired()
        NO_DEADLINE.check()

    def test_remaining_never_negative(self):
        clock = _FakeClock(now=7.0)
        assert Deadline(5.0, clock).remaining() == 0.0


class TestSolveScope:
    def test_slicing_shares_remaining_across_plan(self):
        clock = _FakeClock()
        scope = SolveScope(Budget(10.0, clock=clock), plan=2)
        first = scope.begin_solve()
        assert first.at == pytest.approx(5.0)
        # The first solve finished early: the second inherits the leftovers.
        clock.now = 1.0
        second = scope.begin_solve()
        assert second.at == pytest.approx(10.0)

    def test_solves_beyond_plan_get_everything_left(self):
        clock = _FakeClock()
        scope = SolveScope(Budget(8.0, clock=clock), plan=1)
        scope.begin_solve()
        clock.now = 2.0
        assert scope.begin_solve().at == pytest.approx(8.0)

    def test_unplanned_scope_hands_out_full_remaining(self):
        clock = _FakeClock()
        scope = SolveScope(Budget(6.0, clock=clock))
        assert scope.begin_solve().at == pytest.approx(6.0)
        assert scope.begin_solve().at == pytest.approx(6.0)

    def test_solver_scope_none_is_noop(self):
        with solver_scope(None) as scope:
            assert scope is None
            assert current_scope() is None

    def test_solver_scope_sets_and_resets(self):
        budget = Budget(1.0)
        assert current_scope() is None
        with solver_scope(budget) as scope:
            assert current_scope() is scope
            assert scope.budget is budget
        assert current_scope() is None


class _FakeMeasure:
    def __init__(self, name: str) -> None:
        self.name = name


@pytest.fixture
def chain_name():
    """A registry slot unique to the test, removed afterwards."""
    name = "_test_measure_anytime"
    yield name
    anytime._REGISTRY.pop(name, None)


class TestSolveComponent:
    def test_no_scope_runs_exact(self, chain_name):
        register_chain(
            chain_name, (lambda *a: (_ for _ in ()).throw(AssertionError()),)
        )
        assert (
            solve_component(_FakeMeasure(chain_name), (), None, None, lambda: 7.0)
            == 7.0
        )

    def test_no_chain_runs_exact_inside_scope(self):
        with solver_scope(Budget(1.0)):
            assert (
                solve_component(
                    _FakeMeasure("_unregistered"), (), None, None, lambda: 3.0
                )
                == 3.0
            )

    def test_first_stage_wins(self, chain_name):
        register_chain(
            chain_name,
            (lambda *a: 4.0, lambda *a: bounded(0.0, 0.0, 1.0, FEASIBLE)),
        )
        with solver_scope(Budget(1.0)):
            value = solve_component(
                _FakeMeasure(chain_name), (), None, None, lambda: 0.0
            )
        assert value == 4.0 and type(value) is float

    def test_none_stage_skips_to_next(self, chain_name):
        register_chain(chain_name, (lambda *a: None, lambda *a: 2.0))
        with solver_scope(Budget(1.0)):
            assert (
                solve_component(
                    _FakeMeasure(chain_name), (), None, None, lambda: 0.0
                )
                == 2.0
            )

    def test_crashing_stage_degrades_to_fallback(self, chain_name):
        def boom(*args):
            raise RuntimeError("backend died")

        register_chain(
            chain_name, (boom, lambda *a: bounded(1.0, 1.0, 8.0, FEASIBLE))
        )
        with solver_scope(Budget(1.0)):
            value = solve_component(
                _FakeMeasure(chain_name), (), None, None, lambda: 0.0
            )
        assert status_of(value) == FALLBACK
        assert (value.lower, value.upper) == (1.0, 8.0)

    def test_prefer_cpsat_without_backend_tags_fallback(self, chain_name):
        if anytime.has_cpsat():
            pytest.skip("ortools installed: the preference is satisfiable")
        register_chain(chain_name, (lambda *a: 6.0, lambda *a: 0.0))
        with solver_scope(Budget(1.0, prefer="cpsat")):
            value = solve_component(
                _FakeMeasure(chain_name), (), None, None, lambda: 0.0
            )
        assert status_of(value) == FALLBACK
        assert float(value) == 6.0

    def test_stage_receives_its_time_slice(self, chain_name):
        seen = []
        register_chain(chain_name, (lambda m, c, d, comp, dl: seen.append(dl) or 1.0,))
        with solver_scope(Budget(1.0), plan=4):
            solve_component(_FakeMeasure(chain_name), (), None, None, lambda: 0.0)
        assert isinstance(seen[0], Deadline)
        assert seen[0].remaining() <= 0.26  # ~a quarter of the budget


class TestCombineBounds:
    def test_sum_combines_each_bound_separately(self):
        parts = [2.0, BoundedValue(3.0, 1.0, 5.0, TIMEOUT)]
        value, lower, upper, status = combine_bounds(sum, parts)
        assert (value, lower, upper, status) == (5.0, 3.0, 7.0, TIMEOUT)

    def test_all_optimal_parts(self):
        value, lower, upper, status = combine_bounds(sum, [1.0, 2.0])
        assert (value, lower, upper, status) == (3.0, 3.0, 3.0, OPTIMAL)


class TestBoundHelpers:
    def test_moon_moser(self):
        assert moon_moser_bound(0) == 1.0
        assert moon_moser_bound(3) == pytest.approx(3.0)
        assert moon_moser_bound(10_000) == float("inf")

    def test_subset_count(self):
        assert subset_count_bound(0) == 1.0
        assert subset_count_bound(4) == 16.0
        assert subset_count_bound(10_000) == float("inf")


class TestSessionBudgets:
    """End-to-end: budgets through real sessions on a hard component."""

    def test_zero_budget_returns_honest_bounds(self):
        constraints, database = _path_workload(16)
        mc = MaximalConsistentMeasure()
        with MeasurementSession(constraints, database) as session:
            # Budgeted first: a prior exact solve would (correctly) serve
            # the budgeted call from the component cache.
            value = session.measure(mc, budget=0.0)
            exact = session.measure(mc)
        assert status_of(value) == TIMEOUT
        assert value.lower <= exact <= value.upper

    def test_cached_exact_values_beat_the_budget(self):
        constraints, database = _path_workload(16)
        mc = MaximalConsistentMeasure()
        with MeasurementSession(constraints, database) as session:
            exact = session.measure(mc)
            value = session.measure(mc, budget=0.0)
        # Already-solved components serve their cached exact values — a
        # tight budget never *degrades* what is already known.
        assert value == exact
        assert status_of(value) == OPTIMAL

    def test_unbudgeted_after_budgeted_is_bit_identical(self):
        constraints, database = _path_workload(16)
        mc = MaximalConsistentMeasure()
        with MeasurementSession(constraints, database) as session:
            session.measure(mc, budget=0.0)
            warm = session.measure(mc)
        with MeasurementSession(constraints, database) as fresh:
            assert warm == fresh.measure(mc)

    def test_degraded_values_never_enter_the_cache(self):
        constraints, database = _path_workload(16)
        mc = MaximalConsistentMeasure()
        with MeasurementSession(constraints, database) as session:
            session.measure(mc, budget=0.0)
            # A degraded part must not have been admitted anywhere a later
            # unbudgeted read could see it.
            assert not any(
                isinstance(value, BoundedValue)
                for value in session.component_cache._values.values()
            )

    def test_budget_none_is_exact_plain_float(self):
        constraints, database = _path_workload(14)
        mc = MaximalConsistentMeasure()
        with MeasurementSession(constraints, database) as session:
            exact = session.measure(mc)
            unlimited = session.measure(mc, budget=Budget(None))
        assert unlimited == exact
        assert type(unlimited) is float

    def test_session_default_budget_and_explicit_override(self):
        constraints, database = _path_workload(16)
        mc = MaximalConsistentMeasure()
        with make_session(constraints, database, time_budget=0.0) as session:
            assert status_of(session.measure(mc)) == TIMEOUT
            exact = session.measure(mc, budget=Budget(None))
            assert status_of(exact) == OPTIMAL

    def test_measure_all_mixes_statuses(self):
        constraints, database = _path_workload(16)
        measures = [make_measure("I_MI"), MaximalConsistentMeasure()]
        with MeasurementSession(constraints, database) as session:
            values = session.measure_all(measures, budget=0.0)
        assert status_of(values["I_MI"]) == OPTIMAL
        assert status_of(values["I_MC"]) == TIMEOUT

    def test_enumeration_limit_degrades_under_budget(self):
        constraints, database = _path_workload(16)
        limited = MaximalConsistentMeasure(enumeration_limit=3)
        with MeasurementSession(constraints, database) as session:
            value = session.measure(limited, budget=10.0)
            exact = session.measure(MaximalConsistentMeasure())
        assert status_of(value) == TIMEOUT
        assert 1.0 <= value.lower <= exact <= value.upper

    def test_ir_budget_bounds_bracket_exact(self):
        constraints, database = _path_workload(16)
        ir = MinimumRepairMeasure()
        with MeasurementSession(constraints, database) as session:
            value = session.measure(ir, budget=0.0)
            exact = session.measure(ir)
        assert status_of(value) == TIMEOUT
        assert value.lower <= exact <= value.upper

    @pytest.mark.parametrize("partition", PARTITIONS)
    def test_budget_semantics_on_both_read_paths(self, partition):
        constraints, database = _path_workload(14, TWO_RELATIONS)
        mc = MaximalConsistentMeasure()
        with partition():
            session = make_session(constraints, database)
        with session:
            value = session.measure(mc, budget=0.0)
            # Degraded parts were never memoized: the unbudgeted re-read
            # re-solves exactly.
            again = session.measure(mc)
            assert not any(
                isinstance(part, BoundedValue)
                for memo in session._parts
                for entry in memo.values()
                for part in entry[2]
            )
        with MeasurementSession(constraints, database) as fresh:
            exact = fresh.measure(mc)
        assert status_of(value) == TIMEOUT
        assert value.lower <= exact <= value.upper
        assert again == exact
        assert type(again) is float

    @pytest.mark.parametrize("partition", PARTITIONS)
    def test_budgeted_batch_never_leaks_degraded_parts(self, partition):
        from repro.repairs.operations import DeleteOperation

        constraints, database = _path_workload(14, TWO_RELATIONS)
        mc = MaximalConsistentMeasure()
        candidates = [[DeleteOperation(0)], [DeleteOperation(15)]]
        with partition():
            session = make_session(constraints, database)
        with session:
            degraded = session.speculate_batch(candidates, [mc], budget=0.0)
            exact = session.speculate_batch(candidates, [mc])
        with MeasurementSession(constraints, database) as fresh:
            assert exact == fresh.speculate_batch(candidates, [mc])
        assert {status_of(values["I_MC"]) for values in degraded} == {TIMEOUT}
        assert all(
            type(values["I_MC"]) is float for values in exact
        )
