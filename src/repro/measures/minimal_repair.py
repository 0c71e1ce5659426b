"""``I_R`` — the minimum-repair measure (deletions and updates).

Under an active solver budget (:mod:`repro.solvers.anytime`) the
per-component hitting-set solve runs a graceful-degradation chain:
optional CP-SAT (when ``ortools`` is importable) → deadline-aware
pure-python branch-and-bound → greedy upper bound + LP/half-integral
lower bound.  The greedy cover is a real repair, so its cost is always a
valid upper bound; the LP relaxation (half-integral double-cover flow when
every MI set is a pair) bounds from below.
"""

from __future__ import annotations

from typing import Sequence

from ..constraints.base import Constraint
from ..relational.database import Database
from ..repairs.costs import CostFunction, deletion_costs, subset_cost
from ..repairs.minimum_repair import (
    component_hitting_set,
    component_lp_relaxation,
)
from ..repairs.update_repair import minimum_update_repair
from ..solvers import anytime
from ..solvers.vertex_cover import (
    BudgetExceeded,
    greedy_hitting_set,
    minimum_hitting_set,
)
from ..testing import faults
from ..violations.minimal import ViolationIndex
from .base import ComponentwiseMeasure, InconsistencyMeasure


class MinimumRepairMeasure(ComponentwiseMeasure):
    """``I_R(Σ, D)`` under the subset system R⊆.

    The minimum cost of a deletion sequence reaching consistency — the
    optimal hitting set of ``MI_Σ(D)``, i.e. the ILP of Figure 2.  Satisfies
    all four rationality properties but is NP-hard in general (Theorem 1),
    which the exact solver's node budget surfaces as
    :class:`~repro.solvers.vertex_cover.BudgetExceeded` on adversarial inputs.
    Hitting sets are additive over connected components, so the solver only
    ever branches inside one component.
    """

    name = "I_R"
    repair_aware = True

    def __init__(
        self,
        cost_function: CostFunction | None = None,
        max_nodes: int = 500_000,
    ) -> None:
        self.cost_function = cost_function
        self.max_nodes = max_nodes

    def component_value(
        self,
        constraints: Sequence[Constraint],
        database: Database,
        component: ViolationIndex,
    ) -> float:
        return anytime.solve_component(
            self,
            constraints,
            database,
            component,
            lambda: component_hitting_set(
                component,
                database,
                cost_function=self.cost_function,
                max_nodes=self.max_nodes,
            )[0],
        )


class MinimumUpdateRepairMeasure(InconsistencyMeasure):
    """``I_R(Σ, D)`` under the update system — unit-cost attribute updates.

    Exact but exponential (see :mod:`repro.repairs.update_repair`); intended
    for the running example and small tests, exactly like the paper's
    Table 1 column "I_R (updates)".  Deliberately *not* component-wise: an
    attribute update can introduce fresh violations against facts outside
    the original component, so the optimum does not decompose.
    """

    name = "I_R_upd"
    repair_aware = True

    def __init__(
        self,
        max_updates: int = 12,
        allow_fresh: bool = True,
        updatable_attributes: set[str] | None = None,
    ) -> None:
        self.max_updates = max_updates
        self.allow_fresh = allow_fresh
        self.updatable_attributes = updatable_attributes

    def value(
        self,
        constraints: Sequence[Constraint],
        database: Database,
        index: ViolationIndex | None = None,
    ) -> float:
        repair = minimum_update_repair(
            constraints,
            database,
            max_updates=self.max_updates,
            allow_fresh=self.allow_fresh,
            updatable_attributes=self.updatable_attributes,
        )
        return repair.cost


# ----------------------------------------------------------------------
# Anytime solver chain for I_R (active only under a budget scope)
# ----------------------------------------------------------------------
def _ir_weights(measure, database, component):
    return deletion_costs(
        database, measure.cost_function or subset_cost, component.problematic
    )


def _ir_bounds(measure, database, component) -> tuple[float, float]:
    """(LP lower bound, greedy-cover upper bound) for one component."""
    weights = _ir_weights(measure, database, component)
    cover = greedy_hitting_set(list(component.mi_sets), weights)
    upper = float(sum(weights[element] for element in cover))
    lower, _ = component_lp_relaxation(
        component, database, measure.cost_function
    )
    return float(lower), upper


def _ir_cpsat_stage(measure, constraints, database, component, deadline):
    """Time-limited CP-SAT min hitting set — only when ``ortools`` exists.

    Integral weights keep integer arithmetic exact, so a proven-OPTIMAL
    solve equals the pure-python optimum bit-for-bit and may return a plain
    (cacheable) float; fractional weights are scaled and the result is
    reported FEASIBLE with honest float-domain bounds.
    """
    scope = anytime.current_scope()
    if scope is not None and scope.budget.prefer == "pure":
        return None
    cp_model = anytime.cpsat_model()
    if cp_model is None:
        return None
    faults.trip(anytime.FAULT_BACKEND)
    groups = [group for group in component.mi_sets if group]
    if not groups:
        return 0.0
    weights = _ir_weights(measure, database, component)
    elements = sorted({element for group in groups for element in group})
    integral = all(float(weights[e]).is_integer() for e in elements)
    scale = 1 if integral else 1_000_000
    model = cp_model.CpModel()
    choose = {e: model.NewBoolVar(f"x{e}") for e in elements}
    for group in groups:
        model.AddBoolOr([choose[e] for e in group])
    model.Minimize(
        sum(int(round(weights[e] * scale)) * choose[e] for e in elements)
    )
    solver = cp_model.CpSolver()
    remaining = deadline.remaining()
    if remaining is not None:
        solver.parameters.max_time_in_seconds = max(remaining, 0.01)
    status = solver.Solve(model)
    if status not in (cp_model.OPTIMAL, cp_model.FEASIBLE):
        return None
    cover = [e for e in elements if solver.Value(choose[e])]
    cost = float(sum(weights[e] for e in cover))
    if status == cp_model.OPTIMAL and integral:
        # Integral weights sum exactly in float, independent of order.
        return cost
    lower, _ = component_lp_relaxation(
        component, database, measure.cost_function
    )
    return anytime.bounded(cost, float(lower), cost, anytime.FEASIBLE)


def _ir_exact_stage(measure, constraints, database, component, deadline):
    """Deadline-aware pure-python exact solve; degrades to greedy/LP bounds.

    The point estimate on timeout is the greedy cover's cost — the cost of
    a real repair, hence achievable and within ``[lower, upper]``.
    """
    faults.trip(anytime.FAULT_BACKEND)
    weights = _ir_weights(measure, database, component)
    try:
        value, _ = minimum_hitting_set(
            list(component.mi_sets),
            weights,
            max_nodes=measure.max_nodes,
            deadline=deadline,
        )
    except (anytime.SolveTimeout, BudgetExceeded):
        lower, upper = _ir_bounds(measure, database, component)
        return anytime.bounded(upper, lower, upper, anytime.TIMEOUT)
    return float(value)


def _ir_bounds_stage(measure, constraints, database, component, deadline):
    """Terminal bounds-only stage: no deadline, no branching, no backend.

    Reached only when the stages above crashed; the runtime retags the
    FEASIBLE result as FALLBACK.
    """
    lower, upper = _ir_bounds(measure, database, component)
    return anytime.bounded(upper, lower, upper, anytime.FEASIBLE)


anytime.register_chain(
    MinimumRepairMeasure.name,
    (_ir_cpsat_stage, _ir_exact_stage, _ir_bounds_stage),
)
