"""``I_R`` — the minimum-repair measure (deletions and updates).

Under an active solver budget (:mod:`repro.solvers.anytime`) the
per-component hitting-set solve is the deadline-aware pure-python
branch-and-bound, degrading to greedy upper bound + LP/half-integral lower
bound when its slice expires or it crashes.  The greedy cover is a real
repair, so its cost is always a valid upper bound; the LP relaxation
(half-integral double-cover flow when every MI set is a pair) bounds from
below.
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

    def bounded_value(self, constraints, database, component, deadline):
        """Deadline-aware exact solve; degrades to greedy/LP bounds.

        The point estimate on timeout is the greedy cover's cost — the cost
        of a real repair, hence achievable and within ``[lower, upper]``.
        """
        try:
            value, _ = minimum_hitting_set(
                list(component.mi_sets),
                self._weights(database, component),
                max_nodes=self.max_nodes,
                deadline=deadline,
            )
        except (anytime.SolveTimeout, BudgetExceeded):
            return anytime.bounded(
                *self.component_bounds(constraints, database, component),
                anytime.TIMEOUT,
            )
        return float(value)

    def component_bounds(self, constraints, database, component):
        """(greedy-cover cost, LP lower bound, greedy-cover cost)."""
        weights = self._weights(database, component)
        cover = greedy_hitting_set(list(component.mi_sets), weights)
        upper = float(sum(weights[element] for element in cover))
        lower, _ = component_lp_relaxation(
            component, database, self.cost_function
        )
        return upper, float(lower), upper

    def _weights(self, database, component):
        return deletion_costs(
            database, self.cost_function or subset_cost, component.problematic
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
