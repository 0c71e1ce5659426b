"""Minimum (subset) repairs — the optimization behind ``I_R`` for deletions.

For anti-monotonic constraints and the subset system, the minimum repair is
the minimum-weight set of facts hitting every minimal inconsistent subset
(the ILP of Figure 2).  This module exposes both the optimal value and the
actual repair, and the corresponding LP relaxation used by ``I_lin_R``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from ..constraints.base import Constraint
from ..relational.database import Database
from ..solvers.halfintegral import AS_FLOAT, vertex_cover_lp
from ..solvers.simplex import covering_lp
from ..solvers.vertex_cover import greedy_hitting_set, minimum_hitting_set
from ..violations.minimal import ViolationIndex, build_violation_index
from .costs import CostFunction, deletion_costs, subset_cost
from .operations import DeleteOperation


@dataclass
class SubsetRepair:
    """An optimal deletion repair: which facts to drop and at what cost."""

    deleted_ids: set[int]
    cost: float

    def operations(self) -> list[DeleteOperation]:
        return [DeleteOperation(identifier) for identifier in sorted(self.deleted_ids)]


def minimum_subset_repair(
    constraints: Sequence[Constraint],
    database: Database,
    cost_function: CostFunction | None = None,
    index: ViolationIndex | None = None,
    max_nodes: int = 500_000,
) -> SubsetRepair:
    """Exact minimum-cost deletion repair (value of ``I_R`` under R⊆).

    Solved per connected component of ``MI_Σ(D)``: MI sets never span
    components, so the optimal global repair is the disjoint union of the
    per-component optima — the branch-and-bound only ever sees one
    component's hitting-set instance at a time.
    """
    if index is None:
        index = build_violation_index(constraints, database)
    if index.is_consistent():
        return SubsetRepair(set(), 0.0)
    total = 0.0
    cover: set[int] = set()
    for component in index.components():
        value, component_cover = component_hitting_set(
            component, database, cost_function, max_nodes=max_nodes
        )
        total += value
        cover |= component_cover
    return SubsetRepair(cover, total)


def component_hitting_set(
    component: ViolationIndex,
    database: Database,
    cost_function: CostFunction | None = None,
    max_nodes: int = 500_000,
) -> tuple[float, set[int]]:
    """Optimal hitting set of one connected component's MI sets."""
    weights = deletion_costs(
        database, cost_function or subset_cost, component.problematic
    )
    value, cover = minimum_hitting_set(
        list(component.mi_sets), weights, max_nodes=max_nodes
    )
    return value, set(cover)


def greedy_subset_repair(
    constraints: Sequence[Constraint],
    database: Database,
    cost_function: CostFunction | None = None,
    index: ViolationIndex | None = None,
) -> SubsetRepair:
    """Greedy (non-optimal) repair — an upper bound and a fast baseline."""
    if index is None:
        index = build_violation_index(constraints, database)
    weights = deletion_costs(database, cost_function or subset_cost)
    cover = greedy_hitting_set(list(index.mi_sets), weights)
    cost = sum(weights[identifier] for identifier in cover)
    return SubsetRepair(set(cover), cost)


def repair_lp_relaxation(
    constraints: Sequence[Constraint],
    database: Database,
    cost_function: CostFunction | None = None,
    index: ViolationIndex | None = None,
) -> tuple[float, dict[int, float]]:
    """The LP relaxation of the repair ILP — the value of ``I_lin_R``.

    Uses the exact half-integral (double-cover flow) path when every MI set
    has at most two facts, and the exact covering LP otherwise.  Returns the optimal
    objective and the per-fact fractional assignment.
    """
    if index is None:
        index = build_violation_index(constraints, database)
    x = {identifier: 0.0 for identifier in database.ids()}
    if index.is_consistent():
        return 0.0, x
    # Covering LPs are separable over connected components: no constraint
    # row mentions variables of two components, so the optimum is the sum of
    # the per-component optima and the assignments merge disjointly.
    total = 0.0
    for component in index.components():
        value, assignment = component_lp_relaxation(
            component, database, cost_function
        )
        total += value
        x.update(assignment)
    return total, x


def component_lp_relaxation(
    component: ViolationIndex,
    database: Database,
    cost_function: CostFunction | None = None,
) -> tuple[float, dict[int, float]]:
    """The relaxed repair LP restricted to one connected component."""
    facts = component.problematic
    weights = deletion_costs(database, cost_function or subset_cost, facts)
    if component.max_width <= 2:
        pairs = []
        loops = []
        for group in component.mi_sets:
            if len(group) == 1:
                loops.extend(group)
            else:
                pairs.append(group)
        value, assignment = vertex_cover_lp(
            sorted(facts), pairs, weights, self_loops=loops
        )
        return value, {
            vertex: AS_FLOAT[id(fraction)]
            for vertex, fraction in assignment.items()
        }

    # Hypergraph component: the exact covering LP (solved via its dual).
    value, assignment = covering_lp(component.mi_sets, weights)
    return value, {
        identifier: float(fraction) for identifier, fraction in assignment.items()
    }


def integrality_gap_bound(index: ViolationIndex) -> int:
    """Upper bound on the LP integrality gap: the maximal MI-set width.

    For FDs this is 2, giving the paper's guarantee that
    ``I_lin_R(Σ, D1) ≥ 2 · I_lin_R(Σ, D2)`` implies
    ``I_R(Σ, D1) ≥ I_R(Σ, D2)``.
    """
    return max(index.max_width, 1)
