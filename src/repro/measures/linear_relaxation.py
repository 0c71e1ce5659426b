"""``I_lin_R`` — the paper's new measure: LP relaxation of minimum repair.

Replacing the integrality constraint of the repair ILP (Figure 2) with
``0 ≤ x_i ≤ 1`` yields a measure that satisfies positivity, monotonicity,
progression and constant *weighted* continuity, and is computable in
polynomial time for arbitrary denial-constraint sets (Theorem 2).
"""

from __future__ import annotations

from typing import Sequence

from ..constraints.base import Constraint
from ..relational.database import Database
from ..repairs.costs import CostFunction
from ..repairs.minimum_repair import (
    component_lp_relaxation,
    repair_lp_relaxation,
)
from ..violations.minimal import ViolationIndex
from .base import ComponentwiseMeasure


class LinearRelaxationMeasure(ComponentwiseMeasure):
    """``I_lin_R(Σ, D)`` — optimal value of the relaxed repair LP.

    Exact solvers: the half-integral double-cover flow when every MI set is
    a pair (FDs, binary DCs), the exact covering LP
    (:func:`~repro.solvers.simplex.covering_lp`) otherwise.  The
    half-integral path is what makes the measure fast in practice; the
    covering LP keeps it polynomial for wide DCs.  The LP is separable over
    connected components, so each component picks its own solver — one wide
    DC no longer forces the whole database through the covering LP.
    """

    name = "I_lin_R"
    repair_aware = True

    def __init__(self, cost_function: CostFunction | None = None) -> None:
        self.cost_function = cost_function

    def component_value(
        self,
        constraints: Sequence[Constraint],
        database: Database,
        component: ViolationIndex,
    ) -> float:
        value, _ = component_lp_relaxation(
            component, database, cost_function=self.cost_function
        )
        return value

    def assignment(
        self,
        constraints: Sequence[Constraint],
        database: Database,
        index: ViolationIndex | None = None,
    ) -> dict[int, float]:
        """The optimal fractional deletion vector (Example 9 exposition)."""
        index = self._ensure_index(constraints, database, index)
        _, x = repair_lp_relaxation(
            constraints,
            database,
            cost_function=self.cost_function,
            index=index,
        )
        return x
