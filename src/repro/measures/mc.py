"""``I_MC`` and ``I'_MC`` — maximal-consistent-subset counting.

``I_MC(Σ, D) = |MC_Σ(D)| − 1`` where ``MC_Σ(D)`` is the family of maximal
consistent subsets of D.  ``I'_MC`` additionally counts self-inconsistent
(contradictory) tuples, restoring positivity for general DCs.

Counting is #P-complete already for FDs (it is maximal-independent-set
counting on the conflict graph), which the paper demonstrates with 24-hour
timeouts.  Three mitigations apply here: ``|MC_Σ(D)|`` is *multiplicative*
over the connected components of the conflict (hyper)graph, so the
enumerator only ever runs on one component at a time (turning many of the
paper's timeout instances into products of tiny counts); each per-component
enumeration accepts a budget, raising
:class:`~repro.solvers.cliques.EnumerationBudgetExceeded` beyond it; and
under an active solver budget (:mod:`repro.solvers.anytime`) the count
degrades to honest bounds instead of raising — every maximal set already
enumerated is a lower bound on the final count, and Moon–Moser's
``3^(n/3)`` (or ``2^n`` for hypergraph conflicts) bounds it from above.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

from ..constraints.base import Constraint
from ..relational.database import Database
from ..solvers import anytime
from ..solvers.cliques import (
    EnumerationBudgetExceeded,
    maximal_independent_sets,
    maximal_sets_avoiding,
)
from ..violations.minimal import ViolationIndex
from .base import ComponentwiseMeasure


class MaximalConsistentMeasure(ComponentwiseMeasure):
    """``I_MC`` — fails positivity for DCs, monotonicity and progression even
    for FDs, and is #P-hard to compute (Table 2)."""

    name = "I_MC"

    def __init__(self, enumeration_limit: int | None = 2_000_000) -> None:
        self.enumeration_limit = enumeration_limit

    def combine(self, parts: Sequence[float]) -> float:
        # |MC| multiplies over components; facts outside every component
        # belong to every MCS and contribute a factor of 1.
        return float(math.prod(parts))

    def finalize(
        self, combined: float, components: Iterable[ViolationIndex]
    ) -> float:
        return combined - 1.0

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
            lambda: float(self._count_component_mcs(component)),
        )

    def bounded_value(self, constraints, database, component, deadline):
        """Deadline-aware exact enumeration; degrades to a partial count.

        Every maximal set yielded before the deadline is a distinct member
        of ``MC``, so the partial count is a true lower bound; hitting the
        ``enumeration_limit`` degrades the same way instead of raising.
        """
        groups, usable = self._component_core(component)
        if not groups:
            return 1.0
        counted = 0
        try:
            for _ in self._iter_component_mcs(groups, usable, deadline):
                counted += 1
        except (anytime.SolveTimeout, EnumerationBudgetExceeded):
            lower = float(max(counted, 1))
            return anytime.bounded(
                lower,
                lower,
                _mcs_count_upper_bound(groups),
                anytime.TIMEOUT,
            )
        return float(counted)

    def component_bounds(self, constraints, database, component):
        """``(1, 1, upper)``: every component has at least one MCS."""
        groups, _ = self._component_core(component)
        return 1.0, 1.0, _mcs_count_upper_bound(groups)

    def _component_core(
        self, component: ViolationIndex
    ) -> tuple[list[frozenset[int]], list[int]]:
        """The conflict core the enumerators actually run on.

        Self-inconsistent facts belong to no consistent subset: after
        minimization they form isolated singleton components, whose only
        maximal subset is ∅ — a factor of 1.  The filtering below also keeps
        the count correct on hand-built, unminimized indexes, where a
        singleton may cohabit a component with wider sets.
        """
        poisoned = component.self_inconsistent
        groups = [
            group
            for group in component.mi_sets
            if len(group) >= 2 and not group & poisoned
        ]
        usable = sorted(component.problematic - poisoned)
        return groups, usable

    def _iter_component_mcs(
        self,
        groups: list[frozenset[int]],
        usable: list[int],
        deadline=None,
    ) -> Iterator[frozenset[int]]:
        if all(len(group) == 2 for group in groups):
            edges = [tuple(sorted(group)) for group in groups]
            yield from maximal_independent_sets(
                usable, edges, limit=self.enumeration_limit, deadline=deadline
            )
        else:
            yield from maximal_sets_avoiding(
                usable, groups, limit=self.enumeration_limit, deadline=deadline
            )

    def _count_component_mcs(self, component: ViolationIndex) -> int:
        """``|MC|`` restricted to one connected component's facts."""
        groups, usable = self._component_core(component)
        if not groups:
            return 1
        return sum(1 for _ in self._iter_component_mcs(groups, usable))


class MaximalConsistentPrimeMeasure(MaximalConsistentMeasure):
    """``I'_MC = |MC_Σ(D)| + |SelfInconsistencies(D)| − 1``."""

    name = "I'_MC"

    def finalize(
        self, combined: float, components: Iterable[ViolationIndex]
    ) -> float:
        # Every MI set lies in exactly one component, so the per-component
        # counts sum to ``|SelfInconsistencies(D)|``.
        self_inconsistent = sum(
            len(component.self_inconsistent) for component in components
        )
        return combined + self_inconsistent - 1.0


def _mcs_count_upper_bound(groups: list[frozenset[int]]) -> float:
    """Upper bound on one component's ``|MC|``."""
    involved = {fact for group in groups for fact in group}
    if all(len(group) == 2 for group in groups):
        # MIS count only depends on non-isolated vertices; Moon–Moser.
        return anytime.moon_moser_bound(len(involved))
    return anytime.subset_count_bound(len(involved))
