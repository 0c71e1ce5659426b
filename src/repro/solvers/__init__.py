"""Covering-LP, hitting-set and graph solvers — the from-scratch Gurobi substitute."""

from .cliques import (
    EnumerationBudgetExceeded,
    count_maximal_independent_sets,
    maximal_cliques,
    maximal_independent_sets,
    maximal_sets_avoiding,
)
from .halfintegral import nemhauser_trotter_kernel, vertex_cover_lp
from .simplex import covering_lp
from .vertex_cover import BudgetExceeded, greedy_hitting_set, minimum_hitting_set

__all__ = [
    "BudgetExceeded",
    "EnumerationBudgetExceeded",
    "count_maximal_independent_sets",
    "covering_lp",
    "greedy_hitting_set",
    "maximal_cliques",
    "maximal_independent_sets",
    "maximal_sets_avoiding",
    "minimum_hitting_set",
    "nemhauser_trotter_kernel",
    "vertex_cover_lp",
]
