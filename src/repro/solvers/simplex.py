"""Exact covering LP through its packing dual — the ``I_lin_R`` hypergraph path.

The LP relaxation of minimum repair (Figure 2 of the paper) is the covering
LP::

    minimize    Σ_e w_e · x_e
    subject to  Σ_{e ∈ S} x_e ≥ 1      for every set S (MI subset)
                x ≥ 0

Its dual is the packing LP::

    maximize    Σ_S y_S
    subject to  Σ_{S ∋ e} y_S ≤ w_e    for every element e
                y ≥ 0

whose slack basis (``y = 0``) is feasible because ``w ≥ 0``, and which is
bounded because every set is non-empty.  So a single simplex phase solves
it: no artificial variables, no infeasible or unbounded outcome.  The
tableau rows are sparse dicts over :class:`fractions.Fraction`, pivots
follow Bland's rule (so degenerate and duplicate sets cannot cycle), and
the primal optimum ``x_e`` is read off as the final reduced cost of
``e``'s slack column.  Everything is exact; the value is rounded to float
once, at the end.

For the 2-ary-conflict case (FDs and all pairwise DCs) the double-cover
flow solver in :mod:`repro.solvers.halfintegral` is much faster; this
solver handles the hypergraph conflicts of DCs with three or more tuple
variables.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Mapping

Element = Hashable


def covering_lp(
    sets: Iterable[Iterable[Element]],
    weights: Mapping[Element, float] | None = None,
) -> tuple[float, dict[Element, Fraction]]:
    """Exact optimum of the weighted covering LP over *sets*; returns (value, x).

    Elements default to weight 1.  A negative weight or an empty set raises
    ``ValueError``; an empty family yields ``(0.0, {})``.  The assignment
    maps every element of the family to its exact optimal fraction.
    """
    family = [frozenset(group) for group in sets]
    if any(not group for group in family):
        raise ValueError("an empty set makes the covering LP infeasible")
    if weights:
        for element, weight in weights.items():
            if weight < 0:
                raise ValueError(f"negative weight for {element!r}")
    if not family:
        return 0.0, {}
    elements = sorted(set().union(*family), key=repr)
    weight_of = weights or {}

    # Columns 0..m-1 are the dual variables y_S, columns m..m+n-1 the
    # slacks of the element rows; row i starts with its own slack basic.
    m = len(family)
    basis = [m + i for i in range(len(elements))]
    rows: list[dict[int, Fraction]] = [{slack: Fraction(1)} for slack in basis]
    row_of = {element: i for i, element in enumerate(elements)}
    for column, group in enumerate(family):
        for element in group:
            rows[row_of[element]][column] = Fraction(1)
    rhs = [Fraction(weight_of.get(element, 1)) for element in elements]
    # Reduced costs of ``minimize -Σ y_S``; absent columns are zero.
    reduced: dict[int, Fraction] = {column: Fraction(-1) for column in range(m)}

    while True:
        entering = min(
            (column for column, cost in reduced.items() if cost < 0), default=None
        )
        if entering is None:
            break
        leaving = -1
        best = None
        for i, row in enumerate(rows):
            coefficient = row.get(entering)
            if coefficient is not None and coefficient > 0:
                ratio = rhs[i] / coefficient
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    best, leaving = ratio, i
        pivot = rows[leaving]
        scale = pivot[entering]
        if scale != 1:
            pivot = rows[leaving] = {
                column: value / scale for column, value in pivot.items()
            }
            rhs[leaving] /= scale
        for i, row in enumerate(rows):
            factor = row.get(entering)
            if factor is not None and i != leaving:
                _subtract(row, factor, pivot)
                rhs[i] -= factor * rhs[leaving]
        _subtract(reduced, reduced[entering], pivot)
        basis[leaving] = entering

    value = sum((rhs[i] for i, column in enumerate(basis) if column < m), Fraction(0))
    x = {element: reduced.get(m + i, Fraction(0)) for i, element in enumerate(elements)}
    return float(value), x


def _subtract(
    row: dict[int, Fraction], factor: Fraction, pivot: dict[int, Fraction]
) -> None:
    """``row -= factor · pivot`` in place, dropping entries that reach zero."""
    for column, value in pivot.items():
        updated = row.get(column, 0) - factor * value
        if updated:
            row[column] = updated
        else:
            del row[column]
