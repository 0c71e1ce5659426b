"""The drastic measure ``I_d`` — the indicator of inconsistency."""

from __future__ import annotations

from typing import Sequence

from ..constraints.base import Constraint
from ..relational.database import Database
from ..violations.minimal import ViolationIndex, is_consistent
from .base import ComponentwiseMeasure


class DrasticMeasure(ComponentwiseMeasure):
    """``I_d(Σ, D) = 0`` if ``D ⊨ Σ`` else 1.

    Tractable, but useless for progress indication: it violates progression
    and bounded continuity (Table 2).  Component-wise as the indicator of
    "some component exists": every component contributes 1 and the parts
    combine to 1 when there is any, so a session reads and speculates it
    locally like the other measures.  The one-shot :meth:`value` keeps two
    shortcuts: with a precomputed index ``is_consistent()`` is O(1), and
    without one the check stops at the *first* witness instead of
    enumerating anything.
    """

    name = "I_d"

    def component_value(
        self,
        constraints: Sequence[Constraint],
        database: Database,
        component: ViolationIndex,
    ) -> float:
        return 1.0

    def combine(self, parts: Sequence[float]) -> float:
        return 1.0 if parts else 0.0

    def value(
        self,
        constraints: Sequence[Constraint],
        database: Database,
        index: ViolationIndex | None = None,
    ) -> float:
        if index is not None:
            return 0.0 if index.is_consistent() else 1.0
        # Early-exit consistency check: no need to materialize all conflicts.
        return 0.0 if is_consistent(list(constraints), database) else 1.0
