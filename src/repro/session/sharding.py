"""The session factory and the former name of the session class.

Every :class:`~repro.session.session.MeasurementSession` owns one
maintained state over all its DCs; there is no partition to choose.
:func:`make_session` still accepts ``shards="auto"`` for callers that
spell it out.
"""

from __future__ import annotations

from typing import Sequence

from ..constraints.base import Constraint
from ..relational.database import Database
from .session import MeasurementSession

__all__ = ["make_session"]

#: Former name of the session class, kept for external callers.
ShardedMeasurementSession = MeasurementSession


def make_session(
    constraints: Sequence[Constraint],
    database: Database,
    shards: str = "auto",
    warm_start=None,
    time_budget: float | None = None,
) -> MeasurementSession:
    """A :class:`MeasurementSession` over ``(Σ, D)``.

    *shards* accepts only ``"auto"``; it remains for callers that still
    spell it out.  *warm_start* threads a snapshot into the session; any
    mismatch falls back to the ordinary cold build.  *time_budget*
    (seconds) sets the session's default solver budget: every
    ``measure``/``measure_all``/``speculate``/``speculate_batch`` call is
    budgeted unless it passes its own ``budget=``; ``None`` keeps every
    call exact.
    """
    if shards != "auto":
        raise ValueError(f"shards={shards!r}: only 'auto' is accepted")
    return MeasurementSession(
        constraints, database, warm_start=warm_start, time_budget=time_budget
    )
