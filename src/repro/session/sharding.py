"""Relation sharding: how a session partitions its live state.

A denial constraint only ever binds facts of the relations its atoms
mention, so the witness family, the minimized ``MI_Σ(D)`` and the conflict
components all decompose along the connected components of the
**constraint/relation hypergraph** (relations are nodes, each DC links the
relations it mentions).  The paper's measures decompose over conflict
components, so a relation partition only groups them: every
:class:`~repro.session.session.MeasurementSession` is sharded, and a
single-relation workload is simply the one-shard case.

* **Routing.**  Each constraint is lowered *once*; every lowered DC is
  routed to the unique shard owning its relations.  The partition is
  derived, not chosen: it is always the hypergraph's connected components
  (:func:`relation_groups`) — the finest partition that keeps every DC
  inside one shard.
* **Fan-out.**  The session is the only database subscriber.  A
  :class:`~repro.relational.database.ChangeEvent` is forwarded only to the
  shard indexing the touched fact's relation — the other shards' witness
  stores, hash indexes and topologies are never dirtied, never flushed and
  never invalidated.  The fan-out is a fault-injection point
  (:data:`FAULT_FANOUT`): a shard whose event raised rebuilds cold at the
  next read.
* **Fixed-order assembly.**  Reads visit components in global
  smallest-member-fact order.  With one shard that is the shard's own
  order and nothing is merged; with several, ``mi_sets`` and the per-shard
  component streams are k-way merged under the same keys, so every float
  combines in the same order and all results are **bit-identical**
  whatever the partition (the randomized conformance suite in
  ``tests/session/test_sharding.py`` pins sessions built under
  :func:`repro.testing.layout.one_group` against the derived partition).

With several shards, per-shard part lists are memoized on the shard's
topology generation, so a measurement point after a delta recomputes only
the touched shard's parts — that locality is the multi-relation sweep
speedup (``benchmarks/bench_sharded_session.py``, ``BENCH_sharding.json``).
"""

from __future__ import annotations

from typing import Sequence

from ..constraints.base import Constraint
from ..relational.database import Database
from .session import FAULT_FANOUT, MeasurementSession
from .shard import relation_groups

__all__ = ["FAULT_FANOUT", "make_session", "relation_groups"]

#: Former name of the sharded session, kept for external callers.
ShardedMeasurementSession = MeasurementSession


def make_session(
    constraints: Sequence[Constraint],
    database: Database,
    shards: str = "auto",
    warm_start=None,
    time_budget: float | None = None,
) -> MeasurementSession:
    """A :class:`MeasurementSession` over ``(Σ, D)``.

    *shards* accepts only ``"auto"``, the derived partition every session
    uses; it remains for callers that still spell it out.  *warm_start*
    threads a snapshot into the session; any mismatch falls back to the
    ordinary cold build.  *time_budget* (seconds) sets the session's
    default solver budget: every
    ``measure``/``measure_all``/``speculate``/``speculate_batch`` call is
    budgeted unless it passes its own ``budget=``; ``None`` keeps every
    call exact.
    """
    if shards != "auto":
        raise ValueError(
            f"shards={shards!r}: the partition is derived, only 'auto' is accepted"
        )
    return MeasurementSession(
        constraints, database, warm_start=warm_start, time_budget=time_budget
    )
