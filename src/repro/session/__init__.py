"""Live measurement sessions with incremental violation-index maintenance.

A :class:`MeasurementSession` owns a mutable ``(Σ, D)`` pair and keeps the
:class:`~repro.violations.minimal.ViolationIndex` patched under tuple
inserts, deletes and updates instead of rebuilding it from scratch — the
regime of every noise sweep and repair loop, where one step touches a
handful of facts while ``MI_Σ(D)`` is dominated by unchanged witnesses.

The live state is partitioned by relation along the constraint/relation
hypergraph's connected components (:mod:`repro.session.sharding`; one
shard for a single-relation workload).  Each shard owns a live
:class:`~repro.violations.topology.ComponentTopology`, so a flush
re-minimizes and re-splits only the delta's affected region, and a change
event reaches only the shard indexing its relation.  The session is the
one class that reads the shards: measures and budgets, copy-free
speculation (:meth:`~repro.session.session.MeasurementSession.speculate`,
and :meth:`~repro.session.session.MeasurementSession.speculate_batch` for
whole candidate sets), streaming ingest and snapshots.  The partition is
derived from ``(Σ, schema)``, never passed in, and every read is
bit-identical whatever it is.

Repeated sweeps over the same ``(Σ, D)`` warm-start instead of rebuilding:
``session.snapshot()`` captures the full derived state (witness stores,
component topologies, live cache entries) behind a database fingerprint,
and ``MeasurementSession(..., warm_start=snap)`` restores it in O(state) —
falling back to the ordinary cold build on any mismatch, so a warm start
is never a wrong answer (:mod:`repro.session.snapshot`).

Sustained update streams go through :class:`~repro.session.ingest.IngestPipeline`
(``session.ingest()``): submissions are coalesced per fact identifier in a
bounded buffer with caller-visible backpressure, and staleness-bounded
reads drain only the shards over their watermark — one regional re-split
per touched component per *flush* instead of per event, bit-identical to
eager per-event application.

Witness enumeration itself (:mod:`repro.session.enumeration`) compiles
each DC once into one batch join plan per tuple variable that serves both
the cold build and every delta: grouped hash joins along the DC's equality
graph and filtered cross steps between its disconnected parts, with per-DC
counters through ``session.stats()``.  The plans run on one of two column
backends (:mod:`repro.session.columnar`): numpy-vectorized kernels over
dictionary-encoded columns when numpy is importable, or the pure-python
list store otherwise.  The process picks the backend itself
(:data:`VECTOR_BACKEND`, reported by ``session.stats()``); witness sets
are bit-identical either way.
"""

from .columnar import (
    VECTOR_BACKEND,
    ColumnStore,
    RelationColumns,
    make_column_store,
)
from .enumeration import (
    EnumerationStats,
    WitnessEnumerator,
    build_enumerators,
)
from .ingest import (
    FAULT_FLUSH,
    IngestError,
    IngestPipeline,
    IngestRead,
)
from .session import MeasurementSession
from .sharding import make_session, relation_groups
from .snapshot import (
    SNAPSHOT_VERSION,
    DatabaseFingerprint,
    SessionSnapshot,
    ShardSnapshot,
    SnapshotError,
    database_fingerprint,
    dump_snapshot,
    load_snapshot,
    load_snapshot_bytes,
    save_snapshot,
)
from .witnesses import WitnessStore

__all__ = [
    "ColumnStore",
    "DatabaseFingerprint",
    "EnumerationStats",
    "FAULT_FLUSH",
    "IngestError",
    "IngestPipeline",
    "IngestRead",
    "MeasurementSession",
    "RelationColumns",
    "SNAPSHOT_VERSION",
    "SessionSnapshot",
    "ShardSnapshot",
    "SnapshotError",
    "VECTOR_BACKEND",
    "WitnessEnumerator",
    "WitnessStore",
    "build_enumerators",
    "database_fingerprint",
    "dump_snapshot",
    "load_snapshot",
    "make_column_store",
    "load_snapshot_bytes",
    "make_session",
    "relation_groups",
    "save_snapshot",
]
