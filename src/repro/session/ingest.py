"""Streaming ingest: coalesced batched flushes with backpressure.

Every session flush pays one regional status pass and re-split per touched
conflict component — so a stream of single mutations applied one at a
time pays that price per *event*, even when most events hit the same hot
facts.  :class:`IngestPipeline` sits between a mutation producer and a
:class:`~repro.session.session.MeasurementSession` and buffers
submissions **coalesced per fact identifier**, so one flush applies only
the *net* change of each touched fact and pays one regional re-split per
touched component instead of one per event:

* ``insert → update* → delete`` of the same identifier nets out to
  nothing — no database event is ever emitted for it;
* ``update → update`` keeps the first pre-image and the last post-image
  (last-writer-wins);
* ``delete → insert`` under a reused identifier becomes a single
  replacement event (or a delete + insert pair when the relation
  changed).

**Identifier fidelity.**  Pending inserts must receive the identifiers
the database *would* have assigned had every event applied immediately
(the paper's minimal-free-id convention), so drained state is
bit-identical to per-event application — fingerprints included.  The
pipeline therefore mirrors the allocator: every submission replays the
same ``_next_id`` transitions the live database would have made, inserts
are assigned their identifier at submit time (``submit`` returns it) and
applied at flush via :meth:`~repro.relational.database.Database.restore`,
and a drain finishes by syncing the database's allocator cursor to the
mirror.  The contract is single-writer: while events are pending, mutate
the database only through the pipeline (out-of-band mutations after a
drain are fine — the mirror resyncs whenever the buffer is empty).  A
reservation stolen by an out-of-band insert surfaces as
:class:`IngestError` at the next flush, never as silent divergence.

**Backpressure.**  The pending buffer is bounded (``capacity`` net
entries).  ``submit`` blocks the producer by draining synchronously when
a submission would grow the buffer past capacity; ``try_submit`` refuses
(returns ``None``) instead, leaving the caller to flush or drop.
Submissions that coalesce into an existing entry are always admitted —
they never grow the buffer.

**Read staleness.**  ``read(measures, max_staleness_events=N)`` serves
measurements that lag the stream by at most ``N`` net pending events: it
forces a drain only when the pending count exceeds ``N``, draining the
most-backlogged relations first and leaving the other relations' events
pending.  Every read reports the topology generation it was served at —
one coherent generation, never a half-flushed one.

The drill point :data:`FAULT_FLUSH` (``"ingest.flush"``) trips at the
head of every drain, before any event applies: a tripped flush leaves
the pending buffer, the database and the session bit-identical, so the
producer retries the drain after handling the error.
"""

from __future__ import annotations

import math
import time
from collections import deque
from typing import Iterable, NamedTuple

from ..relational.database import Database, Fact, SchemaError
from ..relational.values import Value
from ..testing import faults

#: Fault-injection point: tripped at the head of every pipeline drain,
#: before any pending event is applied (see :mod:`repro.testing.faults`).
FAULT_FLUSH = "ingest.flush"

#: How many recent per-drain wall-clock samples feed flush_p50/p99.
_LATENCY_WINDOW = 4096


class IngestError(RuntimeError):
    """A pending event could not be applied at flush time.

    Raised when the single-writer contract was violated — e.g. an
    out-of-band insert stole a reserved identifier, or the target of a
    pending update vanished under the pipeline.
    """


class IngestRead(NamedTuple):
    """One generation-tagged read served through the pipeline."""

    #: ``measure name → value`` for the requested measures.
    values: dict[str, float]
    #: The topology generation the read was served at.
    generation: int
    #: Net pending events the read lags the stream by (≤ the requested
    #: ``max_staleness_events``).
    staleness: int
    #: Whether serving this read forced a drain.
    flushed: bool


class _Pending:
    """The net effect of every buffered submission touching one fact id.

    ``base`` is the committed pre-image (``None`` = the fact does not
    exist in the database, i.e. a net insert); ``post`` is the pending
    post-image (``None`` = net delete).  ``group`` is the schema position
    of the entry's *base* relation (per-relation drains).
    """

    __slots__ = ("base", "post", "group")

    def __init__(self, base: Fact | None, post: Fact | None, group: int) -> None:
        self.base = base
        self.post = post
        self.group = group


def _percentile(samples: Iterable[float], q: float) -> float | None:
    ordered = sorted(samples)
    if not ordered:
        return None
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[rank]


class IngestPipeline:
    """A bounded, coalescing buffer between a mutation stream and a session.

    Construct directly or through ``session.ingest(...)``.  One pipeline per session at a time: constructing a second
    detaches the first from ``session.stats()``.
    """

    def __init__(self, session, *, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.session = session
        self.capacity = capacity
        self._database: Database = session.database
        self._schema = session.database.schema
        # One drain group per relation, in schema order.
        names = self._schema.relation_names()
        self._groups = len(names)
        self._group_of = {name: group for group, name in enumerate(names)}
        #: fact id → net pending change (the coalesced buffer).
        self._pending: dict[int, _Pending] = {}
        self._counts = [0] * self._groups
        # The allocator mirror: replays the database's ``_next_id``
        # transitions as if every buffered event had applied immediately.
        self._mirror_next = self._database._next_id
        # Observability.
        self._submitted = 0
        self._coalesced = 0
        self._noops = 0
        self._flushed_events = 0
        self._flushes = 0
        self._backpressure_flushes = 0
        self._forced_reads = 0
        self._reads = 0
        self._max_pending = 0
        self._flush_samples: deque[float] = deque(maxlen=_LATENCY_WINDOW)
        session._ingest = self

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, *, flush: bool = True) -> None:
        """Detach from the session, draining pending events by default.

        ``flush=False`` abandons the buffer — the reserved identifiers
        and mirrored allocator transitions are forgotten, and the next
        pipeline resyncs from the live database.
        """
        if flush and self._pending:
            self.flush()
        if getattr(self.session, "_ingest", None) is self:
            self.session._ingest = None

    def __enter__(self) -> "IngestPipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(flush=exc_type is None)

    # ------------------------------------------------------------------
    # Submission (the producer surface)
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Net pending events (coalesced entries) awaiting a drain."""
        return len(self._pending)

    def pending_per_relation(self) -> list[int]:
        """Net pending events per relation, in schema order."""
        return list(self._counts)

    def submit(self, kind: str, *args) -> int | bool:
        """Buffer one mutation, draining synchronously when full.

        ``submit("insert", fact)`` returns the reserved identifier;
        ``submit("delete", identifier)`` / ``submit("update",
        identifier, attribute, value)`` return the same applicability
        boolean the eager database primitive would have — ``False``
        leaves no pending entry behind.  When admitting the submission
        would grow the buffer past ``capacity``, the call blocks the
        producer for one full drain first.
        """
        return self._submit(kind, args, block=True)

    def try_submit(self, kind: str, *args) -> int | bool | None:
        """Non-blocking :meth:`submit`: returns ``None`` when refused.

        Refusal means admitting the submission would grow the buffer
        past ``capacity``; nothing is buffered and no allocator
        transition is mirrored.  Submissions that coalesce into an
        existing entry are always admitted.
        """
        return self._submit(kind, args, block=False)

    def insert(self, fact: Fact) -> int:
        """``submit("insert", fact)``."""
        return self._submit("insert", (fact,), block=True)

    def delete(self, identifier: int) -> bool:
        """``submit("delete", identifier)``."""
        return self._submit("delete", (identifier,), block=True)

    def update(self, identifier: int, attribute: str, value: Value) -> bool:
        """``submit("update", identifier, attribute, value)``."""
        return self._submit("update", (identifier, attribute, value), block=True)

    def _submit(self, kind: str, args: tuple, block: bool):
        if kind == "insert":
            result = self._submit_insert(*args, block=block)
        elif kind == "delete":
            result = self._submit_delete(*args, block=block)
        elif kind == "update":
            result = self._submit_update(*args, block=block)
        else:
            raise ValueError(
                f"unknown submission kind {kind!r}; "
                "expected 'insert', 'delete' or 'update'"
            )
        if result is not None:
            self._submitted += 1
            if len(self._pending) > self._max_pending:
                self._max_pending = len(self._pending)
        return result

    def _resync_mirror(self) -> None:
        # With nothing pending the live allocator is the truth — picking
        # it up here heals any out-of-band mutations made between drains.
        if not self._pending:
            self._mirror_next = self._database._next_id

    def _admit(self, block: bool) -> bool:
        """Make room for one new entry; False = refused (try_submit)."""
        if len(self._pending) < self.capacity:
            return True
        if not block:
            return False
        self._backpressure_flushes += 1
        self.flush()
        return True

    def _is_free(self, identifier: int) -> bool:
        entry = self._pending.get(identifier)
        if entry is not None:
            return entry.post is None
        return identifier not in self._database

    def _submit_insert(self, fact: Fact, *, block: bool) -> int | None:
        signature = self._schema.signature(fact.relation)
        if fact.arity != signature.arity:
            raise SchemaError(
                f"fact arity {fact.arity} does not match signature arity "
                f"{signature.arity} of {fact.relation!r}"
            )
        self._resync_mirror()
        # The identifier the database would assign: minimal free id from
        # the mirrored cursor, where "free" accounts for pending deletes
        # (their slots are reusable) and pending reservations (taken).
        identifier = self._mirror_next
        while not self._is_free(identifier):
            identifier += 1
        entry = self._pending.get(identifier)
        if entry is None and not self._admit(block):
            return None
        self._mirror_next = identifier + 1
        if entry is not None:
            # Reusing an identifier freed by a pending delete: the entry
            # becomes a net replacement (or delete + insert when the
            # relation changed) under the original base image.
            entry.post = fact
            self._coalesced += 1
        else:
            group = self._group_of[fact.relation]
            self._pending[identifier] = _Pending(None, fact, group)
            self._counts[group] += 1
        return identifier

    def _submit_delete(self, identifier: int, *, block: bool) -> bool | None:
        entry = self._pending.get(identifier)
        if entry is not None:
            if entry.post is None:
                return False  # already deleted in the pending view
            if entry.base is None:
                self._drop_entry(identifier, entry)  # insert+delete nets out
            else:
                entry.post = None
            self._mirror_next = min(self._mirror_next, identifier)
            self._coalesced += 1
            return True
        base = self._database.get(identifier)
        if base is None:
            self._noops += 1
            return False
        if not self._admit(block):
            return None
        self._resync_mirror()
        group = self._group_of[base.relation]
        self._pending[identifier] = _Pending(base, None, group)
        self._counts[group] += 1
        self._mirror_next = min(self._mirror_next, identifier)
        return True

    def _submit_update(
        self, identifier: int, attribute: str, value: Value, *, block: bool
    ) -> bool | None:
        entry = self._pending.get(identifier)
        target = entry.post if entry is not None else self._database.get(identifier)
        if target is None:
            self._noops += 1
            return False  # absent (or pending-deleted) — inapplicable
        signature = self._schema.signature(target.relation)
        if not signature.has_attribute(attribute):
            self._noops += 1
            return False
        post = target.with_value(signature, attribute, value)
        if entry is not None:
            if post == entry.base:
                self._drop_entry(identifier, entry)  # netted back to base
            else:
                entry.post = post
            self._coalesced += 1
            return True
        if post == target:
            self._noops += 1  # value unchanged: the database would not event
            return True
        if not self._admit(block):
            return None
        group = self._group_of[target.relation]
        self._pending[identifier] = _Pending(target, post, group)
        self._counts[group] += 1
        return True

    def _drop_entry(self, identifier: int, entry: _Pending) -> None:
        del self._pending[identifier]
        self._counts[entry.group] -= 1

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Drain every group; returns the number of net events applied."""
        return self._drain(range(self._groups))

    def _drain(self, groups: Iterable[int]) -> int:
        chosen = [group for group in groups if self._counts[group]]
        if not chosen:
            return 0
        # Trips before anything applies: a tripped drain leaves buffer,
        # database and session bit-identical, so the producer retries.
        faults.trip(FAULT_FLUSH)
        started = time.perf_counter()
        applied = 0
        for group in sorted(chosen):
            applied += self._apply_group(group)
        # Sync the allocator cursor to the mirrored per-event history, so
        # a fully drained database — fingerprint included — is
        # bit-identical to having applied every submission eagerly.
        self._database._next_id = self._mirror_next
        self.session._flush()
        self._flush_samples.append(time.perf_counter() - started)
        self._flushes += 1
        self._flushed_events += applied
        return applied

    def _apply_group(self, group: int) -> int:
        deletes: list[tuple[int, _Pending]] = []
        swaps: list[tuple[int, _Pending]] = []
        inserts: list[tuple[int, _Pending]] = []
        for identifier, entry in self._pending.items():
            if entry.group != group:
                continue
            if entry.post is None:
                deletes.append((identifier, entry))
            elif entry.base is None:
                inserts.append((identifier, entry))
            else:
                swaps.append((identifier, entry))
        database = self._database
        applied = 0
        for identifier, entry in sorted(deletes):
            self._drop_entry(identifier, entry)
            if not database.delete(identifier):
                raise IngestError(
                    f"pending delete of identifier {identifier} found no "
                    "fact — the database was mutated out-of-band while "
                    "events were pending"
                )
            applied += 1
        for identifier, entry in sorted(swaps):
            self._drop_entry(identifier, entry)
            post = entry.post
            if post.relation == entry.base.relation:
                ok = database.replace(identifier, post)
            else:
                ok = database.delete(identifier) and database.restore(
                    identifier, post
                )
            if not ok:
                raise IngestError(
                    f"pending update of identifier {identifier} found no "
                    "fact — the database was mutated out-of-band while "
                    "events were pending"
                )
            applied += 1
        for identifier, entry in sorted(inserts):
            self._drop_entry(identifier, entry)
            if not database.restore(identifier, entry.post):
                raise IngestError(
                    f"reserved identifier {identifier} is already taken — "
                    "the database was mutated out-of-band while events "
                    "were pending"
                )
            applied += 1
        return applied

    # ------------------------------------------------------------------
    # Reads (the consumer surface)
    # ------------------------------------------------------------------
    def read(
        self,
        measures: Iterable = (),
        *,
        max_staleness_events: int = 0,
        budget=None,
    ) -> IngestRead:
        """Measure through the pipeline, at most *N* net events stale.

        Forces a drain only when the pending count exceeds
        ``max_staleness_events``, draining the most-backlogged relations
        first and stopping as soon as the bound holds — the other
        relations' events stay pending.  The
        returned :class:`IngestRead` carries the generation the values
        were served at and the residual staleness.
        """
        if max_staleness_events < 0:
            raise ValueError(
                f"max_staleness_events must be >= 0, got {max_staleness_events}"
            )
        forced = False
        excess = len(self._pending) - max_staleness_events
        if excess > 0:
            backlog = sorted(
                (group for group in range(self._groups) if self._counts[group]),
                key=lambda group: (-self._counts[group], group),
            )
            chosen: list[int] = []
            for group in backlog:
                if excess <= 0:
                    break
                chosen.append(group)
                excess -= self._counts[group]
            self._drain(chosen)
            forced = True
            self._forced_reads += 1
        self._reads += 1
        measures = list(measures)
        values = (
            self.session.measure_all(measures, budget=budget) if measures else {}
        )
        return IngestRead(
            values=values,
            generation=self.session.topology.generation,
            staleness=len(self._pending),
            flushed=forced,
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def counters(self) -> dict:
        """Ingest counters, surfaced under ``session.stats()["ingest"]``."""
        return {
            "capacity": self.capacity,
            "pending": len(self._pending),
            "pending_per_relation": list(self._counts),
            "events_submitted": self._submitted,
            "events_coalesced": self._coalesced,
            "events_noop": self._noops,
            "events_flushed": self._flushed_events,
            "flushes": self._flushes,
            "backpressure_flushes": self._backpressure_flushes,
            "reads": self._reads,
            "forced_reads": self._forced_reads,
            "max_pending": self._max_pending,
            "flush_p50": _percentile(self._flush_samples, 0.50),
            "flush_p99": _percentile(self._flush_samples, 0.99),
        }
