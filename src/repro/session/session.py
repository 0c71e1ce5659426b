"""The measurement session: a live ``(Σ, D)`` pair with a patched index.

A one-shot ``measure.value(Σ, D)`` runs a full cold detection on every
call; a noise sweep or repair loop that perturbs a handful of tuples per
step pays that full cost at every measurement point.  A
:class:`MeasurementSession` runs the same cold build
(:func:`~repro.session.enumeration.cold_build`) once and then maintains
the result under the database's change feed.

The live state is split by relation into shards
(:mod:`repro.session.sharding`); each shard (:class:`~repro.session.shard._Shard`)
marks touched facts dirty and, on the next read,

1. retracts every stored witness that binds a dirty fact (via a reverse
   fact → witness map),
2. re-enumerates, per lowered DC, only the witnesses touching the dirty
   facts, and
3. folds the witness delta into a live
   :class:`~repro.violations.topology.ComponentTopology`, which locally
   re-minimizes and re-splits only the affected region — the minimized
   family and the conflict components are *maintained*, never rebuilt.

The session itself owns everything that reads those shards: measures,
budgets, speculation, ingest and snapshots.  A live component is immutable
— a delta that touches it replaces it — so it carries its own exact
measure values (``TopologyComponent.values``): a read resolves a component
through the content-addressed
:class:`~repro.measures.base.ComponentValueCache` once, and every later
read of the unchanged component is a dict lookup.  Reads visit components
in global smallest-member-fact order — the order of the from-scratch path
— so every result is bit-identical to ``build_violation_index`` plus
``measure.value``.  With one shard that order is the shard's own and no
merge runs; with several, the per-shard streams are k-way merged.

On top of the maintained topology the session offers **speculative
evaluation** through one what-if engine,
:meth:`MeasurementSession.speculate_batch` (:meth:`~MeasurementSession.speculate`
is its one-candidate case).  The base component values are read once per
batch, off the components' own values; each candidate pays only its own
affected region, previewed
read-only on the shards it touches — a deletion of live facts without
touching the database at all, anything else under a
:class:`~repro.relational.database.Savepoint` rolled back by replaying
inverse events — plus O(1) identity lookups for the rest.  Every measure
that decomposes over components (``I_d`` included) is scored this way;
the one that does not (``I_R_upd``) reads the patched database inside the
candidate's savepoint.  No database copy, no rebuild, no committed flush
and no topology write on any path; every value is bit-identical to the
copy-and-rebuild result.
"""

from __future__ import annotations

import heapq
from operator import attrgetter, itemgetter
from typing import Iterable, Sequence

from ..constraints.base import Constraint
from ..measures.base import (
    ComponentValueCache,
    ComponentwiseMeasure,
    component_cache_key,
    has_bounded_solve,
)
from ..relational.database import ChangeEvent, Database, Fact, Savepoint
from ..relational.values import Value
from ..solvers.anytime import (
    OPTIMAL,
    as_budget,
    current_scope,
    solver_scope,
    status_of,
)
from ..testing import faults
from ..violations.minimal import ViolationIndex, lower_constraints
from ..violations.topology import split_minimized
from .shard import _Shard, relation_groups
from .snapshot import (
    SNAPSHOT_VERSION,
    SessionSnapshot,
    constraint_digest,
    database_fingerprint,
)

#: Fault-injection point: raised while forwarding a change event to the
#: owning shard (see :mod:`repro.testing.faults`).
FAULT_FANOUT = "shard.fanout"

_MINIMUM = attrgetter("minimum")
_FIRST = itemgetter(0)
#: Bound on one component's stored values (one entry per measure instance).
_MAX_COMPONENT_VALUES = 64


def _entry_values(
    entries: list,
    base_parts: dict,
    measures: list,
    cache: ComponentValueCache,
    constraints: Sequence[Constraint],
    database: Database,
) -> dict[str, float]:
    """Score *measures* over a merged base/regional component entry list.

    *entries* is ``(minimum, component | None, index)`` triples sorted by
    smallest member fact — base components resolve by identity through
    *base_parts* (``measure → {id(component): value}``), regional (freshly
    previewed) entries carry ``None`` and resolve through the
    content-addressed *cache*.  The entry order is the global component
    order, so the result is bit-identical to commit-and-read no matter how
    the entries were collected.
    """
    regional_keys: dict[int, tuple] = {}
    values: dict[str, float] = {}
    for measure in measures:
        parts_of = base_parts[measure]
        parts: list[float] = []
        for _, component, index in entries:
            if component is not None:
                parts.append(parts_of[id(component)])
                continue
            key = regional_keys.get(id(index))
            if key is None:
                key = component_cache_key(index, database)
                regional_keys[id(index)] = key
            parts.append(
                cache.component_value(
                    measure, constraints, database, index, key=key
                )
            )
        values[measure.name] = measure.value_from_parts(
            parts, (index for _, _, index in entries)
        )
    return values


def _whole_database_values(
    constraints: Sequence[Constraint], database: Database, measures: list
) -> dict[str, float]:
    """Score the measures that do not localize (``I_R_upd``) on *database*.

    Inside a candidate's savepoint the database is the patched state.  No
    index is handed over: these measures read the database itself, so
    nothing is flushed or assembled.
    """
    return {
        measure.name: measure.value(constraints, database)
        for measure in measures
    }


def _deleted_facts(operations: list, database: Database) -> list[int] | None:
    """The live identifiers a deletion-only candidate removes, else None.

    None as soon as one operation does anything but delete a live fact
    (an insert, an update, a delete of a dead identifier): that candidate
    takes the savepoint path.
    """
    deleted: list[int] = []
    for operation in operations:
        identifier = operation.deleted_fact(database)
        if identifier is None:
            return None
        deleted.append(identifier)
    return deleted


class _SpeculationBase:
    """Identity-pinned base snapshot for batched scoring rounds.

    ``entries`` holds, per shard, the ``(minimum, component, index)``
    triples of its live components (pinning every base component's
    ``id()``); ``key`` records the per-shard ``(topology, generation)``
    pairs the snapshot was taken at.
    """

    __slots__ = ("key", "entries")

    def __init__(self, key: tuple, entries: list[list]) -> None:
        self.key = key
        self.entries = entries


class MeasurementSession:
    """Owns ``(Σ, D)`` and keeps the violation index maintained under deltas.

    The session subscribes to *database* on construction; use it as a
    context manager (or call :meth:`close`) to detach.  Mutations may go
    through the session's :meth:`insert`/:meth:`delete`/:meth:`update`
    conveniences or directly through the database — noise generators and
    cleaners that mutate in place are tracked all the same.

    The live state is partitioned by the constraint/relation hypergraph's
    connected components (:func:`~repro.session.shard.relation_groups` —
    the finest sharding that keeps every DC inside one shard), and each
    shard's column store runs on the process's column backend.  Neither
    is an option: a change event only ever reaches the one shard indexing
    its relation, and results are bit-identical whatever the partition or
    the backend.
    """

    def __init__(
        self,
        constraints: Sequence[Constraint],
        database: Database,
        *,
        warm_start: SessionSnapshot | None = None,
        time_budget: float | None = None,
    ) -> None:
        self.constraints = list(constraints)
        self.database = database
        #: Default per-call solver budget in seconds (None = exact).  Each
        #: budgeted entry point coerces it to a fresh
        #: :class:`~repro.solvers.anytime.Budget` at call time, so the
        #: clock starts when the call does; an explicit ``budget=`` always
        #: wins.
        self.time_budget = time_budget
        # Lower once; shards receive pre-lowered subsets.
        self.dcs = lower_constraints(self.constraints, database.schema)
        groups = relation_groups(self.dcs, database.schema)
        self.relation_groups: list[tuple[str, ...]] = groups
        self.component_cache = ComponentValueCache()
        #: Relation name → number of the shard indexing it.
        self._shard_number: dict[str, int] = {
            relation: number
            for number, group in enumerate(groups)
            for relation in group
        }
        shard_dcs: list[list] = [[] for _ in groups]
        #: Global lowered-DC position → (shard number, local store position).
        self._routing: list[tuple[int, int]] = []
        for dc in self.dcs:
            number = self._shard_number[dc.variables[0][1]]
            self._routing.append((number, len(shard_dcs[number])))
            shard_dcs[number].append(dc)
        # Shard payloads only when the session-level identity (format
        # version, lowered-DC digest, routing partition, fingerprint) still
        # holds; each shard then re-verifies its own slice and cold-builds
        # alone on mismatch — never a wrong answer, by composition.
        payloads = self._warm_payloads(warm_start)
        self.shards: list[_Shard] = [
            _Shard(
                dcs,
                database,
                self.component_cache,
                warm_start=payloads[number] if payloads else None,
            )
            for number, dcs in enumerate(shard_dcs)
        ]
        #: Whether every shard restored from the warm-start snapshot (False
        #: on fallback — a mismatched snapshot cold-builds, never
        #: mis-restores).
        self.warm_started = payloads is not None and all(
            shard.warm_started for shard in self.shards
        )
        # Shards whose fan-out raised mid-event: their maintained state may
        # have missed the event, so they rebuild cold at the next flush
        # instead of ever serving a stale answer.
        self._degraded: set[int] = set()
        self._cached: ViolationIndex | None = None
        self._cached_key: tuple | None = None
        self._spec_base: _SpeculationBase | None = None
        # Cumulative speculated candidates by scoring path (stats()).
        self._speculation = {"deletion_previews": 0, "savepoint_previews": 0}
        # The attached streaming-ingest pipeline, if any (set by
        # IngestPipeline; surfaces its counters through stats()).
        self._ingest = None
        self._closed = False
        database.subscribe(self._on_change)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach from the database's change feed (idempotent)."""
        if not self._closed:
            self.database.unsubscribe(self._on_change)
            self._closed = True

    def __enter__(self) -> "MeasurementSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Mutation conveniences (the database notifies us back)
    # ------------------------------------------------------------------
    def insert(self, fact: Fact) -> int:
        return self.database.insert(fact)

    def delete(self, identifier: int) -> bool:
        return self.database.delete(identifier)

    def update(self, identifier: int, attribute: str, value: Value) -> bool:
        return self.database.update(identifier, attribute, value)

    def apply(self, operations: Iterable) -> None:
        """Apply repair operations in place (delta-tracked)."""
        for operation in operations:
            operation.apply_in_place(self.database)

    def ingest(self, *, capacity: int = 1024):
        """Attach a coalescing streaming-ingest pipeline to this session.

        Returns an :class:`~repro.session.ingest.IngestPipeline` with a
        bounded pending buffer of *capacity* net events, buffered per
        owning shard — see that module for the coalescing, backpressure
        and read-staleness contract.
        """
        from .ingest import IngestPipeline

        return IngestPipeline(self, capacity=capacity)

    def savepoint(self) -> Savepoint:
        """Open a rollback journal on the owned database.

        ``with session.savepoint(): ...`` applies mutations through the
        change feed as usual and, on exit, replays their inverses — the
        session observes the undo as ordinary deltas and its index returns
        to the pre-savepoint state bit-for-bit.
        """
        return self.database.savepoint()

    # ------------------------------------------------------------------
    # The maintained views
    # ------------------------------------------------------------------
    @property
    def pending_deltas(self) -> int:
        """Dirty fact count across shards awaiting the next flush."""
        return sum(len(shard._dirty) for shard in self.shards)

    def index(self) -> ViolationIndex:
        """The current ``ViolationIndex``, patched with any pending deltas.

        ``per_constraint`` concatenates the shards' cached sorted stores in
        global lowered-DC order, ``mi_sets`` merges the shards' maintained
        sorted pair views, and the component split is adopted from the
        topologies in global component order — list-identical to
        ``build_violation_index``.  Memoized on the per-shard topology
        generations, so only a flush that changed some witness
        re-assembles.
        """
        self._flush()
        key = self._generation_key()
        if self._cached is None or self._cached_key != key:
            index = ViolationIndex()
            per_constraint = index.per_constraint
            for number, local in self._routing:
                per_constraint.extend(
                    self.shards[number]._witnesses[local].ordered()
                )
            if len(self.shards) == 1:
                index.mi_sets = list(self.shards[0].topology.assemble_mi())
            else:
                index.mi_sets = [
                    witness
                    for _, witness in heapq.merge(
                        *(
                            shard.topology.assemble_mi_pairs()
                            for shard in self.shards
                        )
                    )
                ]
            index.adopt_components(
                self._in_component_order(
                    [shard.topology.component_indexes() for shard in self.shards]
                )
            )
            self._cached = index
            self._cached_key = key
        return self._cached

    def is_consistent(self) -> bool:
        self._flush()
        for shard in self.shards:
            if not shard.topology.is_consistent():
                return False
        return True

    def problematic_facts(self):
        """``∪ MI_Σ(D)`` — no index assembly required.

        A one-shard session returns the topology's live read-only view;
        several shards return the union as a fresh set.
        """
        self._flush()
        if len(self.shards) == 1:
            return self.shards[0].topology.problematic()
        union: set[int] = set()
        for shard in self.shards:
            union.update(shard.topology.problematic())
        return union

    def measure(self, measure, *, budget=None) -> float:
        """Evaluate one measure against the maintained state.

        Component-wise measures read the topologies directly — each live
        component's own values, else the session's
        :class:`~repro.measures.base.ComponentValueCache` — with no
        full-index assembly at all.  A whole-database measure (``I_R_upd``)
        reads the database itself: no index, no flush.

        *budget* (seconds or a :class:`~repro.solvers.anytime.Budget`)
        bounds the hard per-component solves: within it, results are the
        historical exact values; beyond it they degrade to
        :class:`~repro.solvers.anytime.BoundedValue` with honest bounds and
        a non-OPTIMAL status.  ``None`` (the default) is exact and
        bit-identical to every prior release.
        """
        budget = self._call_budget(budget)
        if not isinstance(measure, ComponentwiseMeasure):
            with solver_scope(budget):
                return _whole_database_values(
                    self.constraints, self.database, [measure]
                )[measure.name]
        self._flush()
        if budget is None:
            return self._componentwise_value(measure)
        with solver_scope(budget, plan=self._solve_plan([measure])):
            return self._componentwise_value(measure)

    def measure_all(self, measures: Iterable, *, budget=None) -> dict[str, float]:
        """Evaluate a batch of measures sharing the maintained state.

        One *budget* covers the whole batch: the remaining time is sliced
        across the hard component solves still ahead (of every shard), so
        a single pathological component cannot starve the other measures.
        """
        measures = list(measures)
        budget = self._call_budget(budget)
        if budget is None:
            return {measure.name: self.measure(measure) for measure in measures}
        self._flush()
        with solver_scope(budget, plan=self._solve_plan(measures)):
            return {measure.name: self.measure(measure) for measure in measures}

    def _call_budget(self, budget):
        """The effective budget for one call (explicit beats the default).

        Inside an already-active solver scope a defaulted call opens no new
        scope — the outer budgeted call owns the time slicing (this is how
        ``measure_all``'s one budget covers its inner ``measure`` calls
        without each re-starting the session default).
        """
        if budget is None:
            if current_scope() is not None:
                return None
            budget = self.time_budget
        return as_budget(budget)

    def _solve_plan(self, measures: Sequence) -> int | None:
        """Estimated hard component solves ahead (budget slicing hint)."""
        hard = sum(1 for measure in measures if has_bounded_solve(measure))
        if not hard:
            return None
        components = sum(
            len(shard.topology._components) for shard in self.shards
        )
        return max(1, hard * components)

    def refresh(self) -> ViolationIndex:
        """Force a from-scratch rebuild of every shard (a cross-check tool).

        Every memo derived from the retired topologies is dropped with
        them: the speculation base holds the old component objects (and
        their values) alive, and the stale assembly key would otherwise pin
        retired topology objects for the session's lifetime.  The fresh
        components start with empty values.
        """
        for shard in self.shards:
            shard._rebuild()
        self._degraded.clear()
        self._cached = None
        self._cached_key = None
        self._spec_base = None
        return self.index()

    def stats(self) -> dict:
        """Per-DC enumeration counters in global lowered-DC order.

        ``vector_backend`` is the column backend every shard's store runs
        on (None for a session without constraints, which has no shard).
        ``speculation`` counts the candidates scored since construction,
        by :meth:`speculate_batch` and :meth:`speculate` alike:
        ``deletion_previews`` were never applied, ``savepoint_previews``
        were applied and rolled back.
        """
        stats = {
            "vector_backend": (
                self.shards[0]._columns.backend if self.shards else None
            ),
            "constraints": [
                dict(
                    self.shards[number]._enum_stats[local].as_dict(),
                    constraint=self.shards[number].dcs[local].name,
                )
                for number, local in self._routing
            ],
            "speculation": dict(self._speculation),
        }
        if self._ingest is not None:
            stats["ingest"] = self._ingest.counters()
        return stats

    # ------------------------------------------------------------------
    # Warm-start snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> SessionSnapshot:
        """Capture the full derived state for a later warm start.

        The snapshot embeds the database fingerprint, the lowered-DC digest
        and the relation partition; ``MeasurementSession(...,
        warm_start=snap)`` restores it shard by shard only when all of
        them still match (falling back to a cold build otherwise), so a
        warm-started session is bit-identical to a cold one on every read —
        see :mod:`repro.session.snapshot`.  Snapshots round-trip through
        :func:`~repro.session.snapshot.save_snapshot` /
        :func:`~repro.session.snapshot.load_snapshot` (or plain pickle).
        """
        self._flush()
        return SessionSnapshot(
            version=SNAPSHOT_VERSION,
            fingerprint=database_fingerprint(self.database),
            constraints=constraint_digest(self.dcs),
            relation_groups=[tuple(group) for group in self.relation_groups],
            shards=[shard._snapshot_payload() for shard in self.shards],
        )

    def _warm_payloads(self, snap) -> list | None:
        """The per-shard payloads of *snap*, or None to cold-build.

        Revalidates the routing partition: the payloads describe relation
        slices, so a snapshot whose recorded partition differs from this
        session's must not be threaded into shards it was never split
        for.  The database is hashed only after every cheap check has
        passed.
        """
        if snap is None:
            return None
        try:
            if not isinstance(snap, SessionSnapshot):
                return None
            if snap.verify(self.dcs, self.relation_groups, self.database) is None:
                return None
            return list(snap.shards)
        except Exception:
            # Malformed fields in a deserialized-but-bogus snapshot must
            # degrade to a cold build, exactly like any other mismatch.
            return None

    # ------------------------------------------------------------------
    # Speculative evaluation (what-if deltas)
    # ------------------------------------------------------------------
    def speculate(
        self, operations: Iterable, measures: Iterable, *, budget=None
    ) -> dict[str, float]:
        """Measure values *as if* *operations* had been applied — copy-free.

        A one-candidate :meth:`speculate_batch`: same paths, same values
        (bit-identical to copying the database, applying the operations
        and rebuilding from scratch), same read-only contract — nothing is
        committed, so the live topologies, their generations and every
        derived cache survive the call.  *budget* bounds the hard
        per-component solves exactly as in :meth:`measure`.
        """
        return self.speculate_batch([operations], measures, budget=budget)[0]

    def speculate_value(self, operations: Iterable, measure) -> float:
        """One-measure :meth:`speculate`."""
        return self.speculate(operations, (measure,))[measure.name]

    def speculate_batch(
        self, candidates: Iterable[Iterable], measures: Iterable, *, budget=None
    ) -> list[dict[str, float]]:
        """Score a whole candidate set against the current base state.

        *candidates* is a sequence of operation batches; the returned dicts
        are value-identical to copy-apply-rebuild.  This is the session's
        only what-if engine: :meth:`speculate` is a one-candidate batch.

        The batch owns the scoring round, so each candidate is **one region
        pass** per shard it touches, and the base component values, read
        once per batch, fill in the rest by identity.  The live
        topologies, the witness stores and every derived cache stay
        untouched.  A candidate takes one of two paths:

        * every operation deletes a live fact: nothing is applied.  Each
          touched shard filters its owning components' MI sets through
          :meth:`~repro.violations.topology.ComponentTopology.preview_deletion`
          — no savepoint, no change event, no column-store write and no
          re-enumeration;
        * anything else is applied under its own savepoint: its witness
          delta is enumerated against the patched database, the affected
          region is re-minimized and re-split through a read-only
          :meth:`~repro.violations.topology.ComponentTopology.preview`,
          and the candidate is rolled back.  The apply/rollback dirty
          marks the batch itself produced are balanced by construction and
          dropped at the end instead of flushed.

        ``stats()["speculation"]`` counts the candidates of each path.
        A measure that does not decompose over components (``I_R_upd``)
        needs the patched database itself: with one in the list every
        candidate takes the savepoint path, and the measure reads the
        database inside the savepoint — no index, no flush.  No path
        commits anything.

        *budget* bounds the hard per-component solves exactly as in
        :meth:`measure` — degraded values carry bounds and status; they are
        shared by the batch's candidates and die with the batch, never
        stored anywhere the unbudgeted paths could later read.
        """
        candidates = [list(operations) for operations in candidates]
        measures = list(measures)
        budget = self._call_budget(budget)
        if not candidates:
            return []
        local = [m for m in measures if isinstance(m, ComponentwiseMeasure)]
        whole = [m for m in measures if not isinstance(m, ComponentwiseMeasure)]
        counts = self._speculation
        base = self._speculation_base()
        database = self.database
        shards = self.shards
        batch_marks: list[set[int]] = [set() for _ in shards]
        outside: list[set[int]] = [set() for _ in shards]
        with solver_scope(budget, plan=self._solve_plan(measures)):
            base_parts = {
                measure: {
                    id(component): part
                    for shard in shards
                    for component, part in zip(
                        shard.topology.components(),
                        self._live_parts(shard.topology, measure),
                    )
                }
                for measure in local
            }
            results: list[dict[str, float]] = []
            for operations in candidates:
                # Dirty marks present before this candidate that no
                # earlier candidate produced came from *outside* the
                # batch (e.g. a concurrent ingest producer committing
                # between candidates) — they must survive the batch.
                for number, shard in enumerate(shards):
                    if shard._dirty:
                        outside[number] |= shard._dirty - batch_marks[number]
                # A whole-database measure reads the patched database,
                # so its candidates are always applied.
                deleted = None if whole else _deleted_facts(operations, database)
                if deleted is not None:
                    counts["deletion_previews"] += 1
                    touched = self._by_shard(
                        (identifier, database[identifier])
                        for identifier in deleted
                    )
                    previews = {
                        number: shards[number].topology.preview_deletion(
                            identifiers
                        )
                        for number, identifiers in touched.items()
                    }
                    results.append(
                        self._preview_values(base, base_parts, previews, local)
                    )
                    continue
                counts["savepoint_previews"] += 1
                with self.savepoint() as savepoint:
                    for operation in operations:
                        operation.apply_in_place(database)
                    # Routed like _on_change: an event never changes
                    # its fact's relation.
                    touched = self._by_shard(
                        (
                            event.identifier,
                            event.new if event.new is not None else event.old,
                        )
                        for event in savepoint.events
                    )
                    previews = {}
                    for number, identifiers in touched.items():
                        batch_marks[number] |= identifiers
                        previews[number] = shards[number]._preview_region(
                            identifiers
                        )
                    values = self._preview_values(
                        base, base_parts, previews, local
                    )
                    if whole:
                        values.update(
                            _whole_database_values(
                                self.constraints, database, whole
                            )
                        )
                        values = {m.name: values[m.name] for m in measures}
                    results.append(values)
        # The batch never committed anything: every candidate's events were
        # rolled back (bit-identical database and equality indexes, by the
        # savepoint contract) and neither the stores nor the topologies
        # were ever written.  The batch's own dirty marks are balanced
        # apply/inverse pairs, so the flush they call for is a no-op by
        # construction — drop them.  Marks recorded by mutations outside
        # the balanced pairs describe real committed deltas and stay dirty.
        for number, shard in enumerate(shards):
            if shard._dirty:
                outside[number] |= shard._dirty - batch_marks[number]
                shard._dirty &= outside[number]
        return results

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _on_change(self, event: ChangeEvent) -> None:
        fact = event.new if event.new is not None else event.old
        number = self._shard_number.get(fact.relation)
        if number is None:
            return
        try:
            faults.trip(FAULT_FANOUT)
            self.shards[number]._on_change(event)
        except BaseException:
            # The shard may have missed (or half-applied) the event; its
            # maintained state can no longer be trusted.  Mark it for a
            # cold rebuild at the next flush and let the error surface to
            # the mutator — a lost delta degrades to recomputation, never
            # to a stale answer.
            self._degraded.add(number)
            raise

    def _flush(self) -> None:
        if self._degraded:
            degraded, self._degraded = self._degraded, set()
            for number in sorted(degraded):
                self.shards[number]._rebuild()
        for shard in self.shards:
            if shard._dirty:
                shard._flush()

    def _by_shard(self, facts: Iterable[tuple[int, Fact]]) -> dict[int, set[int]]:
        """``(identifier, fact)`` pairs grouped by the shard indexing each
        fact's relation; a fact whose relation has no shard changes nothing
        and is dropped."""
        touched: dict[int, set[int]] = {}
        for identifier, fact in facts:
            number = self._shard_number.get(fact.relation)
            if number is not None:
                touched.setdefault(number, set()).add(identifier)
        return touched

    def _generation_key(self) -> tuple:
        return tuple(
            (shard.topology, shard.topology.generation)
            for shard in self.shards
        )

    def _in_component_order(self, per_shard: list[list]) -> list:
        """Per-shard lists, each parallel to its shard's ``components()``,
        as one list in global component order (smallest member fact).

        One shard's list is already in that order and is returned as is —
        no merge.  Several are k-way merged on the component minimums,
        which are unique (a fact lives in one component of one shard), so
        the merge never compares the items themselves.
        """
        if len(per_shard) == 1:
            return per_shard[0]
        streams = [
            zip(map(_MINIMUM, shard.topology.components()), items)
            for shard, items in zip(self.shards, per_shard)
        ]
        return [item for _, item in heapq.merge(*streams)]

    def _live_parts(self, topology, measure) -> list:
        """Every live component's value of *measure*, in ``components()``
        order.

        A component's own ``values`` answer first: it is immutable, so a
        value stored on it stays exact for its whole life.  Otherwise the
        content-addressed cache resolves it (a hit, a warm-start entry, or
        a solve), and an OPTIMAL result is stored on the component — a
        budget-degraded bound never is, so the next read re-solves it.
        Callers that build fresh measure instances per read would grow a
        component's values without bound, so a full dict is cleared first.
        """
        cache = self.component_cache
        parts: list = []
        for component in topology.components():
            values = component.values
            part = values.get(measure)
            if part is None:
                part = cache.component_value(
                    measure,
                    self.constraints,
                    self.database,
                    component.index,
                    key=topology.cache_key(component),
                )
                if status_of(part) == OPTIMAL:
                    if len(values) >= _MAX_COMPONENT_VALUES:
                        values.clear()
                    values[measure] = part
            parts.append(part)
        return parts

    def _componentwise_value(self, measure) -> float:
        """One component-wise measure over the live topologies.

        Per-shard parts combine in global component order — the exact
        float order of the from-scratch path.  One shard's parts already
        are in that order.
        """
        parts = self._in_component_order(
            [self._live_parts(shard.topology, measure) for shard in self.shards]
        )
        return measure.value_from_parts(
            parts,
            (
                component.index
                for shard in self.shards
                for component in shard.topology.components()
            ),
        )

    def _speculation_base(self) -> _SpeculationBase:
        """The memoized base snapshot for batched speculation.

        Keyed on the per-shard topology generations, not on raw mutation
        events: flushes that produce no witness delta, and a batch's
        balanced apply/rollback pairs, leave every generation — and this
        snapshot — untouched.
        """
        self._flush()
        key = self._generation_key()
        if self._spec_base is None or self._spec_base.key != key:
            self._spec_base = _SpeculationBase(
                key,
                [
                    [
                        (component.minimum, component, component.index)
                        for component in shard.topology.components()
                    ]
                    for shard in self.shards
                ],
            )
        return self._spec_base

    def _preview_values(
        self,
        base: _SpeculationBase,
        base_parts: dict,
        previews: dict[int, tuple[list[frozenset[int]], set]],
        measures: list,
    ) -> dict[str, float]:
        """Score one candidate from read-only per-shard region previews.

        *previews* maps each shard the candidate touches to its
        ``(minimized, region)`` preview: ``_Shard._preview_region`` inside
        the candidate's savepoint (the database and the shard's column
        store are patched, the topologies still describe the base), or
        ``ComponentTopology.preview_deletion`` for a deletion-only
        candidate that was never applied.  Untouched shards contribute
        their base components whole, and base components outside every
        region fill in by identity from *base_parts* — bit-identical to
        commit-and-read.
        """
        entries: list = []
        for number, shard_entries in enumerate(base.entries):
            preview = previews.get(number)
            if preview is None:
                entries.extend(shard_entries)
                continue
            minimized, region = preview
            entries.extend(
                [entry for entry in shard_entries if entry[1] not in region]
            )
            entries.extend(
                (minimum, None, index)
                for minimum, index in split_minimized(minimized)
            )
        entries.sort(key=_FIRST)
        return _entry_values(
            entries,
            base_parts,
            measures,
            self.component_cache,
            self.constraints,
            self.database,
        )
