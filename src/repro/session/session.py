"""The measurement session: a live ``(Σ, D)`` pair with a patched index.

A one-shot ``measure.value(Σ, D)`` runs a full cold detection on every
call; a noise sweep or repair loop that perturbs a handful of tuples per
step pays that full cost at every measurement point.  A
:class:`MeasurementSession` runs the same cold build
(:func:`~repro.session.enumeration.cold_build`) once and then maintains
the result under the database's change feed.

A session owns one maintained state over every lowered DC: the per-DC
witness enumerators and the column store they read, the per-DC witness
stores, and a live :class:`~repro.violations.topology.ComponentTopology`,
which is also the one fact → ``(dc, witness)`` registry.  A change event
marks its fact dirty (events on relations no DC mentions are dropped),
and the next read

1. retracts every stored witness that binds a dirty fact,
2. groups the live dirty facts by relation once and re-enumerates, per
   lowered DC binding one of those relations, only the witnesses touching
   them, and
3. folds the witness delta into the topology, which decides the MI status
   of the delta's witnesses and their supersets locally and re-splits only
   the affected region — the minimized family and the conflict components
   are *maintained*, never rebuilt.

A live component is immutable — a delta that touches it replaces it — so
it carries its own exact measure values (``TopologyComponent.values``): a
read resolves a component through the content-addressed
:class:`~repro.measures.base.ComponentValueCache` once, and every later
read of the unchanged component is a dict lookup.  Reads visit components
in smallest-member-fact order — the order of the from-scratch path — so
every result is bit-identical to ``build_violation_index`` plus
``measure.value``.

On top of the maintained topology the session offers **speculative
evaluation** through one what-if engine,
:meth:`MeasurementSession.speculate_batch` (:meth:`~MeasurementSession.speculate`
is its one-candidate case).  The base component values are read once per
batch, off the components' own values; each candidate pays only its own
affected region, previewed read-only — a deletion of live facts without
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

from operator import itemgetter
from typing import Iterable, Sequence

from ..constraints.base import Constraint
from ..measures.base import (
    ComponentValueCache,
    ComponentwiseMeasure,
    component_cache_key,
    has_bounded_solve,
    warm_cache_token,
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
from ..violations.topology import (
    ComponentTopology,
    TopologyComponent,
    split_minimized,
)
from .columnar import ColumnStore
from .enumeration import (
    WitnessEnumerator,
    build_enumerators,
    cold_build,
    group_by_relation,
)
from .snapshot import (
    SNAPSHOT_VERSION,
    SessionSnapshot,
    constraint_digest,
    database_fingerprint,
)
from .witnesses import WitnessStore

#: Fault-injection point: raised while the session takes in a change event
#: (see :mod:`repro.testing.faults`).
FAULT_FANOUT = "shard.fanout"

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


class MeasurementSession:
    """Owns ``(Σ, D)`` and keeps the violation index maintained under deltas.

    The session subscribes to *database* on construction; use it as a
    context manager (or call :meth:`close`) to detach.  Mutations may go
    through the session's :meth:`insert`/:meth:`delete`/:meth:`update`
    conveniences or directly through the database — noise generators and
    cleaners that mutate in place are tracked all the same.

    The column store runs on the process's column backend
    (``columnar.VECTOR_BACKEND``), which is not an option: every read is
    bit-identical whatever the backend.
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
        self.dcs = lower_constraints(self.constraints, database.schema)
        #: Relations some DC mentions; events on any other relation can
        #: never produce a witness and are dropped.
        self._relations = frozenset(
            relation for dc in self.dcs for _, relation in dc.variables
        )
        self.component_cache = ComponentValueCache()
        # The witness stores, the per-DC enumerators with their column
        # store and the topology are all created by exactly one of
        # _restore/_rebuild below.
        self._enumerators: list[WitnessEnumerator]
        self._columns: ColumnStore
        self._enum_stats: list = [None] * len(self.dcs)
        self._witnesses: list[WitnessStore]
        self.topology: ComponentTopology
        self._dirty: set[int] = set()
        # Set when taking in a change event raised: the maintained state
        # may have missed the event, so it rebuilds cold at the next flush
        # instead of ever serving a stale answer.
        self._degraded = False
        self._cached: ViolationIndex | None = None
        self._cached_generation = -1
        #: Whether construction restored *warm_start* (False on fallback —
        #: a mismatched snapshot cold-builds, never mis-restores).
        self.warm_started = warm_start is not None and self._restore(warm_start)
        if not self.warm_started:
            self._rebuild()
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
        relation — see that module for the coalescing, backpressure and
        read-staleness contract.
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
        """Dirty fact count awaiting the next flush."""
        return len(self._dirty)

    def index(self) -> ViolationIndex:
        """The current ``ViolationIndex``, patched with any pending deltas.

        ``per_constraint`` concatenates the cached sorted witness stores in
        lowered-DC order, ``mi_sets`` is the topology's maintained sorted
        view, and the component split is adopted from the topology —
        list-identical to ``build_violation_index``.  Memoized on the
        topology generation, so only a flush that changed some witness
        re-assembles.
        """
        self._flush()
        generation = self.topology.generation
        if self._cached is None or self._cached_generation != generation:
            index = ViolationIndex()
            for store in self._witnesses:
                index.per_constraint.extend(store.ordered())
            index.mi_sets = list(self.topology.assemble_mi())
            index.adopt_components(self.topology.component_indexes())
            self._cached = index
            self._cached_generation = generation
        return self._cached

    def is_consistent(self) -> bool:
        self._flush()
        return self.topology.is_consistent()

    def problematic_facts(self):
        """``∪ MI_Σ(D)`` — the topology's live read-only view, no index
        assembly required."""
        self._flush()
        return self.topology.problematic()

    def measure(self, measure, *, budget=None) -> float:
        """Evaluate one measure against the maintained state.

        Component-wise measures read the topology directly — each live
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
        across the hard component solves still ahead, so a single
        pathological component cannot starve the other measures.
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
        return max(1, hard * len(self.topology._components))

    def refresh(self) -> ViolationIndex:
        """Force a from-scratch rebuild of the maintained state (a
        cross-check tool).

        The retired topology takes its components and their values with
        it, and the assembled index is dropped; the fresh components start
        with empty values.
        """
        self._rebuild()
        return self.index()

    def stats(self) -> dict:
        """Per-DC enumeration counters in lowered-DC order.

        ``vector_backend`` is the column backend the store runs on.
        ``speculation`` counts the candidates scored since construction,
        by :meth:`speculate_batch` and :meth:`speculate` alike:
        ``deletion_previews`` were never applied, ``savepoint_previews``
        were applied and rolled back.
        """
        stats = {
            "vector_backend": self._columns.backend,
            "constraints": [
                dict(counters.as_dict(), constraint=dc.name)
                for dc, counters in zip(self.dcs, self._enum_stats)
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

        The snapshot embeds the database fingerprint and the lowered-DC
        digest; ``MeasurementSession(..., warm_start=snap)`` restores it
        only when both still match (falling back to a cold build
        otherwise), so a warm-started session is bit-identical to a cold
        one on every read — see :mod:`repro.session.snapshot`.  Snapshots
        round-trip through :func:`~repro.session.snapshot.save_snapshot` /
        :func:`~repro.session.snapshot.load_snapshot` (or plain pickle).

        ``cache`` carries the live components' own values as ``(measure
        token, content key, value)`` triples; values of measures without a
        :func:`~repro.measures.base.warm_cache_token` stay behind.
        """
        self._flush()
        topology = self.topology
        cache = []
        for component in topology.components():
            for measure, value in component.values.items():
                token = warm_cache_token(measure)
                if token is not None:
                    cache.append((token, topology.cache_key(component), value))
        return SessionSnapshot(
            version=SNAPSHOT_VERSION,
            fingerprint=database_fingerprint(self.database),
            constraints=constraint_digest(self.dcs),
            stores=[store.capture() for store in self._witnesses],
            topology=topology.capture(),
            cache=cache,
        )

    def _restore(self, snap) -> bool:
        """Adopt a snapshot's derived state; False on any mismatch.

        The database is hashed only after every cheap check has passed.  A
        snapshot that deserialized but carries malformed fields (bit rot,
        a hand-crafted file) degrades the same way: structural errors
        anywhere in the restore are caught and answered with False — the
        caller's ``_rebuild`` reassigns every partially-touched structure,
        so a half-restore leaves nothing behind.
        """
        try:
            if not isinstance(snap, SessionSnapshot):
                return False
            if snap.verify(self.dcs, self.database) is None:
                return False
            self._witnesses = [
                WitnessStore.restore(dc, keys)
                for dc, keys in zip(self.dcs, snap.stores)
            ]
            self.topology = ComponentTopology.restore(
                self.dcs, self.database, snap.topology
            )
            self.component_cache.absorb_warm(snap.cache)
        except Exception:
            return False
        self._enumerators, self._columns = build_enumerators(
            self.dcs, self.database, self._enum_stats
        )
        self._enum_stats = [
            enumerator.stats for enumerator in self._enumerators
        ]
        return True

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
        committed, so the live topology, its generation and every derived
        cache survive the call.  *budget* bounds the hard per-component
        solves exactly as in :meth:`measure`.
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
        pass**, and the base component values, read once per batch, fill
        in the rest by identity.  The live topology, the witness stores
        and every derived cache stay untouched.  A candidate takes one of
        two paths:

        * every operation deletes a live fact: nothing is applied.  The
          owning components' MI sets are filtered through
          :meth:`~repro.violations.topology.ComponentTopology.preview_deletion`
          — no savepoint, no change event, no column-store write and no
          re-enumeration;
        * anything else is applied under its own savepoint: its witness
          delta is enumerated against the patched database, the affected
          region's MI status is decided and re-split through a read-only
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
        database = self.database
        relations = self._relations
        # The one committed flush, before any candidate is applied.
        self._flush()
        topology = self.topology
        components = topology.components()
        base = [
            (component.minimum, component, component.index)
            for component in components
        ]
        batch_marks: set[int] = set()
        outside: set[int] = set()
        with solver_scope(budget, plan=self._solve_plan(measures)):
            base_parts = {
                measure: dict(
                    zip(map(id, components), self._live_parts(measure))
                )
                for measure in local
            }
            results: list[dict[str, float]] = []
            for operations in candidates:
                # Dirty marks present before this candidate that no
                # earlier candidate produced came from *outside* the
                # batch (e.g. a concurrent ingest producer committing
                # between candidates) — they must survive the batch.
                if self._dirty:
                    outside |= self._dirty - batch_marks
                # A whole-database measure reads the patched database,
                # so its candidates are always applied.
                deleted = None if whole else _deleted_facts(operations, database)
                if deleted is not None:
                    counts["deletion_previews"] += 1
                    preview = topology.preview_deletion(deleted)
                    results.append(
                        self._preview_values(base, base_parts, preview, local)
                    )
                    continue
                counts["savepoint_previews"] += 1
                with self.savepoint() as savepoint:
                    for operation in operations:
                        operation.apply_in_place(database)
                    # Filtered like _on_change: an event never changes
                    # its fact's relation.
                    touched = {
                        event.identifier
                        for event in savepoint.events
                        if (
                            event.new if event.new is not None else event.old
                        ).relation
                        in relations
                    }
                    preview = None
                    if touched:
                        batch_marks |= touched
                        preview = self._preview_region(touched)
                    values = self._preview_values(
                        base, base_parts, preview, local
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
        # savepoint contract) and neither the stores nor the topology were
        # ever written.  The batch's own dirty marks are balanced
        # apply/inverse pairs, so the flush they call for is a no-op by
        # construction — drop them.  Marks recorded by mutations outside
        # the balanced pairs describe real committed deltas and stay dirty.
        if self._dirty:
            outside |= self._dirty - batch_marks
            self._dirty &= outside
        return results

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _on_change(self, event: ChangeEvent) -> None:
        fact = event.new if event.new is not None else event.old
        if fact.relation not in self._relations:
            return
        try:
            faults.trip(FAULT_FANOUT)
            self._dirty.add(event.identifier)
            self._columns.apply(event)
        except BaseException:
            # The maintained state may have missed (or half-applied) the
            # event and can no longer be trusted.  Mark it for a cold
            # rebuild at the next flush and let the error surface to the
            # mutator — a lost delta degrades to recomputation, never to a
            # stale answer.
            self._degraded = True
            raise

    def _flush(self) -> None:
        """Fold the pending dirty set into the stores and the topology.

        Witnesses binding a dirty fact (read off the topology) are
        retracted, the delta is re-enumerated, and the net ``(dc,
        witness)`` delta is handed to the topology, which updates MI
        status locally and re-splits only the affected region.  A flush
        that produces no witness delta leaves the topology generation
        untouched.
        """
        if self._degraded:
            self._rebuild()
        if not self._dirty:
            return
        dirty, self._dirty = self._dirty, set()
        topology = self.topology
        stores = self._witnesses
        retracted: list[tuple[int, frozenset[int]]] = []
        inserted: list[tuple[int, frozenset[int]]] = []
        for identifier in dirty:
            for dc_position, witness in topology.bound(identifier):
                if stores[dc_position].discard(witness):
                    retracted.append((dc_position, witness))
        for dc_position, witnesses in self._delta(dirty):
            store = stores[dc_position]
            for witness in witnesses:
                if store.add(witness):
                    inserted.append((dc_position, witness))
        topology.apply(retracted, inserted)

    def _delta(self, dirty: Iterable[int]) -> list[tuple[int, set]]:
        """``(dc position, witnesses)`` touching the live *dirty* facts.

        The facts are grouped by relation once; a DC that binds none of
        their relations is not called.
        """
        by_relation = group_by_relation(self.database, dirty)
        if not by_relation:
            return []
        return [
            (dc_position, enumerator.delta(by_relation))
            for dc_position, enumerator in enumerate(self._enumerators)
            if not enumerator.relations.isdisjoint(by_relation)
        ]

    def _rebuild(self) -> None:
        # The enumerators and their column store are recreated too: a
        # refresh after *untracked* mutations (the session was closed while
        # the database changed) must not leave stale columns or key groups
        # behind, or every later delta re-enumeration would join wrong
        # candidates.
        self._enumerators, self._columns, families = cold_build(
            self.dcs, self.database, self._enum_stats
        )
        self._enum_stats = [
            enumerator.stats for enumerator in self._enumerators
        ]
        self._witnesses = [WitnessStore(dc) for dc in self.dcs]
        self._dirty.clear()
        self._degraded = False
        self._cached = None
        tagged: list[tuple[int, frozenset[int]]] = []
        for dc_position, (store, family) in enumerate(
            zip(self._witnesses, families)
        ):
            for witness in family:
                store.add(witness)
                tagged.append((dc_position, witness))
        self.topology = ComponentTopology(self.dcs, self.database, tagged)

    # ------------------------------------------------------------------
    # Reads over the live components
    # ------------------------------------------------------------------
    def _live_parts(self, measure) -> list:
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
        topology = self.topology
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
        """One component-wise measure over the live topology, its parts
        combined in component order — the exact float order of the
        from-scratch path."""
        return measure.value_from_parts(
            self._live_parts(measure),
            (component.index for component in self.topology.components()),
        )

    # ------------------------------------------------------------------
    # Read-only preview (batched speculation)
    # ------------------------------------------------------------------
    def _preview_region(
        self, touched: set[int]
    ) -> tuple[list[frozenset[int]], set[TopologyComponent]]:
        """Read-only region preview of retracting/re-enumerating *touched*.

        Runs inside a candidate's savepoint: the database and the column
        store are patched, the stores and the topology still describe the
        base.  The witnesses re-enumerated around the live touched facts
        are handed, with the touched facts themselves (the topology
        retracts what binds them), to
        :meth:`~repro.violations.topology.ComponentTopology.preview`.  No
        live structure is written.
        """
        fresh: set[frozenset[int]] = set()
        for _, witnesses in self._delta(touched):
            fresh |= witnesses
        return self.topology.preview(touched, fresh)

    def _preview_values(
        self,
        base: list,
        base_parts: dict,
        preview: tuple[list[frozenset[int]], set] | None,
        measures: list,
    ) -> dict[str, float]:
        """Score one candidate from its read-only region preview.

        *base* holds the ``(minimum, component, index)`` triples of the
        live components, in component order.  *preview* is the
        candidate's ``(minimized, region)``: :meth:`_preview_region` inside
        its savepoint (the database and the column store are patched, the
        topology still describes the base), or
        ``ComponentTopology.preview_deletion`` for a deletion-only
        candidate that was never applied; None when the candidate touched
        no constrained relation.  Base components outside the region fill
        in by identity from *base_parts* — bit-identical to
        commit-and-read.
        """
        if preview is None:
            entries = base
        else:
            minimized, region = preview
            entries = [entry for entry in base if entry[1] not in region]
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
