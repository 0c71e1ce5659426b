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
budgets, speculation, ingest and snapshots.  Reads visit components in
global smallest-member-fact order — the order of the from-scratch path —
so every result is bit-identical to ``build_violation_index`` plus
``measure.value``.  With one shard that order is the shard's own and no
merge runs; with several, the per-shard streams are k-way merged.

On top of the maintained topology the session offers **speculative
evaluation**: :meth:`MeasurementSession.speculate` scores candidate repair
operations by applying them through the change feed under a
:class:`~repro.relational.database.Savepoint`, reading component-wise
measures off the patched topology (unchanged components keep object
identity and serve their cached values), and rolling back by replaying
inverse events — no database copy, no rebuild, bit-identical to the
copy-and-rebuild result.  :meth:`MeasurementSession.speculate_batch` scores
a whole candidate set in one round: the base component values are resolved
once and every candidate pays only its own affected region, previewed
read-only on the shards it touches, plus O(1) identity lookups for the
rest.
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
    needs_finalize_index,
)
from ..relational.database import ChangeEvent, Database, Fact, Savepoint
from ..relational.values import Value
from ..solvers.anytime import (
    OPTIMAL,
    BoundedValue,
    as_budget,
    current_scope,
    registered_chain,
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


def _split_measures(measures: list) -> tuple[list, list]:
    """Partition a measure list into (component-wise, whole-database).

    Mixed requests must not drag the component-wise majority through the
    generic whole-database path: the fast measures keep the localized
    evaluation and only the non-decomposing stragglers (``I_d``,
    ``I_R_upd``) pay full index assembly.
    """
    fast = [m for m in measures if isinstance(m, ComponentwiseMeasure)]
    generic = [m for m in measures if not isinstance(m, ComponentwiseMeasure)]
    return fast, generic


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
    pseudo: ViolationIndex | None = None
    if any(needs_finalize_index(measure) for measure in measures):
        pseudo = ViolationIndex()
        for _, _, index in entries:
            pseudo.mi_sets.extend(index.mi_sets)
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
        values[measure.name] = measure.value_from_parts(parts, pseudo)
    return values


def _generic_values(session, measures: list) -> dict[str, float]:
    """Non-decomposing measures read off the assembled (patched) index.

    Runs inside the caller's savepoint (or against the committed state):
    the one whole-database read the mixed ``speculate`` path and
    :func:`_generic_speculation` share.
    """
    index = session.index()
    return {
        measure.name: session.component_cache.value(
            measure, session.constraints, session.database, index
        )
        for measure in measures
    }


def _generic_speculation(session, operations: list, measures: list) -> dict[str, float]:
    """Whole-database speculation against the assembled patched index.

    The fallback for measures that do not localize (``I_d``, ``I_R_upd``):
    apply under a savepoint, assemble the patched index, read every value,
    roll back.
    """
    with session.savepoint():
        for operation in operations:
            operation.apply_in_place(session.database)
        return _generic_values(session, measures)


def _merge_generic_batch(
    session, candidates: list, results: list, generic: list, measures: list
) -> list[dict[str, float]]:
    """Fold a mixed batch's whole-database stragglers into its results.

    One generic pass per candidate, merged back and re-keyed in the
    caller's measure order.
    """
    for operations, values in zip(candidates, results):
        values.update(_generic_speculation(session, operations, generic))
    return [
        {measure.name: values[measure.name] for measure in measures}
        for values in results
    ]


def _purge_degraded_parts(base: "_SpeculationBase") -> None:
    """Drop base-part maps containing non-OPTIMAL (budget-degraded) values.

    The speculation base memoizes per-component values across scoring
    rounds keyed on topology generations; values produced under a tight
    budget are bounds, not exact values, and must never be replayed into a
    later unbudgeted round.
    """
    for measure in list(base.parts):
        if any(
            status_of(value) != OPTIMAL
            for value in base.parts[measure].values()
        ):
            del base.parts[measure]


class _SpeculationBase:
    """Identity-pinned base snapshot for one batched scoring round.

    ``entries`` holds, per shard, the ``(minimum, component, index)``
    triples of its live components (pinning every base component's
    ``id()``); ``parts`` maps each measure to its per-component base values
    keyed by component identity; ``key`` records the per-shard
    ``(topology, generation)`` pairs the snapshot was taken at.
    """

    __slots__ = ("key", "entries", "parts")

    def __init__(self, key: tuple, entries: list[list]) -> None:
        self.key = key
        self.entries = entries
        self.parts: dict[object, dict[int, float]] = {}


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
        # Per-shard memoized per-measure part lists, keyed on the shard's
        # (topology, generation): a delta recomputes only the touched
        # shard's parts.  Unused with one shard (see _shard_parts).
        self._parts: list[dict] = [{} for _ in self.shards]
        self._pseudo: ViolationIndex | None = None
        self._pseudo_key: tuple | None = None
        self._spec_base: _SpeculationBase | None = None
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
            for shard in self.shards:
                shard.close()
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

        Component-wise measures read the topologies directly — per-component
        values through the session's
        :class:`~repro.measures.base.ComponentValueCache`, no full-index
        assembly at all; whole-database measures get the assembled index.

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
                return measure.value(
                    self.constraints, self.database, self.index()
                )
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
        hard = sum(
            1
            for measure in measures
            if isinstance(measure, ComponentwiseMeasure)
            and registered_chain(measure.name) is not None
        )
        if not hard:
            return None
        components = sum(
            len(shard.topology._components) for shard in self.shards
        )
        return max(1, hard * components)

    def refresh(self) -> ViolationIndex:
        """Force a from-scratch rebuild of every shard (a cross-check tool).

        Every memo derived from the retired topologies is dropped with
        them: the per-shard part lists and the pseudo index hold the old
        component objects (and their values) alive, and the stale
        assembly/pseudo keys would otherwise pin retired topology objects
        for the session's lifetime.
        """
        for shard in self.shards:
            shard._rebuild()
        self._degraded.clear()
        self._cached = None
        self._cached_key = None
        self._parts = [{} for _ in self.shards]
        self._pseudo = None
        self._pseudo_key = None
        self._spec_base = None
        return self.index()

    def stats(self) -> dict:
        """Per-DC enumeration counters in global lowered-DC order.

        ``vector_backend`` is the column backend every shard's store runs
        on (None for a session without constraints, which has no shard).
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

        Applies the operations in place under a savepoint, flushes the
        delta-restricted witness patch through the touched shards,
        evaluates each measure against the patched state, then rolls back.
        The returned values are bit-identical to copying the database,
        applying the operations, and rebuilding from scratch.

        When every requested measure is component-wise, evaluation is
        **component-localized ΔI**: the topology rebuilds only the affected
        region, every untouched component keeps its object identity, and
        its (possibly expensive) value is served from the per-component
        cache in the exact from-scratch float-summation order.
        Whole-database measures (``I_d``, ``I_R_upd``) read the fully
        assembled patched index instead; a mixed request splits, so the
        component-wise majority keeps the localized path.  Scoring many
        candidates against one base state is cheaper through
        :meth:`speculate_batch`.

        *budget* bounds the hard per-component solves exactly as in
        :meth:`measure` — degraded values carry bounds and status, and are
        never memoized anywhere the unbudgeted paths could later read.
        """
        measures = list(measures)
        operations = list(operations)
        budget = self._call_budget(budget)
        fast, generic = _split_measures(measures)
        if not fast:
            with solver_scope(budget):
                return _generic_speculation(self, operations, measures)
        self._flush()
        with solver_scope(budget, plan=self._solve_plan(measures)):
            with self.savepoint():
                for operation in operations:
                    operation.apply_in_place(self.database)
                self._flush()
                values = {
                    measure.name: self._componentwise_value(measure)
                    for measure in fast
                }
                if generic:
                    values.update(_generic_values(self, generic))
                return {
                    measure.name: values[measure.name] for measure in measures
                }

    def speculate_value(self, operations: Iterable, measure) -> float:
        """One-measure :meth:`speculate` (the candidate-scoring hot path)."""
        return self.speculate(operations, (measure,))[measure.name]

    def speculate_batch(
        self, candidates: Iterable[Iterable], measures: Iterable, *, budget=None
    ) -> list[dict[str, float]]:
        """Score a whole candidate set against the current base state.

        *candidates* is a sequence of operation batches; each is applied
        under its own savepoint, measured, and rolled back, exactly like a
        :meth:`speculate` call — the returned dicts are value-identical to
        per-candidate speculation (and therefore to copy-apply-rebuild).

        The batch owns the scoring round, so each candidate is **one region
        pass** per shard it touches: its witness delta is enumerated
        against the patched database, the affected region is re-minimized
        and re-split through a read-only
        :meth:`~repro.violations.topology.ComponentTopology.preview` — the
        live topologies, the witness stores and every derived cache stay
        untouched — and the base component values, resolved once per batch,
        fill in the rest by identity.  The apply/rollback dirty marks the
        batch itself produced are balanced by construction and dropped at
        the end instead of flushed.  Mixed batches split: the component-wise
        measures keep this fast path, and only the whole-database
        stragglers pay a per-candidate generic pass.
        """
        candidates = [list(operations) for operations in candidates]
        measures = list(measures)
        budget = self._call_budget(budget)
        if not candidates:
            return []
        fast, generic = _split_measures(measures)
        if not fast:
            with solver_scope(budget):
                return [
                    _generic_speculation(self, operations, measures)
                    for operations in candidates
                ]
        base = self._speculation_base()
        shards = self.shards
        shard_number = self._shard_number
        batch_marks: list[set[int]] = [set() for _ in shards]
        outside: list[set[int]] = [set() for _ in shards]
        with solver_scope(budget, plan=self._solve_plan(measures)):
            try:
                self._prime_base(base, fast)
                results: list[dict[str, float]] = []
                for operations in candidates:
                    # Dirty marks present before this candidate that no
                    # earlier candidate produced came from *outside* the
                    # batch (e.g. a concurrent ingest producer committing
                    # between candidates) — they must survive the batch.
                    for number, shard in enumerate(shards):
                        if shard._dirty:
                            outside[number] |= shard._dirty - batch_marks[number]
                    with self.savepoint() as savepoint:
                        for operation in operations:
                            operation.apply_in_place(self.database)
                        # Routed like _on_change: an event never changes
                        # its fact's relation.
                        touched: dict[int, set[int]] = {}
                        for event in savepoint.events:
                            fact = event.new if event.new is not None else event.old
                            number = shard_number.get(fact.relation)
                            if number is not None:
                                touched.setdefault(number, set()).add(
                                    event.identifier
                                )
                        for number, identifiers in touched.items():
                            batch_marks[number] |= identifiers
                        results.append(
                            self._preview_values(base, touched, fast)
                        )
            finally:
                # A budgeted round may have primed the memoized base with
                # degraded parts; the snapshot outlives the scope, so purge
                # them — later unbudgeted batches must re-solve exactly.
                _purge_degraded_parts(base)
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
        if generic:
            with solver_scope(budget):
                results = _merge_generic_batch(
                    self, candidates, results, generic, measures
                )
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
                # The memoized parts key on (topology, generation), so the
                # fresh topology invalidates them; dropping the dict also
                # unpins the retired topology's components.
                self._parts[number] = {}
        for shard in self.shards:
            if shard._dirty:
                shard._flush()

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

    def _shard_parts(self, number: int, measure) -> list:
        """One shard's per-component values of *measure*, in its
        ``components()`` order.

        With several shards the values are memoized on the shard's
        ``(topology, generation)``: a delta that never reached this shard
        serves them untouched, so a measurement point pays content-key
        cache probes only for the shards the delta dirtied.  A one-shard
        session has no untouched shard to serve — every delta reaches its
        only shard — so it reads the cache directly, at the cost of a
        plain walk over the components.
        """
        topology = self.shards[number].topology
        if len(self.shards) == 1:
            return self._component_parts(topology, measure)
        memo = self._parts[number]
        entry = memo.get(measure)
        if (
            entry is not None
            and entry[0] is topology
            and entry[1] == topology.generation
        ):
            return entry[2]
        if len(memo) >= 64:
            # Callers constructing fresh measure instances per call would
            # otherwise grow the memo without bound (the content-addressed
            # cache below self-bounds the expensive values either way).
            memo.clear()
        parts = self._component_parts(topology, measure)
        if BoundedValue not in map(type, parts):
            # Degraded (budget-bounded) parts are never memoized: the next
            # read — possibly unbudgeted — must re-solve them exactly.
            memo[measure] = (topology, topology.generation, parts)
        return parts

    def _component_parts(self, topology, measure) -> list:
        """Every component's value through the content-addressed cache."""
        cache = self.component_cache
        return [
            cache.component_value(
                measure,
                self.constraints,
                self.database,
                component.index,
                key=topology.cache_key(component),
            )
            for component in topology.components()
        ]

    def _componentwise_value(self, measure) -> float:
        """One component-wise measure over the live topologies.

        Per-shard parts resolve through the shared content-addressed cache
        and combine in global component order — the exact float order of
        the from-scratch path.  One shard's parts already are in that
        order.
        """
        if len(self.shards) == 1:
            parts = self._shard_parts(0, measure)
        else:
            parts = self._in_component_order(
                [
                    self._shard_parts(number, measure)
                    for number in range(len(self.shards))
                ]
            )
        if needs_finalize_index(measure):
            return measure.value_from_parts(parts, self._pseudo_index())
        return measure.value_from_parts(parts)

    def _pseudo_index(self) -> ViolationIndex:
        """The component-major pseudo index, memoized per generation key.

        Content-identical to a from-scratch ``topology.pseudo_index()``
        over all components (same global component order), rebuilt only
        when some shard's topology actually changed.
        """
        if len(self.shards) == 1:
            return self.shards[0].topology.pseudo_index()
        key = self._generation_key()
        if self._pseudo is None or self._pseudo_key != key:
            pseudo = ViolationIndex()
            for component in self._in_component_order(
                [shard.topology.components() for shard in self.shards]
            ):
                pseudo.mi_sets.extend(component.index.mi_sets)
            self._pseudo = pseudo
            self._pseudo_key = key
        return self._pseudo

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

    def _prime_base(self, base: _SpeculationBase, measures: list) -> None:
        """Resolve every base component's value once per measure."""
        for measure in measures:
            if measure in base.parts:
                continue
            parts: dict[int, float] = {}
            for number, entries in enumerate(base.entries):
                for (_, component, _), value in zip(
                    entries, self._shard_parts(number, measure)
                ):
                    parts[id(component)] = value
            base.parts[measure] = parts

    def _preview_values(
        self,
        base: _SpeculationBase,
        touched: dict[int, set[int]],
        measures: list,
    ) -> dict[str, float]:
        """Score one candidate from read-only per-shard region previews.

        Runs inside the candidate's savepoint: the database and every
        touched shard's equality index are patched, the topologies still
        describe the base.  Each touched shard previews its slice of the
        delta; untouched shards contribute their base components whole,
        and base components outside every region fill in by identity —
        bit-identical to commit-and-read.
        """
        entries: list = []
        for number, shard_entries in enumerate(base.entries):
            identifiers = touched.get(number)
            if identifiers is None:
                entries.extend(shard_entries)
                continue
            minimized, region = self.shards[number]._preview_region(identifiers)
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
            base.parts,
            measures,
            self.component_cache,
            self.constraints,
            self.database,
        )
