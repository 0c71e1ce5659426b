"""The measurement session: a live ``(Σ, D)`` pair with a patched index.

A one-shot ``measure.value(Σ, D)`` runs a full cold detection on every
call; a noise sweep or repair loop that perturbs a handful of tuples per
step pays that full cost at every measurement point.  The session runs the
same cold build (:func:`~repro.session.enumeration.cold_build`) once and
keeps its enumerators.  :class:`MeasurementSession` then subscribes to the
database's change feed, marks touched fact identifiers dirty, and on the
next index request

1. retracts every stored witness that binds a dirty fact (via a reverse
   fact → witness map),
2. re-enumerates, per lowered DC, only the witnesses touching the dirty
   facts (hash-join probes restricted to the delta), and
3. folds the witness delta into a live
   :class:`~repro.violations.topology.ComponentTopology`, which locally
   re-minimizes and re-splits only the affected region — the minimized
   family and the conflict components are *maintained*, never rebuilt.

The result is bit-for-bit the index ``build_violation_index`` would return,
at a cost proportional to the delta's affected region rather than to the
database; full-index assembly reduces to concatenating cached sorted views.

On top of the maintained topology the session offers **speculative
evaluation**: :meth:`MeasurementSession.speculate` scores candidate repair
operations by applying them through the change feed under a
:class:`~repro.relational.database.Savepoint`, reading component-wise
measures off the patched topology (unchanged components keep object
identity and serve their cached values), and rolling back by replaying
inverse events — no database copy, no rebuild, bit-identical to the
copy-and-rebuild result.  :meth:`MeasurementSession.speculate_batch` scores
a whole candidate set in one round: the base component values are resolved
once (shared cache probes) and every candidate pays only its own affected
region plus O(1) identity lookups for the rest.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..constraints.base import Constraint
from ..constraints.dc import DenialConstraint
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
    as_budget,
    current_scope,
    registered_chain,
    solver_scope,
    status_of,
)
from ..violations.minimal import ViolationIndex, lower_constraints
from ..violations.topology import (
    ComponentTopology,
    TopologyComponent,
    split_minimized,
)
from .columnar import ColumnStore
from .enumeration import ENGINES, WitnessEnumerator, build_enumerators, cold_build
from .snapshot import (
    SNAPSHOT_VERSION,
    DatabaseFingerprint,
    SessionSnapshot,
    constraint_digest,
    database_fingerprint,
)
from .witnesses import EqualityColumnIndex, WitnessStore


def _split_measures(measures: list) -> tuple[list, list]:
    """Partition a measure list into (component-wise, whole-database).

    Mixed requests must not drag the component-wise majority through the
    generic whole-database path: the fast measures keep the localized /
    merged-stream evaluation and only the non-decomposing stragglers
    (``I_d``, ``I_R_upd``) pay full index assembly.
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
    content-addressed *cache*.  This is the one float-combination loop
    shared by single-session and sharded speculative scoring: the entry
    order is the global component order, so the result is bit-identical to
    commit-and-read no matter how the entries were collected.
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
    the one whole-database read both sessions' mixed ``speculate`` paths
    and :func:`_generic_speculation` share.
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
    roll back.  Shared by the flat and the sharded session — *session*
    only needs ``savepoint``/``index`` and the owned database/cache.
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
    caller's measure order — shared by the flat and the sharded
    ``speculate_batch``.
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
    rounds keyed on topology generation; values produced under a tight
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

    Holds strong references to the base components (pinning their ``id()``s
    against reuse) and, per measure, the base value of every component keyed
    by component identity.  Candidates resolve unaffected components with an
    O(1) integer lookup instead of re-hashing content keys.
    """

    __slots__ = ("components", "parts")

    def __init__(self, components: list) -> None:
        self.components = components
        self.parts: dict[object, dict[int, float]] = {}


class MeasurementSession:
    """Owns ``(Σ, D)`` and keeps the violation index maintained under deltas.

    The session subscribes to *database* on construction; use it as a
    context manager (or call :meth:`close`) to detach.  Mutations may go
    through the session's :meth:`insert`/:meth:`delete`/:meth:`update`
    conveniences or directly through the database — noise generators and
    cleaners that mutate in place are tracked all the same.

    The witness/topology core is reusable as a *shard*: pass a pre-lowered
    *dcs* subset plus ``subscribe=False`` and a shared *component_cache*,
    and the session maintains exactly those constraints over the change
    events its owner routes to :meth:`_on_change` — this is how
    :class:`~repro.session.sharding.ShardedMeasurementSession` partitions
    the live state by relation without duplicating any maintenance logic.
    """

    def __init__(
        self,
        constraints: Sequence[Constraint],
        database: Database,
        *,
        dcs: Sequence[DenialConstraint] | None = None,
        subscribe: bool = True,
        component_cache: ComponentValueCache | None = None,
        warm_start: SessionSnapshot | None = None,
        warm_fingerprint: DatabaseFingerprint | None = None,
        engine: str = "auto",
        vector_backend: str | None = None,
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
        self.dcs: list[DenialConstraint] = (
            list(dcs)
            if dcs is not None
            else lower_constraints(self.constraints, database.schema)
        )
        if engine not in ENGINES:
            raise ValueError(
                f"unknown enumeration engine {engine!r}; expected one of {ENGINES}"
            )
        #: Witness-enumeration backend: "probe" | "batch" | "auto" (see
        #: :mod:`repro.session.enumeration`).  Whatever the choice, the
        #: maintained state is bit-identical.
        self.engine = engine
        #: Column backend for the batch engine: "numpy" | "list" | None
        #: (= the process default, see ``columnar.VECTOR_BACKEND``).
        self.vector_backend = vector_backend
        # The equality-column index, witness stores (with the reverse
        # fact → (dc, witness) map), the per-DC enumeration backends (plus
        # their columnar store, when any DC runs batch) and the topology
        # are all created by exactly one of _restore/_rebuild below.
        self._eq_index: EqualityColumnIndex
        self._enumerators: list[WitnessEnumerator]
        self._columns: ColumnStore | None = None
        self._enum_stats: list = [None] * len(self.dcs)
        self._witnesses: list[WitnessStore]
        self._touching: dict[int, set[tuple[int, frozenset[int]]]]
        self.topology: ComponentTopology
        self._dirty: set[int] = set()
        self._cached: ViolationIndex | None = None
        self.component_cache = (
            component_cache if component_cache is not None else ComponentValueCache()
        )
        # Eviction must never drop a component the live topology still
        # reads every measurement point.
        self.component_cache.add_pin_source(self._live_cache_keys)
        # Memoized base snapshot for batched speculation, keyed on the
        # topology generation: flushes that change no witness leave both
        # the generation and this snapshot untouched.
        self._spec_base: _SpeculationBase | None = None
        self._spec_base_generation = -1
        # The attached streaming-ingest pipeline, if any (set by
        # IngestPipeline; surfaces its counters through stats()).
        self._ingest = None
        self._closed = False
        self._subscribed = subscribe
        if subscribe:
            database.subscribe(self._on_change)
        #: Whether construction restored a warm-start snapshot (False on
        #: fallback — a mismatched snapshot cold-builds, never mis-restores).
        self.warm_started = warm_start is not None and self._restore(
            warm_start, warm_fingerprint
        )
        if not self.warm_started:
            self._rebuild()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach from the database's change feed (idempotent)."""
        if not self._closed:
            if self._subscribed:
                self.database.unsubscribe(self._on_change)
            self.component_cache.remove_pin_source(self._live_cache_keys)
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
        bounded pending buffer of *capacity* net events — see that module
        for the coalescing, backpressure and read-staleness contract.
        """
        from .ingest import IngestPipeline

        return IngestPipeline(self, capacity=capacity)

    # ------------------------------------------------------------------
    # The maintained index
    # ------------------------------------------------------------------
    @property
    def pending_deltas(self) -> int:
        """Dirty fact count awaiting the next :meth:`index` call."""
        return len(self._dirty)

    def index(self) -> ViolationIndex:
        """The current ``ViolationIndex``, patched with any pending deltas."""
        if self._dirty:
            self._flush()
        if self._cached is None:
            self._cached = self._assemble()
        return self._cached

    def is_consistent(self) -> bool:
        if self._dirty:
            self._flush()
        return self.topology.is_consistent()

    def problematic_facts(self):
        """Live view of ``∪ MI_Σ(D)`` — no index assembly required."""
        if self._dirty:
            self._flush()
        return self.topology.problematic()

    def measure(self, measure, *, budget=None) -> float:
        """Evaluate one measure against the maintained state.

        Component-wise measures read the topology directly — per-component
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
        if self._dirty:
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
        if self._dirty:
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
        return max(1, hard * len(self.topology._components))

    def refresh(self) -> ViolationIndex:
        """Force a from-scratch rebuild (a cross-check tool, not a hot path)."""
        self._rebuild()
        return self.index()

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
        """
        if self._dirty:
            self._flush()
        return self._snapshot_payload(database_fingerprint(self.database))

    def _snapshot_payload(
        self, fingerprint: DatabaseFingerprint
    ) -> SessionSnapshot:
        """The snapshot body under a caller-provided fingerprint.

        Sharded sessions fingerprint the shared database once and hand the
        same object to every shard's payload (pickle memoizes it on disk).
        """
        return SessionSnapshot(
            version=SNAPSHOT_VERSION,
            fingerprint=fingerprint,
            constraints=constraint_digest(self.dcs),
            stores=[store.capture() for store in self._witnesses],
            topology=self.topology.capture(),
            cache=self.component_cache.export_warm(self._live_cache_keys()),
        )

    def _restore(
        self, snap, current: DatabaseFingerprint | None = None
    ) -> bool:
        """Adopt a snapshot's derived state; False on any mismatch.

        Verification is strict — snapshot version, lowered-DC digest,
        schema, exact ``id → fact`` digest and allocator state — because a
        restored state that *almost* matches would silently return wrong
        answers.  On False the caller cold-builds instead.  *current* is a
        caller-precomputed fingerprint of the owned database (the sharded
        coordinator hashes once for all shards); None recomputes here.

        A snapshot that deserialized but carries malformed fields (bit
        rot, a hand-crafted file) must degrade the same way: structural
        errors anywhere in the restore are caught and answered with False
        — the caller's ``_rebuild`` reassigns every partially-touched
        structure, so a half-restore leaves nothing behind.
        """
        try:
            if not isinstance(snap, SessionSnapshot):
                return False
            if len(getattr(snap, "stores", ())) != len(self.dcs):
                return False
            if not snap.matches(self.dcs, self.database, current):
                return False
            eq_index = EqualityColumnIndex.for_constraints(
                self.database.schema, self.dcs
            )
            eq_index.build(self.database)
            self._witnesses = [
                WitnessStore.restore(dc, keys)
                for dc, keys in zip(self.dcs, snap.stores)
            ]
            self._touching = {}
            for dc_position, store in enumerate(self._witnesses):
                for witness in store:
                    for identifier in witness:
                        self._touching.setdefault(identifier, set()).add(
                            (dc_position, witness)
                        )
            self.topology = ComponentTopology.restore(
                self.dcs, self.database, snap.topology
            )
            self.component_cache.absorb_warm(snap.cache)
        except Exception:
            return False
        self._eq_index = eq_index
        self._columns = None
        self._attach_enumerators()
        self._dirty.clear()
        self._cached = None
        self._spec_base = None
        self._spec_base_generation = -1
        return True

    def _live_cache_keys(self) -> list[tuple]:
        """Content keys of the live components (the eviction pin set).

        Only keys already computed are reported: a component without a
        memoized key has never been cached under it, so there is nothing
        to pin.
        """
        return [
            component._cache_key
            for component in self.topology._components
            if component._cache_key is not None
        ]

    # ------------------------------------------------------------------
    # Speculative evaluation (what-if deltas)
    # ------------------------------------------------------------------
    def savepoint(self) -> Savepoint:
        """Open a rollback journal on the owned database.

        ``with session.savepoint(): ...`` applies mutations through the
        change feed as usual and, on exit, replays their inverses — the
        session observes the undo as ordinary deltas and its index returns
        to the pre-savepoint state bit-for-bit.
        """
        return self.database.savepoint()

    def speculate(
        self, operations: Iterable, measures: Iterable, *, budget=None
    ) -> dict[str, float]:
        """Measure values *as if* *operations* had been applied — copy-free.

        Applies the operations in place under a savepoint, flushes the
        delta-restricted witness patch through the topology, evaluates each
        measure against the patched state, then rolls back.  The returned
        values are bit-identical to copying the database, applying the
        operations, and rebuilding from scratch.

        When every requested measure is component-wise, evaluation is
        **component-localized ΔI**: the topology rebuilds only the affected
        region, every untouched component keeps its object identity, and
        its (possibly expensive) value is served from the per-component
        cache in the exact ``components()`` float-summation order.
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
        if self._dirty:
            self._flush()
        with solver_scope(budget, plan=self._solve_plan(measures)):
            with self.savepoint():
                for operation in operations:
                    operation.apply_in_place(self.database)
                if self._dirty:
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
        pass**: its witness delta is enumerated against the patched
        database, the affected region is re-minimized and re-split through
        a read-only :meth:`~repro.violations.topology.ComponentTopology.preview`
        — the live topology, the witness stores and every derived cache
        stay untouched — and the base component values, resolved once per
        batch (shared cache probes), fill in the rest by identity.  Only
        one real flush runs, after the whole batch, to absorb the
        apply/rollback event pairs (which restore the base bit-for-bit and
        re-pin the memoized snapshot).  Sequential :meth:`speculate` pays a
        commit + rollback re-split per candidate instead.  Mixed batches
        split: the component-wise measures keep this fast path, and only
        the whole-database stragglers pay a per-candidate generic pass.
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
        batch_marks: set[int] = set()
        outside: set[int] = set()
        with solver_scope(budget, plan=self._solve_plan(measures)):
            try:
                self._prime_base(base, fast)
                results: list[dict[str, float]] = []
                for operations in candidates:
                    # Dirty marks present before this candidate that no
                    # earlier candidate produced came from *outside* the
                    # batch (e.g. a concurrent ingest producer committing
                    # between candidates) — they must survive the batch.
                    outside |= self._dirty - batch_marks
                    with self.savepoint() as savepoint:
                        for operation in operations:
                            operation.apply_in_place(self.database)
                        touched = {
                            event.identifier for event in savepoint.events
                        }
                        batch_marks |= touched
                        results.append(
                            self._preview_values(base, touched, fast)
                        )
            finally:
                # A budgeted round may have primed the memoized base with
                # degraded parts; the snapshot outlives the scope, so purge
                # them — later unbudgeted batches must re-solve exactly.
                _purge_degraded_parts(base)
        # The batch never committed anything: every candidate's events were
        # rolled back (bit-identical database and equality index, by the
        # savepoint contract) and neither the stores nor the topology were
        # ever written.  The batch's own dirty marks are balanced
        # apply/inverse pairs, so the flush they call for is a no-op by
        # construction — drop them instead of re-enumerating every touched
        # fact.  Marks recorded by mutations outside the balanced pairs
        # stay dirty: they describe real committed deltas.
        outside |= self._dirty - batch_marks
        self._dirty &= outside
        if generic:
            with solver_scope(budget):
                results = _merge_generic_batch(
                    self, candidates, results, generic, measures
                )
        return results

    def _preview_values(
        self, base: _SpeculationBase, touched: set[int], measures: list
    ) -> dict[str, float]:
        """Score one candidate from a read-only region preview.

        Runs inside the candidate's savepoint: the database (and the
        equality-column index) is patched, but the witness stores and the
        topology still describe the base.  The candidate's witness delta is
        therefore exactly "retract what binds *touched*, re-enumerate
        around it"; the topology previews the resulting region, and values
        combine base parts (by identity) with freshly solved regional parts
        in the merged component order — bit-identical to commit-and-read.
        """
        minimized, region = self._preview_region(touched)
        entries: list[tuple[int, TopologyComponent | None, ViolationIndex]] = [
            (component.minimum, component, component.index)
            for component in base.components
            if component not in region
        ]
        entries.extend(
            (minimum, None, index)
            for minimum, index in split_minimized(minimized)
        )
        entries.sort(key=lambda entry: entry[0])
        return _entry_values(
            entries,
            base.parts,
            measures,
            self.component_cache,
            self.constraints,
            self.database,
        )

    def _preview_region(
        self, touched: set[int]
    ) -> tuple[list[frozenset[int]], set[TopologyComponent]]:
        """Read-only region preview of retracting/re-enumerating *touched*.

        The witness delta of the facts in *touched* against the (patched)
        database — retract what binds them, re-enumerate around the live
        ones — handed to :meth:`~repro.violations.topology.ComponentTopology.preview`.
        No live structure is written; sharded sessions call this per shard
        with the shard's slice of a candidate's touched facts.
        """
        database = self.database
        gone: set[frozenset[int]] = set()
        for fact in touched:
            for _, witness in self._touching.get(fact, ()):
                gone.add(witness)
        live = {fact for fact in touched if fact in database}
        fresh: set[frozenset[int]] = set()
        if live:
            for enumerator in self._enumerators:
                fresh.update(enumerator.delta(database, live))
        return self.topology.preview(gone, fresh)

    def _speculation_base(self) -> _SpeculationBase:
        """The memoized base snapshot for batched speculation.

        Keyed on the topology *generation*, not on raw mutation events:
        flushes that produce no witness delta (updates to facts bound by no
        witness) leave the generation — and this snapshot — untouched.
        """
        if self._dirty:
            self._flush()
        if (
            self._spec_base is None
            or self._spec_base_generation != self.topology.generation
        ):
            self._spec_base = _SpeculationBase(list(self.topology.components()))
            self._spec_base_generation = self.topology.generation
        return self._spec_base

    def _prime_base(self, base: _SpeculationBase, measures: list) -> None:
        """Resolve every base component's value once per measure."""
        cache = self.component_cache
        topology = self.topology
        for measure in measures:
            if measure in base.parts:
                continue
            base.parts[measure] = {
                id(component): cache.component_value(
                    measure,
                    self.constraints,
                    self.database,
                    component.index,
                    key=topology.cache_key(component),
                )
                for component in base.components
            }

    def _componentwise_value(self, measure) -> float:
        """One component-wise measure over the live topology.

        Every component resolves through the content-addressed component
        cache under its memoized key; parts combine in component order —
        the exact float order of the from-scratch path.  (Identity-based
        value sharing exists only inside a batch: :meth:`_preview_values`.)
        """
        cache = self.component_cache
        topology = self.topology
        parts = [
            cache.component_value(
                measure,
                self.constraints,
                self.database,
                component.index,
                key=topology.cache_key(component),
            )
            for component in topology.components()
        ]
        if needs_finalize_index(measure):
            return measure.value_from_parts(parts, topology.pseudo_index())
        return measure.value_from_parts(parts)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _on_change(self, event: ChangeEvent) -> None:
        self._dirty.add(event.identifier)
        self._eq_index.apply(event)
        if self._columns is not None:
            self._columns.apply(event)

    def _flush(self) -> None:
        """Fold the pending dirty set into the stores and the topology.

        Witnesses binding a dirty fact are retracted, the delta is
        re-enumerated, and the net ``(dc, witness)`` delta is handed to the
        topology, which re-minimizes and re-splits only the affected
        region.  A flush that produces no witness delta leaves the cached
        assembled index and the topology generation untouched.
        """
        dirty, self._dirty = self._dirty, set()
        retracted: list[tuple[int, frozenset[int]]] = []
        inserted: list[tuple[int, frozenset[int]]] = []
        for identifier in dirty:
            for dc_position, witness in self._touching.pop(identifier, ()):
                if self._witnesses[dc_position].discard(witness):
                    retracted.append((dc_position, witness))
                for other in witness:
                    if other != identifier:
                        entry = self._touching.get(other)
                        if entry is not None:
                            entry.discard((dc_position, witness))
                            if not entry:
                                del self._touching[other]
        live = {i for i in dirty if i in self.database}
        if live:
            for dc_position, enumerator in enumerate(self._enumerators):
                for witness in enumerator.delta(self.database, live):
                    if self._add_witness(dc_position, witness):
                        inserted.append((dc_position, witness))
        if self.topology.apply(retracted, inserted):
            self._cached = None

    def _add_witness(self, dc_position: int, witness: frozenset[int]) -> bool:
        if not self._witnesses[dc_position].add(witness):
            return False
        for identifier in witness:
            self._touching.setdefault(identifier, set()).add(
                (dc_position, witness)
            )
        return True

    def _assemble(self) -> ViolationIndex:
        """Materialize the full index from maintained views — no re-scan.

        ``per_constraint`` concatenates the stores' cached sorted lists,
        ``mi_sets`` copies the topology's maintained global family, and the
        component split is adopted straight from the topology, so assembly
        is list concatenation, not minimization.
        """
        index = ViolationIndex()
        per_constraint = index.per_constraint
        for store in self._witnesses:
            per_constraint.extend(store.ordered())
        index.mi_sets = list(self.topology.assemble_mi())
        index.adopt_components(self.topology.component_indexes())
        return index

    def _attach_enumerators(self) -> None:
        """Recreate the per-DC enumeration backends for a restored state.

        The backends capture the current equality index (probe) or a fresh
        registered-and-built column store (batch), so this runs after the
        equality index exists; ``_rebuild`` gets the same objects from
        :func:`cold_build`.  The session-owned stats records are threaded
        through so counters accumulate across rebuilds.
        """
        self._enumerators, self._columns = build_enumerators(
            self.engine,
            self.dcs,
            self.database,
            self._eq_index,
            self._enum_stats,
            vector_backend=self.vector_backend,
        )
        self._enum_stats = [
            enumerator.stats for enumerator in self._enumerators
        ]

    def stats(self) -> dict:
        """Per-DC enumeration counters (see :class:`EnumerationStats`)."""
        stats = {
            "engine": self.engine,
            "vector_backend": (
                self._columns.backend if self._columns is not None else None
            ),
            "constraints": [
                dict(stats.as_dict(), constraint=dc.name)
                for dc, stats in zip(self.dcs, self._enum_stats)
            ],
        }
        if self._ingest is not None:
            stats["ingest"] = self._ingest.counters()
        return stats

    def _rebuild(self) -> None:
        # The equality index is rebuilt too: a refresh after *untracked*
        # mutations (the session was closed or never subscribed while the
        # database changed) must not leave stale hash buckets behind, or
        # every later delta re-enumeration would probe wrong candidates.
        # The enumeration backends (and the columnar snapshots the batch
        # backend joins over) are recreated with it for the same reason.
        self._eq_index = EqualityColumnIndex.for_constraints(
            self.database.schema, self.dcs
        )
        self._eq_index.build(self.database)
        self._columns = None
        self._enumerators, self._columns, families = cold_build(
            self.engine,
            self.dcs,
            self.database,
            self._eq_index,
            self._enum_stats,
            vector_backend=self.vector_backend,
        )
        self._enum_stats = [
            enumerator.stats for enumerator in self._enumerators
        ]
        self._witnesses = [WitnessStore(dc) for dc in self.dcs]
        self._touching = {}
        self._dirty.clear()
        self._cached = None
        self.topology = ComponentTopology(self.dcs, self.database)
        self._spec_base = None
        self._spec_base_generation = -1
        inserted: list[tuple[int, frozenset[int]]] = []
        for dc_position, family in enumerate(families):
            for witness in family:
                if self._add_witness(dc_position, witness):
                    inserted.append((dc_position, witness))
        self.topology.apply([], inserted)
