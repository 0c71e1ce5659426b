"""Inconsistency-measure framework.

An inconsistency measure maps ``(Σ, D)`` to a non-negative number that is
zero on consistent databases and invariant under logical equivalence of Σ
(Section 3).  Concrete measures subclass :class:`InconsistencyMeasure`; all
of them accept an optional precomputed :class:`ViolationIndex` so a batch of
measures over the same ``(Σ, D)`` shares the (dominant) violation-detection
work — witness enumeration — as the paper's implementation shares its
conflict-detection queries.

Measures whose value decomposes over the connected components of the
conflict (hyper)graph subclass :class:`ComponentwiseMeasure` instead: the
framework splits the index per component, evaluates each independently, and
combines (sum for ``I_MI``/``I_P``/``I_R``/``I_lin_R``, product of MCS
counts for ``I_MC``, "any component at all" for ``I_d``).  Beyond being the
honest algebraic structure, this is what turns the exponential solvers
tractable in practice — branch-and-bound and MIS counting run on small
components instead of the whole database.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Sequence

from ..constraints.base import Constraint
from ..relational.database import Database
from ..solvers.anytime import (
    OPTIMAL,
    BoundedValue,
    bounded,
    combine_bounds,
    status_of,
)
from ..violations.minimal import ViolationIndex, build_violation_index


class InconsistencyMeasure(ABC):
    """Base class: ``I(Σ, D) ∈ [0, ∞)``."""

    #: Short identifier used in registries, tables and plots (e.g. "I_MI").
    name: str = "I"

    #: Whether the measure needs an underlying repair system (I_R, I_lin_R).
    repair_aware: bool = False

    @abstractmethod
    def value(
        self,
        constraints: Sequence[Constraint],
        database: Database,
        index: ViolationIndex | None = None,
    ) -> float:
        """Compute ``I(Σ, D)``; *index* short-circuits violation detection."""

    def __call__(
        self,
        constraints: Sequence[Constraint],
        database: Database,
        index: ViolationIndex | None = None,
    ) -> float:
        return self.value(constraints, database, index)

    def _ensure_index(
        self,
        constraints: Sequence[Constraint],
        database: Database,
        index: ViolationIndex | None,
    ) -> ViolationIndex:
        if index is not None:
            return index
        return build_violation_index(constraints, database)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name})"


class ComponentwiseMeasure(InconsistencyMeasure):
    """A measure evaluated per connected component of ``MI_Σ(D)``.

    ``value`` becomes ``finalize(combine([component_value(c) for c in
    index.components()]), index.components())``.  The default
    :meth:`combine` sums (the additive measures); counting measures
    override it with a product.  On a consistent database the component
    list is empty, so ``combine`` sees ``[]`` and must return its monoid
    identity (``sum`` → 0, product → 1, ``I_d``'s "any" → 0).

    **Locality contract** (what :class:`ComponentValueCache` relies on):
    :meth:`component_value` may read the component's MI family and the facts
    of its problematic members (e.g. their per-fact deletion costs), but
    nothing else about the database — so two components with equal
    :func:`component_cache_key` have equal values, and an operation on fact
    *i* can only change the values of components containing *i*.
    """

    @abstractmethod
    def component_value(
        self,
        constraints: Sequence[Constraint],
        database: Database,
        component: ViolationIndex,
    ) -> float:
        """The measure restricted to one connected component."""

    def bounded_value(
        self,
        constraints: Sequence[Constraint],
        database: Database,
        component: ViolationIndex,
        deadline,
    ) -> float:
        """The exact solve of one component, polling *deadline*.

        Hard measures (``I_R``, ``I_MC``) override this and
        :meth:`component_bounds`;
        :func:`~repro.solvers.anytime.solve_component` calls it under an
        active budget.  Returns the exact float, or a ``TIMEOUT``
        :class:`~repro.solvers.anytime.BoundedValue` when the deadline
        expired mid-solve.
        """
        raise NotImplementedError(f"{self.name} has no budgeted solve")

    def component_bounds(
        self,
        constraints: Sequence[Constraint],
        database: Database,
        component: ViolationIndex,
    ) -> tuple[float, float, float]:
        """``(estimate, lower, upper)`` for one component, bounds only.

        No deadline, no search: what answers when :meth:`bounded_value`
        crashed, so it must not fail itself.
        """
        raise NotImplementedError(f"{self.name} has no component bounds")

    def combine(self, parts: Sequence[float]) -> float:
        return float(sum(parts))

    def finalize(
        self, combined: float, components: Iterable[ViolationIndex]
    ) -> float:
        """Post-process the combined value (e.g. ``I_MC``'s ``− 1``).

        *components* are the component sub-indexes the parts came from, in
        any order and possibly as a one-pass iterator — so overrides may
        only aggregate order-free per-component views (``I'_MC`` counts
        ``self_inconsistent`` facts, each of which lies in exactly one
        component).  The default ignores them, so measures keeping it never
        walk the components at all.
        """
        return combined

    def value_from_parts(
        self, parts: Sequence[float], components: Iterable[ViolationIndex]
    ) -> float:
        """Assemble the measure value from precomputed per-component parts.

        The shared finalization step of every localized evaluation path —
        the live session reading its topology and speculative previews.
        *parts* must be in component order (ascending smallest member
        fact): that is the float combination order of the from-scratch
        path, so the result is bit-identical to :meth:`value`.
        *components* are handed to :meth:`finalize`.

        Parts produced under a solver budget may be
        :class:`~repro.solvers.anytime.BoundedValue`; bounds then combine
        separately (``combine`` and ``finalize`` are monotone over the
        measures' ranges — sums, non-negative-count products and affine
        shifts), the statuses take their worst, and the assembled value is
        itself a ``BoundedValue``.  All-float parts take the historical
        bit-identical path.
        """
        if any(isinstance(part, BoundedValue) for part in parts):
            value, lower, upper, status = combine_bounds(self.combine, parts)
            components = list(components)
            return bounded(
                float(self.finalize(value, components)),
                float(self.finalize(lower, components)),
                float(self.finalize(upper, components)),
                status,
            )
        return float(self.finalize(self.combine(parts), components))

    def value(
        self,
        constraints: Sequence[Constraint],
        database: Database,
        index: ViolationIndex | None = None,
    ) -> float:
        index = self._ensure_index(constraints, database, index)
        components = index.components()
        parts = [
            self.component_value(constraints, database, component)
            for component in components
        ]
        return self.value_from_parts(parts, components)


def has_bounded_solve(measure: InconsistencyMeasure) -> bool:
    """Whether *measure*'s class overrides ``bounded_value`` (a hard one)."""
    return (
        isinstance(measure, ComponentwiseMeasure)
        and type(measure).bounded_value
        is not ComponentwiseMeasure.bounded_value
    )


def component_cache_key(
    component: ViolationIndex, database: Database
) -> tuple:
    """Content-addressed identity of one conflict component.

    The key captures everything a :class:`ComponentwiseMeasure` may read
    (its locality contract): the component's MI family and the facts of its
    problematic members — the latter because ``I_R``/``I_lin_R`` weights
    derive from fact values (the per-fact ``cost`` attribute).  Equal keys
    therefore imply equal ``component_value`` for every registered
    component-wise measure, no matter which database state produced them.
    """
    return (
        frozenset(component.mi_sets),
        tuple(
            sorted(
                (identifier, database[identifier])
                for identifier in component.problematic
            )
        ),
    )


def _plain_data(value) -> bool:
    """Whether *value* is immutable plain data, recursively.

    The guard behind :func:`warm_cache_token`: a container that *holds*
    an opaque or mutable object (a list inside a tuple, a callable) must
    disqualify the measure just like a bare one — tokens have to be
    hashable and picklable, and two processes must agree on their meaning.
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return True
    if isinstance(value, (tuple, frozenset)):
        return all(_plain_data(item) for item in value)
    return False


def warm_cache_token(measure: InconsistencyMeasure) -> tuple | None:
    """A cross-process identity for *measure*, or None when it has none.

    Live cache entries are keyed by measure *instance* (identity), which
    does not survive serialization; warm-start snapshots re-key the
    exported entries under ``(module, qualname, name, config)`` so a fresh
    process's equally configured instance re-adopts them.  The config part
    is the instance's attributes — only measures whose entire configuration
    is plain immutable data get a token; anything carrying an opaque object
    (e.g. a custom cost function, even nested inside a tuple) returns None
    and its entries are simply not exported, which is always safe.
    """
    config = []
    for attribute, value in sorted(vars(measure).items()):
        if not _plain_data(value):
            return None
        config.append((attribute, value))
    return (
        type(measure).__module__,
        type(measure).__qualname__,
        measure.name,
        tuple(config),
    )


class ComponentValueCache:
    """Per-component measure values, memoized across database states.

    The speculative-ΔI engine: an operation touching fact *i* perturbs only
    the conflict components adjacent to *i*, so when a measure is
    re-evaluated after a small delta, every unchanged component resolves to
    the same :func:`component_cache_key` and its (possibly expensive —
    branch-and-bound, MIS counting, LP) value is served from this cache.
    Only the affected components pay :meth:`~ComponentwiseMeasure.component_value`
    again, making ``ΔI`` O(component) instead of O(database).

    Keys embed the measure *instance* (identity-hashed and kept alive by the
    dict), so differently configured instances of one measure never share
    entries.  The one measure that is not component-wise (``I_R_upd``)
    bypasses the cache — its value does not localize.

    **Bounding.**  The cache self-bounds with plain LRU eviction: hits
    refresh an entry's recency, and crossing *max_entries* evicts the
    stalest entries.  A session never loses a live component's value to
    eviction: the first time this cache resolves it, the session stores it
    on the immutable component (``TopologyComponent.values``) and reads it
    there afterwards.  The cache answers what identity cannot — components
    that are new, re-created with old content, or previewed for a what-if
    candidate.

    **Warm starts.**  A snapshot exports the live components' own values
    as ``(measure token, content key, value)`` triples; :meth:`absorb_warm`
    puts them in a side table keyed by :func:`warm_cache_token`, and they
    are promoted — and consumed — the first time an equally configured
    measure instance asks for them (counted as hits: the solver work was
    done in the donor process; the value then lives in the identity-keyed
    main table and the side-table copy is freed).
    """

    def __init__(self, max_entries: int = 65536) -> None:
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._values: dict[tuple, float] = {}
        self._warm: dict[tuple, float] = {}
        # Memoized warm tokens per measure instance (the instance is held
        # alive alongside, exactly like the main table's keys): the warm
        # probe on a miss must not pay a vars() walk per component.
        self._tokens: dict[int, tuple[object, tuple | None]] = {}

    def __len__(self) -> int:
        return len(self._values)

    def clear(self) -> None:
        self._values.clear()
        self._warm.clear()
        self._tokens.clear()

    def _token_of(self, measure) -> tuple | None:
        entry = self._tokens.get(id(measure))
        if entry is None or entry[0] is not measure:
            entry = (measure, warm_cache_token(measure))
            self._tokens[id(measure)] = entry
        return entry[1]

    def _evict(self) -> None:
        """Drop the stalest entries until comfortably under the bound.

        Evicts in recency order (the value dict is LRU-ordered) down to
        ⅞ of *max_entries*, so the token pruning below amortizes over many
        inserts instead of running per miss at the boundary.
        """
        target = self.max_entries - max(1, self.max_entries // 8)
        for entry in list(self._values):
            if len(self._values) <= target:
                break
            del self._values[entry]
            self.evictions += 1
        # Token memos pin their measure instances; drop the ones whose
        # measures no longer key any live entry (same amortization as the
        # value eviction itself).
        if self._tokens:
            live = {id(measure) for measure, _ in self._values}
            self._tokens = {
                key: entry
                for key, entry in self._tokens.items()
                if key in live
            }

    # ------------------------------------------------------------------
    # Warm-start entry transfer
    # ------------------------------------------------------------------
    def absorb_warm(self, entries) -> None:
        """Adopt exported entries into the warm side table.

        Malformed entries (unhashable tokens or keys in a hand-crafted or
        corrupted snapshot) are dropped rather than raised — a warm start
        degrades, never crashes.
        """
        for token, key, value in entries:
            if status_of(value) != OPTIMAL:
                continue
            try:
                self._warm[(token, key)] = value
            except TypeError:
                continue

    def component_value(
        self,
        measure: "ComponentwiseMeasure",
        constraints: Sequence[Constraint],
        database: Database,
        component: ViolationIndex,
        key: tuple | None = None,
    ) -> float:
        """One component's value through the cache.

        *key* lets callers supply a precomputed :func:`component_cache_key`
        (e.g. memoized per base component across a scoring round).
        """
        if key is None:
            key = component_cache_key(component, database)
        entry = (measure, key)
        part = self._values.get(entry)
        if part is not None:
            self.hits += 1
            # LRU refresh: re-insertion moves the entry to the young end.
            self._values[entry] = self._values.pop(entry)
            return part
        if self._warm:
            token = self._token_of(measure)
            if token is not None:
                # Promotion consumes the warm entry: the value lives on in
                # the main table, and the donor payload is freed as it is
                # adopted instead of being held for the cache's lifetime.
                part = self._warm.pop((token, key), None)
        if part is None:
            part = measure.component_value(constraints, database, component)
            self.misses += 1
        else:
            self.hits += 1
        if status_of(part) != OPTIMAL:
            # Never admit degraded values: a tight budget must not poison
            # later unbudgeted reads (or the warm snapshots exported from
            # this table) with a bound masquerading as the exact value.
            return part
        if len(self._values) >= self.max_entries:
            self._evict()
        self._values[entry] = part
        return part


def normalize_series(values: Sequence[float]) -> list[float]:
    """Scale a measurement series to [0, 1] by its maximum (paper figures)."""
    peak = max(values, default=0.0)
    if peak <= 0:
        return [0.0 for _ in values]
    return [value / peak for value in values]
