"""Live conflict-component topology: the minimized MI family under deltas.

The measurement session made witness *enumeration* delta-driven, but every
index assembly still re-minimized the entire raw witness family and
re-derived connected components from scratch — O(database) work per
measurement point.  :class:`ComponentTopology` promotes the answer structure
itself to a first-class, incrementally maintained object (in the spirit of
dynamic query evaluation, where the maintained artifact is the query answer
rather than its inputs):

* the present witnesses with the DCs producing them, and a fact → witness
  map — the session's one fact → witness registry;
* the ⊆-minimized family ``MI_Σ(D)`` as a set, partitioned into its
  connected components;
* a per-fact → component map over the problematic facts.

**Status rules.**  A witness is in ``MI_Σ(D)`` exactly when no proper
non-empty subset of it is a witness, so a delta can change the status only
of its own witnesses and of their strict supersets.  :meth:`apply` decides
it from that definition, with three local rules:

1. a witness that appears is minimal when none of its proper subsets is
   present — at most ``2^k − 2`` lookups, ``k`` the widest DC;
2. a fresh minimal witness demotes the minimal strict supersets it has;
3. a retracted minimal witness may promote the present strict supersets it
   had, each re-checked by rule 1.  A superset that becomes minimal has
   lost every minimal proper subset, so it is always found from one.

Strict supersets are read off the fact → witness map of the witness's
least-bound fact; a witness as wide as the widest DC has none.

**Maintenance contract.**  :meth:`apply` receives the witness delta of one
session flush — ``(dc position, witness)`` retractions and insertions — and
rebuilds only the *affected region*: the components owning a fact of a
delta witness (their per-constraint views change) plus the owners of the
MI sets the rules added (a promoted set can reach across components and
merge them).  The region's MI sets minus the removed ones plus the added
ones are re-split; every component outside the region keeps its object
identity, and with it its memoized content key and its own per-measure
values.  :meth:`preview` runs the same rules read-only over an overlay of
the delta.

The result is bit-identical to minimizing and splitting from scratch; the
randomized equivalence tests in ``tests/violations/test_topology.py`` pin
that invariant after every step of mixed insert/delete/update streams.
"""

from __future__ import annotations

import heapq
from operator import attrgetter
from typing import Iterable, Sequence

from ..constraints.dc import DenialConstraint
from ..relational.database import Database
from .minimal import (
    MinimalViolation,
    ViolationIndex,
    _connected_groups,
    _minimize,
)

_BY_MINIMUM = attrgetter("minimum")


def split_minimized(
    minimized: Sequence[frozenset[int]],
) -> list[tuple[int, ViolationIndex]]:
    """Standalone component split of a minimized family.

    Returns ``(smallest member, sub-index)`` pairs ordered by smallest
    member — the throwaway split :meth:`ComponentTopology.preview` and
    :meth:`ComponentTopology.preview_deletion` consumers need for a
    candidate's affected region, without touching any live structure.
    """
    result: list[tuple[int, ViolationIndex]] = []
    for facts, grouped in _connected_groups(minimized):
        index = ViolationIndex()
        index.mi_sets = grouped
        result.append((min(facts), index))
    return result


def mi_sort_key(witness: frozenset[int]) -> tuple[int, tuple[int, ...]]:
    """The global ``MI_Σ(D)`` ordering key: ``(width, sorted fact ids)``.

    ``_minimize`` emits families in exactly this order on every code path,
    so a concatenation of per-component families re-sorted under this key is
    list-identical to the from-scratch minimization.
    """
    return (len(witness), tuple(sorted(witness)))


def _proper_subsets(witness: frozenset[int]) -> list[frozenset[int]]:
    """The ``2^k − 2`` proper non-empty subsets of a k-fact witness (none
    of a single fact)."""
    subsets = [frozenset()]
    for fact in witness:
        subsets += [subset | {fact} for subset in subsets]
    return subsets[1:-1]


class TopologyComponent:
    """One live conflict component: its minimized family and member facts.

    Instances are immutable once published: a delta that touches a
    component replaces it with freshly built objects, so object identity is
    a proof of unchanged content — which is what lets the component carry
    its own measure values (``values``) and speculative scoring reuse them
    by ``id()`` instead of re-hashing content keys.
    """

    __slots__ = ("index", "facts", "minimum", "mi_pairs", "_cache_key", "values")

    def __init__(self) -> None:
        #: The component as a ``ViolationIndex`` (what measures consume).
        self.index = ViolationIndex()
        #: Problematic member facts (``∪`` of the component's MI sets).
        self.facts: set[int] = set()
        #: Smallest member fact — the ``components()`` ordering key.
        self.minimum = 0
        #: ``(sort key, MI set)`` pairs, sorted — feeds global assembly.
        self.mi_pairs: list[tuple[tuple, frozenset[int]]] = []
        self._cache_key: tuple | None = None
        #: Measure instance → this component's exact (OPTIMAL) value — a
        #: content-derived memo like ``_cache_key``, filled by the session's
        #: reads and dropped with the object when a delta replaces it.
        self.values: dict[object, float] = {}


class ComponentTopology:
    """Incrementally maintained minimization + conflict components.

    Owned by a :class:`~repro.session.MeasurementSession`; fed by its flush
    with the exact witness delta each database change produced.  Readers get
    the same views a from-scratch ``build_violation_index`` would compute —
    :meth:`assemble_mi` (the globally ordered MI family),
    :meth:`component_indexes` (the memoized component split) — at a cost
    proportional to the affected region plus cache reassembly.

    Construction takes the cold ``(dc position, witness)`` family and
    minimizes it once with ``_minimize``, the one-shot path's own function;
    :meth:`restore` loads a captured state through the same loader.

    ``generation`` advances exactly when a flush changed some witness (or a
    bound fact's value forced a retract/re-insert pair); flushes that
    produce no witness delta leave it — and every derived cache — alone.
    A non-empty cold family counts as the first such change.
    """

    def __init__(
        self,
        dcs: Sequence[DenialConstraint],
        database: Database,
        tagged_witnesses: Iterable[tuple[int, frozenset[int]]] = (),
    ) -> None:
        self.dcs = list(dcs)
        self.database = database
        #: The widest DC's arity: a witness this wide has no strict superset.
        self._widest = max((dc.width for dc in self.dcs), default=0)
        self.generation = 0
        # witness → positions of the DCs currently producing it.
        self._tags: dict[frozenset[int], set[int]] = {}
        # fact → present witnesses binding it.
        self._binding: dict[int, set[frozenset[int]]] = {}
        # MI_Σ(D): the present witnesses with no present proper subset.
        self._minimal: set[frozenset[int]] = set()
        self._components: set[TopologyComponent] = set()
        self._component_of: dict[int, TopologyComponent] = {}
        self._ordered: list[TopologyComponent] | None = []
        self._mi_pairs: list[tuple[tuple, frozenset[int]]] | None = []
        self._mi_cache: list[frozenset[int]] | None = []
        self._indexes: list[ViolationIndex] | None = []
        tags: dict[frozenset[int], set[int]] = {}
        for position, witness in tagged_witnesses:
            tags.setdefault(witness, set()).add(position)
        if tags:
            self._load(tags, _minimize(tags.keys()))
            self.generation = 1

    # ------------------------------------------------------------------
    # Read views
    # ------------------------------------------------------------------
    def components(self) -> list[TopologyComponent]:
        """Live components ordered by smallest member fact."""
        if self._ordered is None:
            self._ordered = sorted(
                self._components, key=_BY_MINIMUM
            )
        return self._ordered

    def component_indexes(self) -> list[ViolationIndex]:
        """The ``ViolationIndex.components()`` view, served live.

        Per-component ``per_constraint`` lists are filled lazily here — the
        speculative hot path never reads them, so candidate region rebuilds
        skip that work entirely.
        """
        if self._indexes is None:
            self._indexes = [
                self._filled_index(component) for component in self.components()
            ]
        return self._indexes

    def assemble_mi_pairs(self) -> list[tuple[tuple, frozenset[int]]]:
        """The globally sorted ``(sort key, MI set)`` pairs, maintained.

        Each component's ``mi_pairs`` list is already sorted (the loader
        and the regional re-split both split a key-sorted family, and the
        split preserves order), so the global view is a k-way merge of the
        cached per-component views — O(n log k) against the O(n log n)
        re-sort this replaces.  Keys are unique (a key reconstructs its
        set), so the merge never falls through to comparing the frozensets.
        """
        if self._mi_pairs is None:
            self._mi_pairs = list(
                heapq.merge(
                    *(component.mi_pairs for component in self._components)
                )
            )
        return self._mi_pairs

    def assemble_mi(self) -> list[frozenset[int]]:
        """``MI_Σ(D)``, list-identical to ``_minimize`` over the raw family."""
        if self._mi_cache is None:
            self._mi_cache = [
                witness for _, witness in self.assemble_mi_pairs()
            ]
        return self._mi_cache

    def problematic(self):
        """Live view of the problematic facts (read-only dict keys)."""
        return self._component_of.keys()

    def component_of(self, fact_id: int) -> TopologyComponent | None:
        return self._component_of.get(fact_id)

    def bound(self, fact_id: int) -> list[tuple[int, frozenset[int]]]:
        """The present ``(dc position, witness)`` pairs binding a fact."""
        tags = self._tags
        return [
            (position, witness)
            for witness in self._binding.get(fact_id, ())
            for position in tags[witness]
        ]

    def is_consistent(self) -> bool:
        return not self._components

    def cache_key(self, component: TopologyComponent) -> tuple:
        """The memoized content key of one component.

        Components are replaced (never mutated) when touched, so the key is
        computed once per object lifetime.
        """
        if component._cache_key is None:
            from ..measures.base import component_cache_key

            component._cache_key = component_cache_key(
                component.index, self.database
            )
        return component._cache_key

    # ------------------------------------------------------------------
    # Snapshot capture / restore (warm starts)
    # ------------------------------------------------------------------
    def capture(self) -> dict:
        """The maintained state as plain data — the warm-start payload.

        Witnesses become sorted id tuples: the tag table as sorted entries
        (so equal topologies produce byte-equal payloads regardless of dict
        insertion history) and ``MI_Σ(D)`` in its global order.
        """
        return {
            "generation": self.generation,
            "tags": sorted(
                (tuple(sorted(witness)), tuple(sorted(positions)))
                for witness, positions in self._tags.items()
            ),
            "mi": [key[1] for key, _ in self.assemble_mi_pairs()],
        }

    @classmethod
    def restore(
        cls,
        dcs: Sequence[DenialConstraint],
        database: Database,
        payload: dict,
    ) -> "ComponentTopology":
        """Rebuild a topology from a :meth:`capture` payload.

        O(state) — no minimization and no witness enumeration.  The caller
        is responsible for having verified the database fingerprint first;
        the rebuilt object is bit-identical (components, orders,
        generation) to the captured one.
        """
        topology = cls(dcs, database)
        topology._load(
            {frozenset(ids): set(positions) for ids, positions in payload["tags"]},
            [frozenset(ids) for ids in payload["mi"]],
        )
        topology.generation = payload["generation"]
        return topology

    def _load(
        self,
        tags: dict[frozenset[int], set[int]],
        minimized: list[frozenset[int]],
    ) -> None:
        """Adopt a tag table and its ``MI_Σ(D)`` in global order."""
        self._tags = tags
        binding = self._binding
        for witness in tags:
            for fact in witness:
                binding.setdefault(fact, set()).add(witness)
        self._minimal = set(minimized)
        self._split([(mi_sort_key(witness), witness) for witness in minimized])
        self._invalidate()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def apply(
        self,
        retracted: Iterable[tuple[int, frozenset[int]]],
        inserted: Iterable[tuple[int, frozenset[int]]],
    ) -> bool:
        """Fold one flush's witness delta into the topology.

        Returns whether anything changed (the generation advanced).  The
        affected region is rebuilt; components outside it keep identity.
        """
        retracted = list(retracted)
        inserted = list(inserted)
        if not retracted and not inserted:
            return False
        tags = self._tags
        binding = self._binding
        touched: set[int] = set()
        lost: set[frozenset[int]] = set()
        fresh: set[frozenset[int]] = set()
        for position, witness in retracted:
            touched |= witness
            positions = tags.get(witness)
            if positions is not None:
                positions.discard(position)
                if not positions:
                    del tags[witness]
                    lost.add(witness)
                    for fact in witness:
                        bound = binding[fact]
                        bound.discard(witness)
                        if not bound:
                            del binding[fact]
        for position, witness in inserted:
            touched |= witness
            positions = tags.get(witness)
            if positions is not None:
                positions.add(position)
                continue
            tags[witness] = {position}
            if witness in lost:
                lost.discard(witness)  # re-found: present all along
            else:
                fresh.add(witness)
            for fact in witness:
                binding.setdefault(fact, set()).add(witness)
        removed, added = self._status(lost, fresh, False)
        self._minimal -= removed
        self._minimal |= added
        region, pairs = self._regional(touched, removed, added)
        self._retire(region)
        self._split(pairs)
        self.generation += 1
        self._invalidate()
        return True

    def preview(
        self, dirty_facts: set[int], fresh: set[frozenset[int]]
    ) -> tuple[list[frozenset[int]], set[TopologyComponent]]:
        """Region + minimization of a hypothetical delta — **no mutation**.

        *dirty_facts* are the facts the delta touched: every present
        witness binding one is lost.  *fresh* are the witnesses
        re-enumerated around them (a re-found witness stays present).
        The status rules run over that overlay of the base tags.  Returns
        the regional minimized family in ``mi_sort_key`` order and the set
        of live components it replaces: the owners of the dirty facts and
        of the added MI sets — no other component changes its MI family or
        its facts' values.  The topology, its caches and its MI set are
        left untouched; this is the batched-speculation primitive: score a
        candidate from the preview, roll the database back, and the base
        topology was never dirtied.
        """
        binding = self._binding
        gone = set().union(*(binding.get(fact, ()) for fact in dirty_facts))
        # A fresh witness binds a dirty fact, so a present one is in gone.
        removed, added = self._status(gone - fresh, fresh - gone, True)
        region, pairs = self._regional(dirty_facts, removed, added)
        return [witness for _, witness in pairs], region

    def preview_deletion(
        self, facts: Iterable[int]
    ) -> tuple[list[frozenset[int]], set[TopologyComponent]]:
        """:meth:`preview` of deleting *facts* — a filter, **no mutation**.

        Same contract and same answer as ``preview(facts, set())``: returns
        the regional minimized family in ``mi_sort_key`` order and the live
        components it replaces.  The region is the components owning a
        deleted fact; the family is their MI sets disjoint from *facts*.
        No status rule runs, because
        ``MI_Σ(D − F) = {S ∈ MI_Σ(D) : S ∩ F = ∅}``:

        1. DCs are anti-monotone, and a witness's violation reads only its
           own facts.  So the witnesses of ``D − F`` are exactly the
           witnesses of ``D`` disjoint from ``F``, and a minimal witness
           of ``D`` that misses ``F`` stays minimal (its proper subsets
           were no witnesses before and are none now).
        2. No non-minimal witness can become minimal.  Every stored
           witness ``T`` is dominated by some ``S ∈ MI_Σ(D)`` with
           ``S ⊆ T``; if ``S ∩ F ≠ ∅`` then ``T ∩ F ≠ ∅`` too, so ``T``
           is retracted with it, and if ``S`` misses ``F`` it survives
           and still dominates ``T``.
        3. A component that owns no deleted fact has no MI set meeting
           ``F``, so by (1) and (2) it keeps its content — it keeps its
           identity, and with it its base value.  The surviving sets of
           the owning components only need re-splitting, which the caller
           does (:func:`split_minimized`).
        """
        facts = set(facts)
        component_of = self._component_of
        region = {
            component_of[fact] for fact in facts if fact in component_of
        }
        minimized = [
            witness
            for component in region
            for witness in component.index.mi_sets
            if facts.isdisjoint(witness)
        ]
        if len(region) > 1:
            minimized.sort(key=mi_sort_key)
        return minimized, region

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _status(
        self,
        lost: set[frozenset[int]],
        fresh: set[frozenset[int]],
        overlay: bool,
    ) -> tuple[set[frozenset[int]], set[frozenset[int]]]:
        """The MI sets a delta removes and adds — the three status rules.

        *lost* witnesses are no longer present, *fresh* ones newly are.
        Without *overlay* (:meth:`apply`) the tag table already holds the
        delta; with it (:meth:`preview`) the base tags are read as if
        *lost* were gone and *fresh* present.  Reads only.
        """
        hidden, shown = (lost, fresh) if overlay else ((), ())
        minimal = self._minimal
        retired = minimal & lost
        added: set[frozenset[int]] = set()
        if not fresh and not retired:
            return retired, added
        for witness in fresh:
            if self._is_minimal(witness, hidden, shown):
                added.add(witness)
        removed = set(retired)
        for witness in added:
            removed |= minimal.intersection(self._supersets(witness, hidden, shown))
        for witness in retired:
            for other in self._supersets(witness, hidden, shown):
                if other not in added and self._is_minimal(other, hidden, shown):
                    added.add(other)
        return removed, added

    def _is_minimal(self, witness: frozenset[int], hidden, shown) -> bool:
        """No proper non-empty subset of *witness* is present."""
        tags = self._tags
        for subset in _proper_subsets(witness):
            if (subset in tags and subset not in hidden) or subset in shown:
                return False
        return True

    def _supersets(self, witness: frozenset[int], hidden, shown) -> list:
        """The present strict supersets of *witness*, read off the
        fact → witness map of its least-bound fact."""
        if len(witness) >= self._widest:
            return []
        binding = self._binding
        least = min((binding.get(fact, ()) for fact in witness), key=len)
        found = [other for other in least if witness < other and other not in hidden]
        found.extend(other for other in shown if witness < other)
        return found

    def _regional(
        self,
        facts: set[int],
        removed: set[frozenset[int]],
        added: set[frozenset[int]],
    ) -> tuple[set[TopologyComponent], list[tuple[tuple, frozenset[int]]]]:
        """The region — the owners of *facts* and of the added sets — and
        its new ``(sort key, MI set)`` pairs in key order."""
        component_of = self._component_of
        region: set[TopologyComponent] = set()
        for fact in facts.union(*added):
            component = component_of.get(fact)
            if component is not None:
                region.add(component)
        pairs = [
            pair
            for component in region
            for pair in component.mi_pairs
            if pair[1] not in removed
        ]
        if added:
            pairs.extend((mi_sort_key(witness), witness) for witness in added)
        if added or len(region) > 1:
            pairs.sort()
        return region, pairs

    def _invalidate(self) -> None:
        self._ordered = None
        self._mi_pairs = None
        self._mi_cache = None
        self._indexes = None

    def _retire(self, region: set[TopologyComponent]) -> None:
        for component in region:
            for fact in component.facts:
                if self._component_of.get(fact) is component:
                    del self._component_of[fact]
            self._components.discard(component)

    def _split(self, pairs: list[tuple[tuple, frozenset[int]]]) -> None:
        """Register the connected components of key-sorted MI pairs."""
        if not pairs:
            return
        key_of = {witness: key for key, witness in pairs}
        for facts, grouped in _connected_groups(list(key_of)):
            component = TopologyComponent()
            component.index.mi_sets = grouped
            component.mi_pairs = [(key_of[group], group) for group in grouped]
            component.facts = facts
            component.minimum = min(facts)
            for fact in facts:
                self._component_of[fact] = component
            self._components.add(component)

    def _filled_index(self, component: TopologyComponent) -> ViolationIndex:
        """The component's index with its per-constraint list populated.

        The list holds every present witness binding a member fact: any
        delta witness touching those facts replaces the component, so the
        fact → witness map still describes it.  Entry order is
        deterministic (DC-major, then witness fact order) and set-equal to
        the from-scratch split; consumers treat the list as a set, exactly
        as with the session-assembled full index.
        """
        index = component.index
        if not index.per_constraint:
            binding = self._binding
            witnesses = set().union(*(binding[fact] for fact in component.facts))
            entries = sorted(
                (position, tuple(sorted(witness)), witness)
                for witness in witnesses
                for position in self._tags[witness]
            )
            index.per_constraint = [
                MinimalViolation(witness, self.dcs[position])
                for position, _, witness in entries
            ]
        return index
