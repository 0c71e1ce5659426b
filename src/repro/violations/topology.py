"""Live conflict-component topology: the minimized MI family under deltas.

The measurement session made witness *enumeration* delta-driven, but every
index assembly still re-minimized the entire raw witness family and
re-derived connected components from scratch — O(database) work per
measurement point.  :class:`ComponentTopology` promotes the answer structure
itself to a first-class, incrementally maintained object (in the spirit of
dynamic query evaluation, where the maintained artifact is the query answer
rather than its inputs):

* the ⊆-minimized family ``MI_Σ(D)``, partitioned into its connected
  components;
* a per-fact → component map over the problematic facts;
* per-component raw-witness attachment — the closure structure retraction
  needs, because a raw witness spanning several components can become
  minimal (and merge them) the moment the minimal subset dominating it is
  retracted.

**Maintenance contract.**  :meth:`apply` receives the witness delta of one
session flush — ``(dc position, witness)`` retractions and insertions — and
rebuilds only the *affected region*: the components whose content the delta
actually touches (components of changed witnesses' facts), expanded only
when a witness genuinely becomes minimal across a component boundary (a
true merge).  The region's raw family is re-minimized and re-split; every
component outside the region keeps its object identity, and with it its
memoized content key and its own per-measure values.

**Retraction strategy.**  Union-find does not support deletion directly;
retraction is handled by regional re-split.  A deletion may split a
component, an insertion may merge several — either way the affected region
is re-partitioned from its raw witnesses while the rest of the topology is
untouched.  Keeping the region tight requires knowing *why* each dominated
witness is non-minimal: the topology records, per witness, one minimal set
dominating it.  A dominated witness attached to a region component whose
recorded dominator lives in an untouched component is status-frozen — it
is excluded from the regional re-minimization and does not drag its other
components in (this is what stops hub-shaped self-inconsistent facts, which
dominate pairs into many components, from chaining every rebuild into a
full one).  When all of a witness's dominators are retracted at once, the
re-minimization sees it become minimal with facts outside the region; the
region is then expanded by those components and re-run — the loop converges
because the region grows monotonically, and in the common case it never
fires.

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
_NO_WITNESSES: frozenset[frozenset[int]] = frozenset()


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


class TopologyComponent:
    """One live conflict component: its minimized family plus closure data.

    Instances are immutable once published: a delta that touches a
    component replaces it with freshly built objects, so object identity is
    a proof of unchanged content — which is what lets the component carry
    its own measure values (``values``) and speculative scoring reuse them
    by ``id()`` instead of re-hashing content keys.
    """

    __slots__ = (
        "index", "facts", "raw", "minimum", "mi_pairs", "_cache_key", "values"
    )

    def __init__(self) -> None:
        #: The component as a ``ViolationIndex`` (what measures consume).
        self.index = ViolationIndex()
        #: Problematic member facts (``∪`` of the component's MI sets).
        self.facts: set[int] = set()
        #: Raw witnesses attached to this component (a witness spanning
        #: several components is attached to each; used by region closure).
        self.raw: set[frozenset[int]] = set()
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

    ``generation`` advances exactly when a flush changed some witness (or a
    bound fact's value forced a retract/re-insert pair); flushes that
    produce no witness delta leave it — and every derived cache — alone.
    """

    def __init__(self, dcs: Sequence[DenialConstraint], database: Database) -> None:
        self.dcs = list(dcs)
        self.database = database
        self.generation = 0
        # witness → positions of the DCs currently producing it.
        self._tags: dict[frozenset[int], set[int]] = {}
        # fact → present witnesses binding it (attachment ground truth: a
        # component freshly created next to *existing* dominated witnesses
        # must adopt them, even though no region rebuild touched them).
        self._binding: dict[int, set[frozenset[int]]] = {}
        # witness → one minimal set dominating it (itself when minimal).
        # The region-boundary oracle: a witness whose recorded dominator
        # lives outside the region cannot change status there.
        self._dominator: dict[frozenset[int], frozenset[int]] = {}
        self._components: set[TopologyComponent] = set()
        self._component_of: dict[int, TopologyComponent] = {}
        self._ordered: list[TopologyComponent] | None = []
        self._mi_pairs: list[tuple[tuple, frozenset[int]]] | None = []
        self._mi_cache: list[frozenset[int]] | None = []
        self._indexes: list[ViolationIndex] | None = []

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

        Each component's ``mi_pairs`` list is already sorted (``_minimize``
        emits the regional family in key order and the component split
        preserves it), so the global view is a k-way merge of the cached
        per-component views — O(n log k) against the O(n log n) re-sort
        this replaces.  Keys are unique (a key reconstructs its set), so
        the merge never falls through to comparing the frozensets.
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

        Witnesses become sorted id tuples, components keep their ``mi_pairs``
        order (already globally consistent: ``_minimize`` emits key order and
        the split preserves it), and the dominator oracle and tag table are
        captured verbatim.  Entry lists are sorted so equal topologies
        produce byte-equal payloads regardless of dict insertion history.
        """
        return {
            "generation": self.generation,
            "tags": sorted(
                (tuple(sorted(witness)), tuple(sorted(positions)))
                for witness, positions in self._tags.items()
            ),
            "dominator": sorted(
                (tuple(sorted(witness)), tuple(sorted(ruler)))
                for witness, ruler in self._dominator.items()
            ),
            "components": [
                {
                    "mi": [tuple(sorted(w)) for _, w in component.mi_pairs],
                    "raw": sorted(
                        tuple(sorted(w)) for w in component.raw
                    ),
                }
                for component in self.components()
            ],
        }

    @classmethod
    def restore(
        cls,
        dcs: Sequence[DenialConstraint],
        database: Database,
        payload: dict,
    ) -> "ComponentTopology":
        """Rebuild a topology from a :meth:`capture` payload.

        O(state) — no minimization, no union-find, no witness enumeration.
        The caller is responsible for having verified the database
        fingerprint first; the rebuilt object is bit-identical (components,
        orders, generation, oracle) to the captured one.
        """
        topology = cls(dcs, database)
        topology.generation = payload["generation"]
        for ids, positions in payload["tags"]:
            witness = frozenset(ids)
            topology._tags[witness] = set(positions)
            for fact in witness:
                topology._binding.setdefault(fact, set()).add(witness)
        for ids, ruler in payload["dominator"]:
            topology._dominator[frozenset(ids)] = frozenset(ruler)
        for entry in payload["components"]:
            component = TopologyComponent()
            mi = [frozenset(ids) for ids in entry["mi"]]
            component.index.mi_sets = mi
            component.mi_pairs = [(mi_sort_key(w), w) for w in mi]
            facts: set[int] = set()
            for witness in mi:
                facts |= witness
            component.facts = facts
            component.minimum = min(facts)
            component.raw = {frozenset(ids) for ids in entry["raw"]}
            for fact in facts:
                topology._component_of[fact] = component
            topology._components.add(component)
        topology._ordered = None
        topology._mi_pairs = None
        topology._mi_cache = None
        topology._indexes = None
        return topology

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
        seeds: set[TopologyComponent] = set()
        fresh: list[frozenset[int]] = []
        for position, witness in retracted:
            tags = self._tags.get(witness)
            if tags is not None:
                tags.discard(position)
                if not tags:
                    del self._tags[witness]
                    self._dominator.pop(witness, None)
                    for fact in witness:
                        bound = self._binding.get(fact)
                        if bound is not None:
                            bound.discard(witness)
                            if not bound:
                                del self._binding[fact]
            for fact in witness:
                component = self._component_of.get(fact)
                if component is not None:
                    seeds.add(component)
        for position, witness in inserted:
            tags = self._tags.get(witness)
            if tags is None:
                self._tags[witness] = {position}
                fresh.append(witness)
                for fact in witness:
                    self._binding.setdefault(fact, set()).add(witness)
            else:
                tags.add(position)
            for fact in witness:
                component = self._component_of.get(fact)
                if component is not None:
                    seeds.add(component)
        family, minimized, region = self._regionize(
            seeds, set(fresh), _NO_WITNESSES
        )
        self._record_dominators(family, minimized)
        self._retire(region)
        self._split(minimized)
        self.generation += 1
        self._ordered = None
        self._mi_pairs = None
        self._mi_cache = None
        self._indexes = None
        return True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def preview(
        self, gone: set[frozenset[int]], fresh: set[frozenset[int]]
    ) -> tuple[list[frozenset[int]], set[TopologyComponent]]:
        """Region + minimization of a hypothetical delta — **no mutation**.

        *gone* are the witnesses the delta would retract, *fresh* the ones
        it would insert (a re-found witness may appear in both: it stays
        present).  Returns the regional minimized family and the set of
        live components it replaces — exactly what :meth:`apply` would
        build for the same delta, but the topology, its caches and the
        dominator oracle are left untouched.  This is the batched-
        speculation primitive: score a candidate from the preview, roll the
        database back, and the base topology was never dirtied.
        """
        seeds: set[TopologyComponent] = set()
        for witness in gone:
            for fact in witness:
                component = self._component_of.get(fact)
                if component is not None:
                    seeds.add(component)
        for witness in fresh:
            for fact in witness:
                component = self._component_of.get(fact)
                if component is not None:
                    seeds.add(component)
        _, minimized, region = self._regionize(seeds, fresh, gone)
        return minimized, region

    def preview_deletion(
        self, facts: Iterable[int]
    ) -> tuple[list[frozenset[int]], set[TopologyComponent]]:
        """:meth:`preview` of deleting *facts* — a filter, **no mutation**.

        Same contract as :meth:`preview`: returns the regional minimized
        family in ``mi_sort_key`` order and the live components it
        replaces.  The region is the components owning a deleted fact; the
        family is their MI sets disjoint from *facts*.  No witness is
        re-minimized, no region is closed and no dominator is read,
        because ``MI_Σ(D − F) = {S ∈ MI_Σ(D) : S ∩ F = ∅}``:

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

    def _regionize(
        self,
        seeds: set[TopologyComponent],
        fresh: set[frozenset[int]],
        excluded: set[frozenset[int]],
    ) -> tuple[set[frozenset[int]], list[frozenset[int]], set[TopologyComponent]]:
        """The regional family, its minimization, and the final region.

        Starts from the seed components (those whose content the delta
        touches) and re-minimizes their live witnesses, *excluding* every
        dominated witness whose recorded dominator lives in an untouched
        component — its status cannot change here, and including it would
        chain its other components into the region for nothing.  If the
        re-minimization promotes a witness whose facts reach outside the
        region (all its dominators vanished at once — a true cross-boundary
        merge), the region expands by those components and the pass re-runs;
        growth is monotone over finitely many components, and in the common
        case the first pass is final.

        *fresh* witnesses are unconditionally part of the family;
        *excluded* ones are skipped when collecting from component
        attachments (:meth:`apply` has already updated the tag table, so it
        passes none; :meth:`preview` passes the hypothetical retractions).
        """
        tags = self._tags
        dominator = self._dominator
        component_of = self._component_of
        region = set(seeds)
        while True:
            family: set[frozenset[int]] = set(fresh)
            for component in region:
                for witness in component.raw:
                    if witness not in tags or witness in excluded:
                        continue
                    ruler = dominator.get(witness)
                    if ruler is not None and ruler != witness:
                        ruled_by = component_of.get(next(iter(ruler)))
                        if ruled_by is not None and ruled_by not in region:
                            continue  # status frozen by an untouched dominator
                    family.add(witness)
            minimized = _minimize(family)
            expand: set[TopologyComponent] = set()
            for group in minimized:
                for fact in group:
                    component = component_of.get(fact)
                    if component is not None and component not in region:
                        expand.add(component)
            if not expand:
                return family, minimized, region
            region |= expand

    def _record_dominators(
        self, family: set[frozenset[int]], minimized: list[frozenset[int]]
    ) -> None:
        """Refresh the dominator oracle for every re-evaluated witness."""
        dominator = self._dominator
        minimal = set(minimized)
        singles = {
            next(iter(group)) for group in minimized if len(group) == 1
        }
        for witness in family:
            if witness in minimal:
                dominator[witness] = witness
                continue
            ruler = None
            if singles:
                for fact in witness:
                    if fact in singles:
                        ruler = frozenset((fact,))
                        break
            if ruler is None:
                # minimized is sorted narrowest-first; the first subset wins.
                for group in minimized:
                    if group <= witness:
                        ruler = group
                        break
            dominator[witness] = ruler

    def _retire(self, region: set[TopologyComponent]) -> None:
        for component in region:
            for fact in component.facts:
                if self._component_of.get(fact) is component:
                    del self._component_of[fact]
            self._components.discard(component)

    def _split(self, minimized: list[frozenset[int]]) -> None:
        """Register the connected components of a minimized regional family."""
        binding = self._binding
        for facts, grouped in _connected_groups(minimized):
            component = TopologyComponent()
            component.index.mi_sets = grouped
            component.mi_pairs = [
                (mi_sort_key(group), group) for group in grouped
            ]
            component.facts = facts
            component.minimum = min(facts)
            for fact in facts:
                self._component_of[fact] = component
            self._components.add(component)
            # Attach every *present* witness intersecting the component —
            # from the binding map, not the regional family: a component
            # born next to long-existing dominated witnesses (their own
            # dominators live elsewhere) must adopt them too, or later
            # region closures and per-constraint views would miss them.
            raw = component.raw
            for fact in facts:
                raw.update(binding.get(fact, ()))

    def _filled_index(self, component: TopologyComponent) -> ViolationIndex:
        """The component's index with its per-constraint list populated.

        Entry order is deterministic (DC-major, then witness fact order) and
        set-equal to the from-scratch split; consumers treat the list as a
        set, exactly as with the session-assembled full index.
        """
        index = component.index
        if not index.per_constraint and component.raw:
            entries = sorted(
                (position, tuple(sorted(witness)), witness)
                for witness in component.raw
                for position in self._tags.get(witness, ())
            )
            index.per_constraint = [
                MinimalViolation(witness, self.dcs[position])
                for position, _, witness in entries
            ]
        return index
