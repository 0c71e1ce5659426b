"""One shard of a measurement session: the maintained witness state.

A :class:`~repro.session.session.MeasurementSession` partitions its live
state by relation (:func:`relation_groups`, derived from the DCs and the
schema, never passed in) and owns one :class:`_Shard` per group.  A shard
is the maintenance and preview state machine of its DC subset and nothing
else — no measure, speculation, budget or snapshot API; the session owns
all of that once, over any number of shards.

A shard keeps

* the per-DC witness enumerators and the column store they read, fed
  by :meth:`_Shard._on_change` with the change events the session routes
  to it.  Every (re)build — construction, warm-start restore, ``refresh``
  and fault recovery — makes the store on the process's column backend
  (``columnar.VECTOR_BACKEND``);
* the per-DC witness stores and the reverse fact → ``(dc, witness)`` map
  (``_touching``);
* a live :class:`~repro.violations.topology.ComponentTopology`.

:meth:`_Shard._flush` folds the dirty facts into them: every stored
witness that binds a dirty fact is retracted, only the witnesses touching
the dirty facts are re-enumerated, and the net witness delta goes to the
topology, which re-minimizes and re-splits only the affected region.
:meth:`_Shard._preview_region` computes the same region for a candidate
delta without writing anything (batched speculation of a candidate applied
under a savepoint; a deletion-only candidate needs no re-enumeration and
goes straight to the topology's ``preview_deletion``).
"""

from __future__ import annotations

from typing import Sequence

from ..constraints.dc import DenialConstraint
from ..measures.base import ComponentValueCache, warm_cache_token
from ..relational.database import ChangeEvent, Database
from ..relational.schema import Schema
from ..violations.minimal import _connected_groups
from ..violations.topology import ComponentTopology, TopologyComponent
from .columnar import ColumnStore
from .enumeration import WitnessEnumerator, build_enumerators, cold_build
from .snapshot import ShardSnapshot, constraint_digest
from .witnesses import WitnessStore


def relation_groups(dcs: Sequence, schema: Schema) -> list[tuple[str, ...]]:
    """Connected components of the constraint/relation hypergraph.

    Relations are nodes; every DC links all relations its atoms mention.
    Returns the groups as relation-name tuples (each in schema order),
    ordered by the schema position of their first relation — the fixed
    shard order every assembly uses.  Relations no DC mentions are left
    out: they can never produce a witness, so no shard needs to index them
    and their change events are dropped by the session.

    The connectivity is the same one the conflict components use, so it
    runs on the same union-find: each DC becomes the set of its relations'
    schema positions and :func:`_connected_groups` splits the family.
    """
    names = schema.relation_names()
    position = {name: k for k, name in enumerate(names)}
    family = [
        frozenset(position[relation] for _, relation in dc.variables)
        for dc in dcs
    ]
    return [
        tuple(names[k] for k in sorted(members))
        for members, _ in _connected_groups(family)
    ]


class _Shard:
    """Maintained witness stores and topology of one DC subset.

    Built only by the session, which routes change events to
    :meth:`_on_change` and calls :meth:`_flush` before reading
    ``topology``.  The live components carry their own measure values; a
    snapshot exports them, and a restore hands them to the shared
    *component_cache* as warm entries.
    """

    def __init__(
        self,
        dcs: Sequence[DenialConstraint],
        database: Database,
        component_cache: ComponentValueCache,
        *,
        warm_start: ShardSnapshot | None = None,
    ) -> None:
        self.dcs = list(dcs)
        self.database = database
        # The witness stores (with the reverse fact → (dc, witness) map),
        # the per-DC enumerators with their column store and the topology
        # are all created by exactly one of _restore/_rebuild below.
        self._enumerators: list[WitnessEnumerator]
        self._columns: ColumnStore
        self._enum_stats: list = [None] * len(self.dcs)
        self._witnesses: list[WitnessStore]
        self._touching: dict[int, set[tuple[int, frozenset[int]]]]
        self.topology: ComponentTopology
        self._dirty: set[int] = set()
        self.component_cache = component_cache
        #: Whether construction restored *warm_start* (False on fallback —
        #: a mismatched payload cold-builds, never mis-restores).
        self.warm_started = warm_start is not None and self._restore(warm_start)
        if not self.warm_started:
            self._rebuild()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _on_change(self, event: ChangeEvent) -> None:
        self._dirty.add(event.identifier)
        self._columns.apply(event)

    def _flush(self) -> None:
        """Fold the pending dirty set into the stores and the topology.

        Witnesses binding a dirty fact are retracted, the delta is
        re-enumerated, and the net ``(dc, witness)`` delta is handed to the
        topology, which re-minimizes and re-splits only the affected
        region.  A flush that produces no witness delta leaves the
        topology generation untouched.
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
        self.topology.apply(retracted, inserted)

    def _add_witness(self, dc_position: int, witness: frozenset[int]) -> bool:
        if not self._witnesses[dc_position].add(witness):
            return False
        for identifier in witness:
            self._touching.setdefault(identifier, set()).add(
                (dc_position, witness)
            )
        return True

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
        self._touching = {}
        self._dirty.clear()
        self.topology = ComponentTopology(self.dcs, self.database)
        inserted: list[tuple[int, frozenset[int]]] = []
        for dc_position, family in enumerate(families):
            for witness in family:
                if self._add_witness(dc_position, witness):
                    inserted.append((dc_position, witness))
        self.topology.apply([], inserted)

    # ------------------------------------------------------------------
    # Warm-start payloads
    # ------------------------------------------------------------------
    def _snapshot_payload(self) -> ShardSnapshot:
        """This shard's derived state (the session flushed it first).

        ``cache`` carries the live components' own values as ``(measure
        token, content key, value)`` triples; values of measures without a
        :func:`~repro.measures.base.warm_cache_token` stay behind.
        """
        topology = self.topology
        cache = []
        for component in topology.components():
            for measure, value in component.values.items():
                token = warm_cache_token(measure)
                if token is not None:
                    cache.append((token, topology.cache_key(component), value))
        return ShardSnapshot(
            constraints=constraint_digest(self.dcs),
            stores=[store.capture() for store in self._witnesses],
            topology=topology.capture(),
            cache=cache,
        )

    def _restore(self, snap) -> bool:
        """Adopt a shard payload's derived state; False on any mismatch.

        The session has already verified the snapshot version, the
        database fingerprint and the relation partition; the payload must
        still describe exactly this shard's lowered DCs.  A payload that
        deserialized but carries malformed fields (bit rot, a hand-crafted
        file) degrades the same way: structural errors anywhere in the
        restore are caught and answered with False — the caller's
        ``_rebuild`` reassigns every partially-touched structure, so a
        half-restore leaves nothing behind.
        """
        try:
            if not isinstance(snap, ShardSnapshot):
                return False
            if snap.constraints != constraint_digest(self.dcs):
                return False
            if len(snap.stores) != len(self.dcs):
                return False
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
        self._enumerators, self._columns = build_enumerators(
            self.dcs, self.database, self._enum_stats
        )
        self._enum_stats = [
            enumerator.stats for enumerator in self._enumerators
        ]
        self._dirty.clear()
        return True

    # ------------------------------------------------------------------
    # Read-only preview (batched speculation)
    # ------------------------------------------------------------------
    def _preview_region(
        self, touched: set[int]
    ) -> tuple[list[frozenset[int]], set[TopologyComponent]]:
        """Read-only region preview of retracting/re-enumerating *touched*.

        Runs inside a candidate's savepoint: the database and this shard's
        column store are patched, the stores and the topology still
        describe the base.  The witness delta of *touched* — retract what
        binds them, re-enumerate around the live ones — is handed to
        :meth:`~repro.violations.topology.ComponentTopology.preview`.  No
        live structure is written.
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
