"""Maintained columnar snapshots of the relations the batch enumerator joins.

The set-based enumeration backend (:mod:`repro.session.enumeration`) runs
its compiled batch join plans over per-relation **column arrays** instead of
per-tuple ``Fact`` probes: one parallel array per attribute, one array of
fact identifiers, and grouped hash indexes ``value → row set`` for the
columns the DCs join on.  Filters and join-key computations then reduce to
array indexing — no ``Fact`` attribute resolution, no signature lookups, no
per-tuple dict churn.

Two backends implement the same registration/maintenance surface:

* :class:`ColumnStore` (this module) — pure-python lists and dict group
  indexes.  Always available; the reference fallback.
* :class:`~repro.session.vectorized.VectorColumnStore` — numpy-backed
  contiguous columns with **dictionary-encoded join keys** (value → dense
  int code per shared join-class), tombstone bitmaps and amortized
  geometric growth.  Selected per process at import exactly when numpy
  imports (the ``repro[vector]`` extra).

The backend is derived, not chosen: witness sets are bit-identical on
both, so the only observable difference is speed.
:data:`VECTOR_BACKEND` names the process's backend and
:func:`make_column_store` constructs a store on it.

The cold :meth:`~ColumnStore.build` **loads by column** in one pass:
:func:`gather_rows` sweeps the database once for each registered
relation's ids and value tuples in fact-id order, and both backends fill
whole columns (and derive their row maps and join indexes) from those.
From then on the store is **maintained**, not rebuilt: the owning shard
feeds :meth:`~ColumnStore.apply` the
:class:`~repro.relational.database.ChangeEvent` stream of its relations,
one event at a time, so every enumeration (cold or delta, committed or
inside a speculation savepoint) sees current state at O(1) amortized cost
per mutation.  A cold load equals an empty store fed one insert event per
fact, field for field.  Updates reuse the existing row slot in place;
deleted rows are tombstoned (identifier slot set to ``None``) and recycled
through a free list.  Row indices are stable between mutations — compiled plan state
may cache them only within a single enumeration pass, because a
**live-fraction compaction** renumbers rows (in place, preserving the
object identity of every captured column list and group dict) once dead
slots outnumber the configured fraction of a large relation.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Sequence

from ..relational.database import ChangeEvent, Database, Fact
from ..relational.schema import Schema

_NO_ROWS: frozenset[int] = frozenset()


def _joinable(value) -> bool:
    """NULLs and NaNs never satisfy an equality join.

    Keeping them out of the group buckets matters for NaN in particular:
    a dict would key a NaN *object* by identity, so the same object would
    "equal" itself through a bucket while ``==`` (the scalar kernels and
    IEEE semantics) says it does not.
    """
    return value is not None and value == value


def gather_rows(
    database: Database, relations: Iterable[str]
) -> dict[str, tuple[list[int], list[tuple]]]:
    """Per relation in *relations*: its fact ids and value tuples, both in
    fact-id order, from one pass over *database*.

    A stored column is then ``list(map(itemgetter(position), rows))``, one
    C-level pass each; ``zip(*rows)`` would transpose every column and
    pass one argument per row, which is ten times slower at 1M rows.
    """
    gathered: dict[str, tuple[list[int], list[tuple]]] = {
        name: ([], []) for name in relations
    }
    for identifier, fact in database.items():
        found = gathered.get(fact.relation)
        if found is not None:
            found[0].append(identifier)
            found[1].append(fact.values)
    return gathered


def _detect_backend() -> str:
    """``"numpy"`` when numpy imports, else the pure-python ``"list"``."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return "list"
    return "numpy"


#: The column backend this process selected at import ("numpy" or "list").
VECTOR_BACKEND: str = _detect_backend()


def make_column_store(schema: Schema):
    """Construct a column store for *schema* on :data:`VECTOR_BACKEND`.

    The constant is read at each call.  Both backends expose the same
    registration and maintenance surface; the batch plan compilers
    dispatch on ``store.backend``.
    """
    if VECTOR_BACKEND == "numpy":
        from .vectorized import VectorColumnStore

        return VectorColumnStore(schema)
    return ColumnStore(schema)


class RelationColumns:
    """One relation's columnar image: id array + per-attribute value arrays."""

    __slots__ = ("relation", "attributes", "ids", "columns", "row_of", "free")

    def __init__(self, relation: str, attributes: Sequence[str]) -> None:
        self.relation = relation
        self.attributes = tuple(attributes)
        #: Fact identifier per row; ``None`` marks a tombstoned (dead) row.
        self.ids: list[int | None] = []
        self.columns: dict[str, list] = {attribute: [] for attribute in attributes}
        self.row_of: dict[int, int] = {}
        self.free: list[int] = []

    def __len__(self) -> int:
        return len(self.row_of)

    def live_rows(self) -> list[int]:
        """Indices of all live rows (scan seed of a cold enumeration)."""
        ids = self.ids
        return [row for row in range(len(ids)) if ids[row] is not None]

    def rows_for_ids(self, identifiers: Iterable[int]) -> list[int]:
        """Row indices of *identifiers*; absent identifiers are skipped."""
        row_of = self.row_of
        return [row_of[i] for i in identifiers if i in row_of]


class ColumnStore:
    """Columnar snapshots for a registered set of relations, kept live.

    Only the relations and attributes some batch-compiled DC actually reads
    are registered (:meth:`register`); grouped hash indexes are kept for the
    columns registered as join keys (:meth:`register_key` /
    :meth:`register_coded`).  Registration happens before :meth:`build`;
    afterwards :meth:`apply` maintains everything under the change feed.
    """

    #: Dispatch tag for the plan compilers (mirrored by VectorColumnStore).
    backend = "list"

    #: Relations smaller than this never compact (dead-slot scans are cheap).
    COMPACT_MIN_SLOTS = 2048
    #: Compact once live rows drop below this fraction of allocated slots.
    COMPACT_LIVE_FRACTION = 0.5

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._relations: dict[str, RelationColumns] = {}
        #: (relation, attribute) → value → set of live row indices.
        self._groups: dict[tuple[str, str], dict[object, set[int]]] = {}
        #: Per relation: [(attribute, positional index)] of grouped columns.
        self._keys_by_relation: dict[str, list[tuple[str, int]]] = {}
        #: Per relation: [(attribute, positional index)] of stored columns,
        #: memoized once registration settles (first _add recomputes).
        self._positions: dict[str, list[tuple[str, int]]] = {}

    # ------------------------------------------------------------------
    # Registration (before build)
    # ------------------------------------------------------------------
    def register(self, relation: str, attributes: Iterable[str]) -> None:
        """Ensure columns exist for *attributes* of *relation*.

        Idempotent; the union of all registrations for a relation must be
        made before :meth:`build` (late registrations would start empty).
        """
        existing = self._relations.get(relation)
        if existing is None:
            signature = self.schema.signature(relation)
            wanted = set(attributes)
            ordered = [a for a in signature.attributes if a in wanted]
            self._relations[relation] = RelationColumns(relation, ordered)
            return
        missing = set(attributes) - set(existing.attributes)
        if missing:
            if len(existing) or existing.ids:
                raise RuntimeError(
                    f"late column registration on non-empty relation "
                    f"{relation!r}: {sorted(missing)}"
                )
            signature = self.schema.signature(relation)
            wanted = set(existing.attributes) | missing
            existing.attributes = tuple(
                a for a in signature.attributes if a in wanted
            )
            for attribute in missing:
                existing.columns[attribute] = []

    def register_key(self, relation: str, attribute: str) -> None:
        """Maintain a grouped hash index ``value → rows`` for the column."""
        self.register(relation, (attribute,))
        key = (relation, attribute)
        if key in self._groups:
            return
        self._groups[key] = {}
        signature = self.schema.signature(relation)
        self._keys_by_relation.setdefault(relation, []).append(
            (attribute, signature.index_of(attribute))
        )

    def register_coded(self, pairs: Iterable[tuple[str, str]]) -> None:
        """Register the columns of one coded comparison class.

        The list backend compares raw values directly, so this just makes
        sure the columns are stored; the numpy backend shares one value
        dictionary across the class so equality and disequality compare
        **codes** directly.
        """
        for relation, attribute in pairs:
            self.register(relation, (attribute,))

    # ------------------------------------------------------------------
    # Build + maintenance
    # ------------------------------------------------------------------
    def build(self, database: Database) -> None:
        """Load the registered relations from *database* (cold start).

        One pass gathers each relation's ids and value columns in fact-id
        order; the lists are extended whole and :meth:`_reindex` derives
        ``row_of`` and the group buckets from them.
        """
        for name, (ids, rows) in gather_rows(database, self._relations).items():
            table = self._relations[name]
            table.ids.extend(ids)
            for attribute, position in self._positions_for(table):
                table.columns[attribute].extend(map(itemgetter(position), rows))
            self._reindex(table)

    def apply(self, event: ChangeEvent) -> None:
        """Maintain the store after one committed database mutation.

        In-place updates (same identifier, same relation, live row) rewrite
        the existing slot instead of tombstone-and-append, so long update
        streams do not grow the scan range at all.
        """
        old, new = event.old, event.new
        if (
            old is not None
            and new is not None
            and old.relation == new.relation
            and old.relation in self._relations
        ):
            table = self._relations[old.relation]
            row = table.row_of.get(event.identifier)
            if row is not None:
                self._update(table, row, old, new)
                return
        if old is not None and old.relation in self._relations:
            self._remove(event.identifier, old)
            self._maybe_compact(self._relations[old.relation])
        if new is not None and new.relation in self._relations:
            self._add(event.identifier, new)

    # ------------------------------------------------------------------
    # Read surface (the compiled plans' working set)
    # ------------------------------------------------------------------
    def relation(self, relation: str) -> RelationColumns:
        return self._relations[relation]

    def column(self, relation: str, attribute: str) -> list:
        """The value array of one column (parallel to the relation's rows)."""
        return self._relations[relation].columns[attribute]

    def ids(self, relation: str) -> list[int | None]:
        """The identifier array (``None`` in tombstoned slots)."""
        return self._relations[relation].ids

    def group(self, relation: str, attribute: str) -> dict[object, set[int]]:
        """The grouped hash index of a registered key column."""
        return self._groups[(relation, attribute)]

    def live_count(self, relation: str) -> int:
        """Live cardinality of *relation* (0 when unregistered).

        The batch compilers feed this to the planner's ``cost_of`` hook so
        equality join orders visit small relations first.
        """
        table = self._relations.get(relation)
        return len(table) if table is not None else 0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _positions_for(self, table: RelationColumns) -> list[tuple[str, int]]:
        positions = self._positions.get(table.relation)
        if positions is None or len(positions) != len(table.attributes):
            signature = self.schema.signature(table.relation)
            positions = [
                (attribute, signature.index_of(attribute))
                for attribute in table.attributes
            ]
            self._positions[table.relation] = positions
        return positions

    def _add(self, identifier: int, fact: Fact) -> None:
        table = self._relations[fact.relation]
        positions = self._positions_for(table)
        values = fact.values
        columns = table.columns
        if table.free:
            row = table.free.pop()
            table.ids[row] = identifier
            for attribute, position in positions:
                columns[attribute][row] = values[position]
        else:
            row = len(table.ids)
            table.ids.append(identifier)
            for attribute, position in positions:
                columns[attribute].append(values[position])
        table.row_of[identifier] = row
        for attribute, position in self._keys_by_relation.get(fact.relation, ()):
            value = values[position]
            if _joinable(value):
                self._groups[(fact.relation, attribute)].setdefault(
                    value, set()
                ).add(row)

    def _update(self, table: RelationColumns, row: int, old: Fact, new: Fact) -> None:
        positions = self._positions_for(table)
        old_values, new_values = old.values, new.values
        columns = table.columns
        for attribute, position in positions:
            columns[attribute][row] = new_values[position]
        for attribute, position in self._keys_by_relation.get(table.relation, ()):
            old_value = old_values[position]
            new_value = new_values[position]
            if old_value is new_value or old_value == new_value:
                continue
            buckets = self._groups[(table.relation, attribute)]
            bucket = buckets.get(old_value) if _joinable(old_value) else None
            if bucket is not None:
                bucket.discard(row)
                if not bucket:
                    del buckets[old_value]
            if _joinable(new_value):
                buckets.setdefault(new_value, set()).add(row)

    def _remove(self, identifier: int, fact: Fact) -> None:
        table = self._relations[fact.relation]
        row = table.row_of.pop(identifier, None)
        if row is None:
            return
        for attribute, position in self._keys_by_relation.get(fact.relation, ()):
            value = fact.values[position]
            if not _joinable(value):
                continue
            buckets = self._groups[(fact.relation, attribute)]
            bucket = buckets.get(value)
            if bucket is not None:
                bucket.discard(row)
                if not bucket:
                    del buckets[value]
        table.ids[row] = None
        table.free.append(row)

    def _maybe_compact(self, table: RelationColumns) -> None:
        total = len(table.ids)
        if total < self.COMPACT_MIN_SLOTS:
            return
        if len(table.row_of) >= total * self.COMPACT_LIVE_FRACTION:
            return
        self._compact(table)

    def _compact(self, table: RelationColumns) -> None:
        """Drop dead slots, renumbering rows densely.

        Every captured reference stays valid: column lists, the id list and
        the group dicts are all rewritten **in place** (slice assignment /
        clear-and-refill), because compiled list plans close over them by
        object identity.
        """
        live = [row for row, ident in enumerate(table.ids) if ident is not None]
        table.ids[:] = [table.ids[row] for row in live]
        for column in table.columns.values():
            column[:] = [column[row] for row in live]
        self._reindex(table)

    def _reindex(self, table: RelationColumns) -> None:
        """Rebuild ``row_of``, the free list and the group buckets from
        *table*'s dense (tombstone-free) id and column lists, in place.
        """
        table.row_of.clear()
        table.row_of.update(zip(table.ids, range(len(table.ids))))
        table.free.clear()
        for attribute, _position in self._keys_by_relation.get(table.relation, ()):
            buckets = self._groups[(table.relation, attribute)]
            buckets.clear()
            for row, value in enumerate(table.columns[attribute]):
                if _joinable(value):
                    buckets.setdefault(value, set()).add(row)
