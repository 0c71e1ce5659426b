"""Numpy-backed column store + vectorized batch-join kernels.

This is the ``"numpy"`` backend behind
:func:`repro.session.columnar.make_column_store` (the ``repro[vector]``
extra).  It keeps the same registration/maintenance surface as the
pure-python :class:`~repro.session.columnar.ColumnStore` but stores each
relation as contiguous numpy arrays:

* an ``int64`` identifier array plus a **tombstone bitmap** (``live``),
  grown geometrically and recycled through a free list;
* per-attribute typed arrays on a dtype ladder ``int64 → float64 →
  object`` with a parallel validity bitmap (``None`` = SQL NULL), promoted
  at runtime when a value does not fit the current kind;
* **dictionary-encoded join keys**: every column that some DC compares for
  (in)equality carries a parallel ``int64`` code array, where one shared
  :class:`ColumnDictionary` per join equivalence class maps value → dense
  code (``-1`` = NULL, ``-2`` = float NaN).  Equal values get equal codes
  across every column of the class, so EQ/NE evaluate on codes alone;
* **python mirrors** of the ids (``None`` in dead slots), of each
  column's values and of each coded column's codes: plain lists written
  next to the arrays on every event.  They hold references to values the
  facts already own, about 8 bytes per stored cell.

The cold :meth:`VectorColumnStore.build` loads by column in one pass: one
``grow`` per relation, each column's final kind from :func:`_climb` over
its values, then one array write for its data and validity and one
dictionary pass for its codes (a join class spanning several columns
takes its first-seen codes in fact order, as per-event loading assigns
them).  :meth:`VectorColumnStore.apply` then maintains the store per
event through :meth:`VectorColumn.set`, on the same ladder.

Grouped join indexes are **CSR buckets over codes**: ``starts[c]:starts[c+1]``
slices a row array sorted by code, so a probe is O(1) arithmetic plus a
validity gather (rows are re-checked against the live bitmap and current
codes, which makes stale entries harmless).  Mutations append to a small
overlay probed via sorted-array ``searchsorted``; the CSR is rebuilt only
when the overlay outgrows a fraction of the relation, keeping delta
re-enumeration free of O(n) rebuilds.

The vectorized plans (:func:`compile_vector_plan`) take the same
:class:`~repro.session.enumeration.PinPlan` the list backend compiles — one
join order and predicate placement per pin, planned from the DC — but
execute it as mask combinators over parallel row arrays: seed scans as
boolean masks, grouped hash joins as code-array bucket probes and keyless
cross steps as repeat/tile expansions, both expanded in blocks of at most
``CROSS_PAIR_BUDGET`` pairs and filtered block by block,
predicates as EQ/NE code masks or typed-array comparisons — with **no
per-candidate python loop**; witnesses decode only the surviving rows.
Python scalar kernels remain as a row-level fallback for the cases numpy
semantics cannot mirror exactly (bools, mixed types, > 2**53 integers
against floats), keeping results bit-identical to the list backend.

Those kernels pay a fixed numpy floor per call, which a delta seeded by a
few dirty rows never amortizes.  A delta seeding at most
:data:`SCALAR_DELTA_ROWS` rows therefore takes the **scalar delta path**:
the list backend's own kernels, compiled by the unchanged
``enumeration._compile_list_plan`` from the same pin plan, read the
mirrors through :class:`ScalarView` (``column``, ``ids``, ``group``,
``relation``).  Its group probes read the CSR buckets (cached as python
lists until the next rebuild) and the overlay's ``code → rows`` map, and
validate rows against the mirrored ids and codes as the numpy probes do.
"""

from __future__ import annotations

import heapq
from itertools import chain, repeat
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from ..constraints.base import ComparisonOp
from ..constraints.dc import DenialConstraint, Predicate, Term
from ..relational.database import ChangeEvent, Database, Fact
from ..relational.schema import Schema
from .columnar import gather_rows

#: Exact-in-float64 integer bound: |int| above this cannot ride float math.
_EXACT_FLOAT_INT = 2**53
_INT64_MAX = 2**63

_NULL_CODE = -1
_NAN_CODE = -2
_UNSEEN_CODE = -3

_NO_ROWS = np.zeros(0, dtype=np.int64)


def _is_nan(value) -> bool:
    return isinstance(value, float) and value != value


def _climb(kind: str, huge: bool, values: Iterable) -> tuple[str, bool]:
    """A column's ``(kind, huge)`` once *values* are stored in it, in order.

    The kind only climbs ``i8 → f8 → obj`` until each value stores
    losslessly: bools, non-numbers and ints outside int64 need ``obj``; a
    float needs ``f8``, or ``obj`` once the column holds a
    ``|int| > 2**53``; such an int sets ``huge`` on an ``i8`` column and
    needs ``obj`` on an ``f8`` one.  The result depends on the order:
    ``[2**60, 1.5]`` ends ``obj`` with ``huge`` set, ``[1.5, 2**60]``
    ends ``obj`` without.
    """
    if kind == "obj":
        return kind, huge
    for value in values:
        if value is None:
            continue
        if isinstance(value, bool):
            return "obj", huge
        if isinstance(value, int):
            if -_EXACT_FLOAT_INT <= value <= _EXACT_FLOAT_INT:
                continue
            if kind == "f8" or not -_INT64_MAX <= value < _INT64_MAX:
                return "obj", huge
            huge = True
        elif isinstance(value, float):
            if kind == "i8":
                if huge:
                    return "obj", huge
                kind = "f8"
        else:
            return "obj", huge
    return kind, huge


class ColumnDictionary:
    """Shared value → dense-code map for one join equivalence class.

    Keyed by python equality, so ``1``, ``1.0`` and ``True`` share a code
    exactly like they share a hash bucket in the list backend.  Codes are
    never recycled — a value keeps its code for the store's lifetime, which
    is what makes codes stable across savepoint rollback replays.
    """

    __slots__ = ("codes", "next_code")

    def __init__(self) -> None:
        self.codes: dict[object, int] = {}
        self.next_code = 0

    def encode(self, value) -> int:
        """Code for *value*, assigning a fresh one on first sight."""
        if value is None:
            return _NULL_CODE
        if _is_nan(value):
            return _NAN_CODE
        code = self.codes.get(value)
        if code is None:
            code = self.next_code
            self.codes[value] = code
            self.next_code = code + 1
        return code

    def encode_all(self, values: Sequence) -> list[int]:
        """:meth:`encode` over *values* in order.

        Each distinct value is encoded once, in first-seen order (so the
        codes are those per-value calls would assign), and the cells then
        map through that one lookup table.
        """
        codes = {value: self.encode(value) for value in dict.fromkeys(values)}
        return list(map(codes.__getitem__, values))

    def probe(self, value) -> int:
        """Code for *value* without assigning (queries, not storage)."""
        if value is None:
            return _NULL_CODE
        if _is_nan(value):
            return _NAN_CODE
        return self.codes.get(value, _UNSEEN_CODE)


class CodeGroup:
    """CSR bucket index ``code → rows`` plus an append-only overlay.

    ``starts is None`` means stale: the next :meth:`ensure` rebuilds from
    the column.  Probes validate every returned row against the live bitmap
    and the current code array, so CSR entries outdated by updates or
    deletes are filtered, never wrong.  The overlay is a ``code → rows``
    map: the scalar probes read it directly, the numpy probes through
    :meth:`sorted_overlay`.
    """

    __slots__ = ("starts", "rows", "K", "overlay", "ov_size", "_ov_sorted", "_buckets")

    #: Overlay floor below which a rebuild is never triggered.
    OVERLAY_MIN = 4096

    def __init__(self) -> None:
        self.starts: np.ndarray | None = None
        self.rows: np.ndarray | None = None
        self.K = 0
        #: Rows coded since the last rebuild, by code, in coding order.
        self.overlay: dict[int, list[int]] = {}
        self.ov_size = 0
        self._ov_sorted: tuple[np.ndarray, np.ndarray] | None = None
        #: CSR buckets probed by the scalar path, as python lists.
        self._buckets: dict[int, list[int]] = {}

    def invalidate(self) -> None:
        self.starts = None
        self.rows = None
        self.K = 0
        self._clear_overlay()

    def _clear_overlay(self) -> None:
        self.overlay.clear()
        self.ov_size = 0
        self._ov_sorted = None
        self._buckets.clear()

    def add(self, code: int, row: int) -> None:
        """Record a newly coded live row (only meaningful once built)."""
        if self.starts is None or code < 0:
            return
        rows = self.overlay.get(code)
        if rows is None:
            self.overlay[code] = [row]
        else:
            rows.append(row)
        self.ov_size += 1
        self._ov_sorted = None

    def ensure(self, relation: "VectorRelation", column: "VectorColumn") -> None:
        """(Re)build the CSR if stale or the overlay outgrew its budget."""
        if self.starts is not None and self.ov_size <= max(
            self.OVERLAY_MIN, len(relation.row_of) // 8
        ):
            return
        n = relation.n
        codes = column.codes[:n]
        rows = np.nonzero(relation.live[:n] & (codes >= 0))[0]
        coded = codes[rows]
        K = column.dict_class.next_code
        counts = np.bincount(coded, minlength=K)
        self.starts = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64))
        )
        self.rows = rows[np.argsort(coded, kind="stable")]
        self.K = K
        self._clear_overlay()

    def bucket(self, code: int) -> list[int]:
        """The CSR rows of *code* (unvalidated) as a list, kept until the
        next rebuild; a code assigned since the rebuild has none."""
        rows = self._buckets.get(code)
        if rows is None:
            rows = []
            if code < self.K:
                rows = self.rows[self.starts[code] : self.starts[code + 1]].tolist()
            self._buckets[code] = rows
        return rows

    def sorted_overlay(self) -> tuple[np.ndarray, np.ndarray]:
        """The overlay as (codes, rows) arrays sorted by code."""
        if self._ov_sorted is None:
            overlay = self.overlay
            order = sorted(overlay)
            sizes = [len(overlay[code]) for code in order]
            codes = np.repeat(np.asarray(order, dtype=np.int64), sizes)
            rows = np.fromiter(
                chain.from_iterable(map(overlay.__getitem__, order)),
                dtype=np.int64,
                count=self.ov_size,
            )
            self._ov_sorted = (codes, rows)
        return self._ov_sorted


class VectorColumn:
    """One attribute's typed array + validity bitmap (+ codes when joined).

    *kind* walks the ladder ``i8 → f8 → obj``; promotion converts the
    stored prefix in place-of-reference (the array object is replaced, so
    kernels must fetch ``.data`` per run, never capture it).  ``huge``
    flags an ``i8`` column holding some ``|int| > 2**53`` — ordered or
    equality comparisons of such a column against floats fall back to
    python scalars to keep exact-integer semantics.

    ``py_values`` (and ``py_codes`` on a coded column) mirror the first
    ``n`` rows as python lists for the scalar delta path; they are only
    ever changed in place, because compiled list plans capture them.
    """

    __slots__ = (
        "kind",
        "data",
        "valid",
        "huge",
        "dict_class",
        "codes",
        "group",
        "py_values",
        "py_codes",
    )

    def __init__(self, capacity: int = 0, rows: int = 0) -> None:
        self.kind = "i8"
        self.data: np.ndarray = np.zeros(capacity, dtype=np.int64)
        self.valid: np.ndarray = np.zeros(capacity, dtype=bool)
        self.huge = False
        self.dict_class: ColumnDictionary | None = None
        self.codes: np.ndarray | None = None
        self.group: CodeGroup | None = None
        self.py_values: list = [None] * rows
        self.py_codes: list[int] | None = None

    def grow(self, capacity: int) -> None:
        self.data = _grow(self.data, capacity)
        self.valid = _grow(self.valid, capacity)
        if self.codes is not None:
            self.codes = _grow(self.codes, capacity, fill=_NULL_CODE)

    def set(self, row: int, value, fresh: bool = True) -> None:
        """Write one cell; *fresh* marks (re)added rows vs in-place updates.

        In-place updates skip the group overlay when the code is unchanged
        (the row's existing CSR/overlay coverage still routes it); revived
        rows always re-enter the overlay because a CSR rebuild while they
        were dead dropped their coverage.
        """
        kind, self.huge = _climb(self.kind, self.huge, (value,))
        if kind != self.kind:
            self._promote(kind)
        if value is None:
            self.valid[row] = False
            if kind == "obj":
                self.data[row] = None
            else:
                self.data[row] = 0
        else:
            self.valid[row] = True
            self.data[row] = value
        # Rows are allocated densely: a row past the mirror is the next one.
        mirror = self.py_values
        if row < len(mirror):
            mirror[row] = value
        else:
            mirror.append(value)
        if self.dict_class is not None:
            code = self.dict_class.encode(value)
            if fresh or self.codes[row] != code:
                self.codes[row] = code
                mirror = self.py_codes
                if row < len(mirror):
                    mirror[row] = code
                else:
                    mirror.append(code)
                if self.group is not None:
                    self.group.add(code, row)

    def load(self, values: list) -> None:
        """Fill rows ``0..len(values)-1`` of this empty, grown column at once.

        The final ``(kind, huge)`` is :func:`_climb` over the values in row
        order, exactly as one :meth:`set` per row would leave it; data and
        validity are then written in one step each, and *values* itself
        becomes the mirror.  Codes are the store's job: a join class
        spanning several columns encodes its cells in fact order, not
        column by column.
        """
        kind, huge = _climb("i8", False, values)
        count = len(values)
        if kind == "obj":
            self.data = np.empty(len(self.data), dtype=object)
            self.data[:count] = values
        else:
            if kind == "f8":
                self.data = np.zeros(len(self.data), dtype=np.float64)
            self.data[:count] = [0 if value is None else value for value in values]
        self.valid[:count] = [value is not None for value in values]
        self.kind = kind
        self.huge = huge
        self.py_values = values

    def _promote(self, kind: str) -> None:
        old, valid = self.data, self.valid
        if kind == "f8":
            self.data = old.astype(np.float64)
        elif self.kind == "f8":
            data = old.astype(object)
            data[~valid] = None
            self.data = data
        else:
            data = np.empty(len(old), dtype=object)
            for i in np.nonzero(valid)[0]:
                data[i] = int(old[i])
            self.data = data
        self.kind = kind

    def values_at(self, rows: np.ndarray) -> list:
        """Python values of *rows* (exact types, for the scalar fallback)."""
        if self.kind == "obj":
            return list(self.data[rows])
        data = self.data[rows]
        valid = self.valid[rows]
        if self.kind == "i8":
            return [int(v) if ok else None for v, ok in zip(data, valid)]
        return [float(v) if ok else None for v, ok in zip(data, valid)]


def _grow(array: np.ndarray, capacity: int, fill=None) -> np.ndarray:
    if array.dtype == object:
        grown = np.empty(capacity, dtype=object)
    elif fill is not None:
        grown = np.full(capacity, fill, dtype=array.dtype)
    else:
        grown = np.zeros(capacity, dtype=array.dtype)
    grown[: len(array)] = array
    return grown


class VectorRelation:
    """One relation's numpy image: ids + live bitmap + typed columns.

    ``py_ids`` mirrors the first ``n`` ids as a python list with ``None``
    in dead slots — the list store's id array — for the scalar delta path.
    """

    __slots__ = (
        "relation",
        "attributes",
        "n",
        "cap",
        "ids",
        "live",
        "py_ids",
        "row_of",
        "free",
        "columns",
    )

    def __init__(self, relation: str, attributes: Sequence[str]) -> None:
        self.relation = relation
        self.attributes = tuple(attributes)
        self.n = 0
        self.cap = 0
        self.ids = np.zeros(0, dtype=np.int64)
        self.live = np.zeros(0, dtype=bool)
        self.py_ids: list[int | None] = []
        self.row_of: dict[int, int] = {}
        self.free: list[int] = []
        self.columns: dict[str, VectorColumn] = {
            attribute: VectorColumn() for attribute in attributes
        }

    def __len__(self) -> int:
        return len(self.row_of)

    def live_rows(self) -> np.ndarray:
        return np.nonzero(self.live[: self.n])[0]

    def rows_for_ids(self, identifiers: Iterable[int]) -> list[int]:
        """Row indices of *identifiers*; absent identifiers are skipped."""
        row_of = self.row_of
        return [row_of[i] for i in identifiers if i in row_of]

    def grow(self, need: int) -> None:
        capacity = max(64, 2 * self.cap)
        while capacity < need:
            capacity *= 2
        self.ids = _grow(self.ids, capacity)
        self.live = _grow(self.live, capacity)
        for column in self.columns.values():
            column.grow(capacity)
        self.cap = capacity

class VectorColumnStore:
    """Numpy column store: same maintenance contract as ``ColumnStore``.

    Registration (pre-build) declares plain columns, grouped join keys and
    shared-dictionary equivalence classes; :meth:`build` populates from the
    database; :meth:`apply` maintains under the change feed with in-place
    updates, tombstoned deletes and live-fraction compaction.
    """

    backend = "numpy"

    COMPACT_MIN_SLOTS = 2048
    COMPACT_LIVE_FRACTION = 0.5

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._relations: dict[str, VectorRelation] = {}
        #: Every coded (relation, attribute) pair, for class re-pointing.
        self._coded: list[tuple[str, str]] = []
        self._positions: dict[str, list[tuple[str, int]]] = {}

    # ------------------------------------------------------------------
    # Registration (before build)
    # ------------------------------------------------------------------
    def register(self, relation: str, attributes: Iterable[str]) -> None:
        existing = self._relations.get(relation)
        if existing is None:
            signature = self.schema.signature(relation)
            wanted = set(attributes)
            ordered = [a for a in signature.attributes if a in wanted]
            self._relations[relation] = VectorRelation(relation, ordered)
            return
        missing = set(attributes) - set(existing.attributes)
        if missing:
            if len(existing):
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
                column = VectorColumn(existing.cap, existing.n)
                existing.columns[attribute] = column
            self._positions.pop(relation, None)

    def register_key(self, relation: str, attribute: str) -> None:
        """Maintain a grouped CSR bucket index for the column's codes."""
        self.register(relation, (attribute,))
        column = self._relations[relation].columns[attribute]
        self._ensure_coded(relation, attribute, column)
        if column.group is None:
            column.group = CodeGroup()

    def register_coded(self, pairs: Iterable[tuple[str, str]]) -> None:
        """Put *pairs* in one join equivalence class (shared dictionary).

        Classes merge transitively across calls (and across DCs sharing
        this store); all merging happens before :meth:`build`, while every
        dictionary is still empty.
        """
        resolved: list[VectorColumn] = []
        for relation, attribute in pairs:
            self.register(relation, (attribute,))
            column = self._relations[relation].columns[attribute]
            self._ensure_coded(relation, attribute, column)
            resolved.append(column)
        if len(resolved) < 2:
            return
        target = resolved[0].dict_class
        for column in resolved[1:]:
            source = column.dict_class
            if source is target:
                continue
            if source.codes or target.codes:
                raise RuntimeError(
                    "join-class registration after the store was built"
                )
            for rel_name, attr_name in self._coded:
                other = self._relations[rel_name].columns[attr_name]
                if other.dict_class is source:
                    other.dict_class = target

    def _ensure_coded(
        self, relation: str, attribute: str, column: VectorColumn
    ) -> None:
        if column.dict_class is not None:
            return
        table = self._relations[relation]
        column.dict_class = ColumnDictionary()
        column.codes = np.full(table.cap, _NULL_CODE, dtype=np.int64)
        column.py_codes = [_NULL_CODE] * table.n
        self._coded.append((relation, attribute))

    # ------------------------------------------------------------------
    # Build + maintenance
    # ------------------------------------------------------------------
    def build(self, database: Database) -> None:
        """Load the registered relations from *database* (cold start).

        One pass gathers each relation's ids and value columns in fact-id
        order; one ``grow`` sizes the relation as per-fact appends would;
        each column loads whole (:meth:`VectorColumn.load`) and each join
        class encodes in one dictionary pass, with the first-seen codes a
        per-fact load would assign.  CSR groups stay stale until the first
        probe builds them.
        """
        classes: dict[ColumnDictionary, list] = {}
        for name, (ids, rows) in gather_rows(database, self._relations).items():
            relation = self._relations[name]
            count = len(ids)
            if count:
                relation.grow(count)
            relation.n = count
            relation.ids[:count] = ids
            relation.py_ids = ids
            relation.live[:count] = True
            relation.row_of.update(zip(ids, range(count)))
            for attribute, position in self._positions_for(relation):
                column = relation.columns[attribute]
                values = list(map(itemgetter(position), rows))
                column.load(values)
                if column.dict_class is not None:
                    classes.setdefault(column.dict_class, []).append(
                        (ids, position, column, values)
                    )
        for dictionary, members in classes.items():
            if len(members) > 1:
                # Fix the class's first-seen order across its columns:
                # (fact id, attribute position), as per-fact loading goes.
                cells = heapq.merge(
                    *(
                        zip(ids, repeat(position), values)
                        for ids, position, _, values in members
                    )
                )
                dictionary.encode_all([value for _, _, value in cells])
            for _, _, column, values in members:
                column.py_codes = dictionary.encode_all(values)
                column.codes[: len(values)] = column.py_codes

    def apply(self, event: ChangeEvent) -> None:
        old, new = event.old, event.new
        if (
            old is not None
            and new is not None
            and old.relation == new.relation
            and old.relation in self._relations
        ):
            relation = self._relations[old.relation]
            row = relation.row_of.get(event.identifier)
            if row is not None:
                self._update(relation, row, new)
                return
        if old is not None and old.relation in self._relations:
            self._remove(event.identifier, old)
            self._maybe_compact(self._relations[old.relation])
        if new is not None and new.relation in self._relations:
            self._add(event.identifier, new)

    # ------------------------------------------------------------------
    # Read surface
    # ------------------------------------------------------------------
    def relation(self, relation: str) -> VectorRelation:
        return self._relations[relation]

    def column(self, relation: str, attribute: str) -> VectorColumn:
        return self._relations[relation].columns[attribute]

    def ids(self, relation: str) -> np.ndarray:
        return self._relations[relation].ids

    def live_count(self, relation: str) -> int:
        table = self._relations.get(relation)
        return len(table) if table is not None else 0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _positions_for(self, relation: VectorRelation) -> list[tuple[str, int]]:
        positions = self._positions.get(relation.relation)
        if positions is None or len(positions) != len(relation.attributes):
            signature = self.schema.signature(relation.relation)
            positions = [
                (attribute, signature.index_of(attribute))
                for attribute in relation.attributes
            ]
            self._positions[relation.relation] = positions
        return positions

    def _add(self, identifier: int, fact: Fact) -> None:
        relation = self._relations[fact.relation]
        positions = self._positions_for(relation)
        values = fact.values
        if relation.free:
            row = relation.free.pop()
            relation.py_ids[row] = identifier
        else:
            if relation.n == relation.cap:
                relation.grow(relation.n + 1)
            row = relation.n
            relation.n += 1
            relation.py_ids.append(identifier)
        relation.ids[row] = identifier
        relation.live[row] = True
        relation.row_of[identifier] = row
        columns = relation.columns
        for attribute, position in positions:
            columns[attribute].set(row, values[position], fresh=True)

    def _update(self, relation: VectorRelation, row: int, new: Fact) -> None:
        positions = self._positions_for(relation)
        values = new.values
        columns = relation.columns
        for attribute, position in positions:
            columns[attribute].set(row, values[position], fresh=False)

    def _remove(self, identifier: int, fact: Fact) -> None:
        relation = self._relations[fact.relation]
        row = relation.row_of.pop(identifier, None)
        if row is None:
            return
        relation.live[row] = False
        relation.py_ids[row] = None
        relation.free.append(row)

    def _maybe_compact(self, relation: VectorRelation) -> None:
        total = relation.n
        if total < self.COMPACT_MIN_SLOTS:
            return
        if len(relation.row_of) >= total * self.COMPACT_LIVE_FRACTION:
            return
        self._compact(relation)

    def _compact(self, relation: VectorRelation) -> None:
        """Drop dead slots, renumbering rows densely.

        Compiled vector plans capture relation/column **objects** and fetch
        arrays per run, so reassigning the arrays is safe; the mirrors are
        rewritten in place, because compiled list plans capture them.  The
        CSR group indexes are invalidated and lazily rebuilt on the next
        probe.
        """
        live_idx = np.nonzero(relation.live[: relation.n])[0]
        count = len(live_idx)
        keep = live_idx.tolist()
        relation.ids[:count] = relation.ids[live_idx]
        relation.py_ids[:] = [relation.py_ids[row] for row in keep]
        relation.live[:count] = True
        relation.live[count : relation.n] = False
        for column in relation.columns.values():
            column.data[:count] = column.data[live_idx]
            column.valid[:count] = column.valid[live_idx]
            column.py_values[:] = [column.py_values[row] for row in keep]
            if column.codes is not None:
                column.codes[:count] = column.codes[live_idx]
                column.py_codes[:] = [column.py_codes[row] for row in keep]
            if column.group is not None:
                column.group.invalidate()
        relation.n = count
        relation.free.clear()
        relation.row_of = dict(zip(relation.ids[:count].tolist(), range(count)))

# Imported late on purpose: enumeration.py never imports this module at its
# top level (the batch enumerator dispatches here lazily), so this is safe
# and keeps the scalar kernels and the plan types in one place.
from .enumeration import (  # noqa: E402
    _COMPARE,
    BatchPlan,
    EnumerationStats,
    PinPlan,
    Witnesses,
    _compile_list_plan,
)

_NP_OP = {
    ComparisonOp.EQ: np.equal,
    ComparisonOp.NE: np.not_equal,
    ComparisonOp.LT: np.less,
    ComparisonOp.LE: np.less_equal,
    ComparisonOp.GT: np.greater,
    ComparisonOp.GE: np.greater_equal,
}

#: ``const OP col`` rewritten as ``col FLIP(OP) const``.
_FLIP = {
    ComparisonOp.EQ: ComparisonOp.EQ,
    ComparisonOp.NE: ComparisonOp.NE,
    ComparisonOp.LT: ComparisonOp.GT,
    ComparisonOp.LE: ComparisonOp.GE,
    ComparisonOp.GT: ComparisonOp.LT,
    ComparisonOp.GE: ComparisonOp.LE,
}

_EQ_NE = (ComparisonOp.EQ, ComparisonOp.NE)

#: Most (candidate, row) pairs a join step expands at once.  A cross step
#: sizes its blocks from the new side's live row count, a hash step from
#: its candidates' bucket sizes, so a step's working set stays bounded
#: whatever the relation sizes or key skew.
CROSS_PAIR_BUDGET = 1 << 18

#: Most dirty rows a delta call seeds on the scalar path (the list kernels
#: over the store's mirrors); larger batches run the numpy kernels, whose
#: per-call floor they amortize.  The crossover sweep of
#: ``benchmarks/bench_vectorized_columns.py`` (``BENCH_vectorized.json``)
#: measures it: on 100k-fact Tax and Hospital stores the scalar kernels
#: win through k = 16 dirty rows and lose from k = 64 on.
SCALAR_DELTA_ROWS = 16


def _huge_mismatch(col_a, col_b) -> bool:
    """True when int64 values could lose exactness against float64."""
    return (col_a.kind == "i8" and col_a.huge and col_b.kind == "f8") or (
        col_b.kind == "i8" and col_b.huge and col_a.kind == "f8"
    )


def _typed_const_ok(col, value) -> bool:
    """Whether a numpy comparison of *col* against *value* is exact."""
    if value is None or isinstance(value, bool):
        return False
    if isinstance(value, int):
        if col.kind == "i8":
            return -_INT64_MAX <= value < _INT64_MAX
        return -_EXACT_FLOAT_INT <= value <= _EXACT_FLOAT_INT
    if isinstance(value, float):
        return col.kind == "f8" or not col.huge
    return False


def _fallback_const(col, rows, op, value) -> np.ndarray:
    compare = _COMPARE[op]
    return np.fromiter(
        (compare(v, value) for v in col.values_at(rows)),
        dtype=bool,
        count=len(rows),
    )


def _mask_const(col, rows: np.ndarray, op: ComparisonOp, value) -> np.ndarray:
    """Boolean mask of ``col[rows] OP value`` with the scalar kernels' semantics."""
    count = len(rows)
    if count == 0:
        return np.zeros(0, dtype=bool)
    if value is None:
        return np.zeros(count, dtype=bool)
    if op in _EQ_NE and col.dict_class is not None:
        code = col.dict_class.probe(value)
        codes = col.codes[rows]
        if op is ComparisonOp.EQ:
            if code < 0:
                return np.zeros(count, dtype=bool)
            return codes == code
        if code == _NULL_CODE:
            return np.zeros(count, dtype=bool)
        if code < 0:  # NaN or unseen constant: != everything non-null
            return codes != _NULL_CODE
        return (codes != _NULL_CODE) & ((codes != code) | (codes == _NAN_CODE))
    if col.kind in ("i8", "f8"):
        if _typed_const_ok(col, value):
            mask = col.valid[rows] & _NP_OP[op](col.data[rows], value)
            return mask
        if not isinstance(value, (int, float)):
            # Non-numeric constant vs numeric column: only NE can hold.
            if op is ComparisonOp.NE:
                return col.valid[rows].copy()
            return np.zeros(count, dtype=bool)
        return _fallback_const(col, rows, op, value)
    return _fallback_const(col, rows, op, value)


def _mask_pair(
    col_a, rows_a: np.ndarray, col_b, rows_b: np.ndarray, op: ComparisonOp
) -> np.ndarray:
    """Boolean mask of ``col_a[rows_a] OP col_b[rows_b]`` (aligned arrays)."""
    count = len(rows_a)
    if count == 0:
        return np.zeros(0, dtype=bool)
    if (
        op in _EQ_NE
        and col_a.dict_class is not None
        and col_a.dict_class is col_b.dict_class
    ):
        a = col_a.codes[rows_a]
        b = col_b.codes[rows_b]
        if op is ComparisonOp.EQ:
            return (a >= 0) & (a == b)
        return (
            (a != _NULL_CODE)
            & (b != _NULL_CODE)
            & ((a != b) | (a == _NAN_CODE))
        )
    if (
        col_a.kind in ("i8", "f8")
        and col_b.kind in ("i8", "f8")
        and not _huge_mismatch(col_a, col_b)
    ):
        mask = col_a.valid[rows_a] & col_b.valid[rows_b]
        mask &= _NP_OP[op](col_a.data[rows_a], col_b.data[rows_b])
        return mask
    compare = _COMPARE[op]
    values_a = col_a.values_at(rows_a)
    values_b = col_b.values_at(rows_b)
    return np.fromiter(
        (compare(x, y) for x, y in zip(values_a, values_b)),
        dtype=bool,
        count=count,
    )


def _bucket_spans(
    group: CodeGroup, bc: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each probe code's ``(rows, starts, counts)`` bucket span: in the CSR,
    then (when it holds anything) in the sorted overlay.

    CSR segments cover rows coded before the last rebuild; the overlay
    covers everything since.
    """
    starts = group.starts
    in_csr = (bc >= 0) & (bc < group.K)
    if in_csr.any():
        clipped = np.where(in_csr, bc, 0)
        lo = starts[clipped]
        cnt = np.where(in_csr, starts[clipped + 1] - lo, 0)
    else:
        lo = cnt = np.zeros(len(bc), dtype=np.int64)
    spans = [(group.rows, lo, cnt)]
    if group.overlay:
        ov_codes, ov_rows = group.sorted_overlay()
        probe = np.maximum(bc, 0)
        left = np.searchsorted(ov_codes, probe, side="left")
        right = np.searchsorted(ov_codes, probe, side="right")
        spans.append((ov_rows, left, np.where(bc >= 0, right - left, 0)))
    return spans


def _probe_group(
    relation: VectorRelation, column: VectorColumn, bc: np.ndarray, spans: list
) -> tuple[np.ndarray, np.ndarray]:
    """Expand a grouped hash probe: build codes → (parent index, new rows).

    *spans* are :func:`_bucket_spans` of *bc*.  Both halves validate
    against the live bitmap and the current codes, so stale entries drop
    out; overlap between the halves (a revived slot) is removed by the
    final key de-duplication.
    """
    live = relation.live
    codes = column.codes
    parent_parts: list[np.ndarray] = []
    row_parts: list[np.ndarray] = []
    overlay_used = False
    for half, (source, lo, cnt) in enumerate(spans):
        total = int(cnt.sum())
        if not total:
            continue
        if half:
            overlay_used = True
        parent = np.repeat(np.arange(len(bc), dtype=np.int64), cnt)
        offsets = np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(cnt, dtype=np.int64))
        )
        idx = np.arange(total, dtype=np.int64) + np.repeat(lo - offsets[:-1], cnt)
        rows = source[idx]
        keep = live[rows] & (codes[rows] == bc[parent])
        parent_parts.append(parent[keep])
        row_parts.append(rows[keep])
    if not parent_parts:
        return _NO_ROWS, _NO_ROWS
    parent = np.concatenate(parent_parts)
    rows = np.concatenate(row_parts)
    if overlay_used and len(parent):
        # A slot revived after the last rebuild can appear in both halves
        # (and twice in the overlay); collapse exact (parent, row) repeats.
        key = (parent << 32) | rows
        key = np.unique(key)
        parent = key >> 32
        rows = key & 0xFFFFFFFF
    return parent, rows


def _blocks(sizes: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive ``(start, stop)`` ranges of candidates with *sizes*
    pairs each: every range expands to at most :data:`CROSS_PAIR_BUDGET`
    pairs, or holds one candidate that alone exceeds it.
    """
    count = len(sizes)
    ends = np.cumsum(sizes)
    if not count or ends[-1] <= CROSS_PAIR_BUDGET:
        return [(0, count)]
    blocks = []
    start = 0
    while start < count:
        limit = (ends[start - 1] if start else 0) + CROSS_PAIR_BUDGET
        stop = max(start + 1, int(np.searchsorted(ends, limit, side="right")))
        blocks.append((start, stop))
        start = stop
    return blocks


def _joined(parts: list[list[np.ndarray]], batch: list[np.ndarray]) -> list[np.ndarray]:
    """One batch from a blocked step's surviving blocks."""
    if not parts:
        return [existing[:0] for existing in batch] + [_NO_ROWS]
    if len(parts) == 1:
        return parts[0]
    return [np.concatenate(column) for column in zip(*parts)]

# ----------------------------------------------------------------------
# Compiled vectorized plans
# ----------------------------------------------------------------------
class VectorBatchPlan:
    """One DC compiled for one seed variable, as mask-combinator kernels.

    The batch is a list of parallel ``int64`` row arrays, one per slot.
    ``run`` mirrors the list backend's ``BatchPlan.run`` contract — seed
    rows in, witness fact-id sets out — but every step is a numpy kernel;
    the only python-level loop is over plan steps.
    """

    __slots__ = (
        "seed_relation",
        "seed_filters",
        "joins",
        "final_filters",
        "slot_relations",
        "width",
        "_source",
        "_scalar",
    )

    def __init__(
        self,
        seed_relation: str,
        seed_filters: list,
        joins: list,
        final_filters: list,
        slot_relations: list[VectorRelation],
        source: tuple[DenialConstraint, PinPlan, "VectorColumnStore"],
    ) -> None:
        self.seed_relation = seed_relation
        self.seed_filters = seed_filters
        self.joins = joins
        self.final_filters = final_filters
        self.slot_relations = slot_relations
        self.width = len(slot_relations)
        self._source = source
        self._scalar: BatchPlan | None = None

    @property
    def scalar(self) -> BatchPlan:
        """The same pin plan as list kernels over the store's mirrors
        (:class:`ScalarView`), compiled on first use."""
        if self._scalar is None:
            dc, plan, store = self._source
            self._scalar = _compile_list_plan(dc, plan, ScalarView(store))
        return self._scalar

    @staticmethod
    def _apply(batch: list[np.ndarray], filters) -> list[np.ndarray]:
        for compiled in filters:
            if not len(batch[0]):
                return batch
            mask = compiled(batch)
            if mask is True:
                continue
            batch = [rows[mask] for rows in batch]
        return batch

    def run(self, seed_rows, stats: EnumerationStats) -> Witnesses:
        batch = self._survivors(seed_rows, stats)
        if batch is None:
            return set()
        return self._emit(batch)

    def _survivors(
        self, seed_rows, stats: EnumerationStats
    ) -> list[np.ndarray] | None:
        """The surviving candidate batch (row arrays), or None when empty."""
        batch = [np.asarray(seed_rows, dtype=np.int64)]
        stats.rows_scanned += len(batch[0])
        batch = self._apply(batch, self.seed_filters)
        if not len(batch[0]):
            return None
        for join in self.joins:
            batch = join(batch)
            stats.batches_joined += 1
            stats.rows_scanned += len(batch[0])
            if not len(batch[0]):
                return None
        batch = self._apply(batch, self.final_filters)
        if not len(batch[0]):
            return None
        return batch

    def _emit(self, batch: list[np.ndarray]) -> Witnesses:
        # Decode only the surviving rows (identifiers come back as python
        # ints via tolist, so witness sets stay numpy-free downstream).
        id_lists = [
            relation.ids[rows].tolist()
            for relation, rows in zip(self.slot_relations, batch)
        ]
        if self.width == 1:
            return {frozenset((identifier,)) for identifier in id_lists[0]}
        if self.width == 2:
            return set(map(frozenset, zip(id_lists[0], id_lists[1])))
        return set(map(frozenset, zip(*id_lists)))


def delta_union(
    plan_rows: list[tuple[VectorBatchPlan, "np.ndarray"]],
    stats: EnumerationStats,
) -> Witnesses:
    """Union the per-pin delta runs, deduplicating *before* emission.

    Plans pinned on different variables of one DC re-find the same witness
    from each dirty member, so a naive per-plan ``run`` pays the python
    frozenset construction once per pin.  Width-2 survivors (the dominant
    DC shape) are instead packed as ``min_id << 32 | max_id`` int64 codes,
    deduplicated across all plans with one ``np.unique``, and decoded to
    frozensets once.  Wider (or huge-identifier) plans fall back to the
    plain per-plan emission — the union is identical either way.
    """
    found: Witnesses = set()
    packed_parts: list[np.ndarray] = []
    for plan, rows in plan_rows:
        batch = plan._survivors(rows, stats)
        if batch is None:
            continue
        if plan.width == 2:
            left = plan.slot_relations[0].ids[batch[0]]
            right = plan.slot_relations[1].ids[batch[1]]
            lo = np.minimum(left, right)
            hi = np.maximum(left, right)
            if not len(hi) or (int(hi.max()) < 2**31 and int(lo.min()) >= 0):
                packed_parts.append((lo << np.int64(32)) | hi)
                continue
        found |= plan._emit(batch)
    if packed_parts:
        packed = np.unique(
            np.concatenate(packed_parts)
            if len(packed_parts) > 1
            else packed_parts[0]
        )
        low = (packed & np.int64(0xFFFFFFFF)).tolist()
        high = (packed >> np.int64(32)).tolist()
        found |= set(map(frozenset, zip(high, low)))
    return found


# ----------------------------------------------------------------------
# The scalar delta path: list kernels over the mirrors
# ----------------------------------------------------------------------
class _MirrorTable:
    """What the list cross step reads of a relation: its id array."""

    __slots__ = ("ids",)

    def __init__(self, ids: list) -> None:
        self.ids = ids


class _ScalarGroup:
    """A key column's CSR buckets and overlay as a ``value → rows`` map.

    ``get`` returns nothing for a value whose code is below 0 (NULL, NaN
    or never stored), the rule of ``columnar._joinable``, and keeps a
    candidate row only while it is live and still carries the probe code,
    as :func:`_probe_group` validates.  The result is a set, so a
    multi-key join can intersect buckets.
    """

    __slots__ = ("relation", "column")

    def __init__(self, relation: VectorRelation, column: VectorColumn) -> None:
        self.relation = relation
        self.column = column

    def get(self, value) -> set[int]:
        column = self.column
        code = column.dict_class.probe(value)
        if code < 0:
            return set()
        relation = self.relation
        group = column.group
        group.ensure(relation, column)
        ids = relation.py_ids
        codes = column.py_codes
        found = {
            row
            for row in group.bucket(code)
            if ids[row] is not None and codes[row] == code
        }
        extra = group.overlay.get(code)
        if extra:
            found.update(
                row for row in extra if ids[row] is not None and codes[row] == code
            )
        return found


class ScalarView:
    """The store surface :func:`_compile_list_plan` reads, over the numpy
    store's python mirrors: ``column``, ``ids``, ``group``, ``relation``."""

    __slots__ = ("store",)

    def __init__(self, store: VectorColumnStore) -> None:
        self.store = store

    def column(self, relation: str, attribute: str) -> list:
        return self.store.column(relation, attribute).py_values

    def ids(self, relation: str) -> list[int | None]:
        return self.store.relation(relation).py_ids

    def group(self, relation: str, attribute: str) -> _ScalarGroup:
        return _ScalarGroup(
            self.store.relation(relation), self.store.column(relation, attribute)
        )

    def relation(self, relation: str) -> _MirrorTable:
        return _MirrorTable(self.store.relation(relation).py_ids)


def compile_vector_plan(
    dc: DenialConstraint, plan: PinPlan, store: VectorColumnStore
) -> VectorBatchPlan:
    """*plan* as mask kernels over *store*.

    A hash step probes its first key's CSR buckets and applies the other
    keys (as equalities), then its pre-filters and residual, as masks over
    the expanded batch.  A cross step pre-filters the new side's rows by its
    pre-filters and masks every expanded block by its residual.
    """
    slot_of = {variable: slot for slot, variable in enumerate(plan.order)}

    def column(term: Term) -> VectorColumn:
        return store.column(dc.relation_of(term.variable), term.attribute)

    def operand(term: Term):
        """``(column object, slot, const)`` for a term."""
        if term.is_constant:
            return None, None, term.constant
        return column(term), slot_of[term.variable], None

    def row_operand(term: Term):
        """``operand`` for a pre-filter over the new side's raw rows."""
        col, _, const = operand(term)
        return col, 0, const

    joins = []
    for step in plan.steps:
        relation = store.relation(dc.relation_of(step.variable))
        if step.keys:
            (bound, new), *extra = step.keys
            checks = tuple(Predicate(b, ComparisonOp.EQ, n) for b, n in extra)
            filters = checks + step.pre_filters + step.residual
            joins.append(
                _hash_join(
                    relation,
                    column(bound),
                    slot_of[bound.variable],
                    column(new),
                    [_batch_mask(p, operand) for p in filters],
                )
            )
        else:
            joins.append(
                _cross_join(
                    relation,
                    [_batch_mask(p, row_operand) for p in step.pre_filters],
                    [_batch_mask(p, operand) for p in step.residual],
                )
            )
    return VectorBatchPlan(
        seed_relation=dc.relation_of(plan.seed),
        seed_filters=[_batch_mask(p, operand) for p in plan.seed_filters],
        joins=joins,
        final_filters=[_batch_mask(p, operand) for p in plan.final],
        slot_relations=[
            store.relation(dc.relation_of(variable)) for variable in plan.order
        ],
        source=(dc, plan, store),
    )


def _hash_join(
    relation: VectorRelation,
    build: VectorColumn,
    slot: int,
    probe: VectorColumn,
    filters: list,
):
    """A grouped hash join: the *build* column's codes at *slot* probe the
    CSR buckets of the new side's *probe* column; *filters* then mask the
    expanded batch.

    The batch expands in blocks of at most :data:`CROSS_PAIR_BUDGET`
    pairs (at least one candidate each), each masked before its survivors
    are kept, so a skewed key never holds its unfiltered pairs at once.
    """

    def join(
        batch,
        relation=relation,
        build=build,
        slot=slot,
        probe=probe,
        filters=tuple(filters),
    ):
        build_codes = build.codes[batch[slot]]
        group = probe.group
        group.ensure(relation, probe)
        spans = _bucket_spans(group, build_codes)
        parts = []
        for start, stop in _blocks(sum(cnt for _, _, cnt in spans)):
            parent, new_rows = _probe_group(
                relation,
                probe,
                build_codes[start:stop],
                [(rows, lo[start:stop], cnt[start:stop]) for rows, lo, cnt in spans],
            )
            out = [rows[start:stop][parent] for rows in batch]
            out.append(new_rows)
            out = VectorBatchPlan._apply(out, filters)
            if len(out[0]):
                parts.append(out)
        return _joined(parts, batch)

    return join


def _cross_join(relation: VectorRelation, predicates: list, filters: list):
    """A keyless step: the filtered cross product of the batch and the
    new side's live rows.

    The new side is pre-filtered by *predicates* (masks over a one-slot
    batch of its rows); the batch then expands in blocks of at most
    :data:`CROSS_PAIR_BUDGET` pairs (at least one candidate each), and the
    step's residual *filters* mask every block before its survivors are
    kept — the unfiltered product is never held at once.
    """

    def join(batch, relation=relation, predicates=tuple(predicates)):
        rows = relation.live_rows()
        for predicate in predicates:
            if not len(rows):
                break
            mask = predicate((rows,))
            if mask is True:
                continue
            rows = rows[mask]
        count_rows = len(rows)
        parts = []
        if count_rows:
            per_block = max(1, CROSS_PAIR_BUDGET // count_rows)
            for start in range(0, len(batch[0]), per_block):
                block = [existing[start : start + per_block] for existing in batch]
                count = len(block[0])
                parent = np.repeat(np.arange(count, dtype=np.int64), count_rows)
                out = [existing[parent] for existing in block]
                out.append(np.tile(rows, count))
                out = VectorBatchPlan._apply(out, filters)
                if len(out[0]):
                    parts.append(out)
        return _joined(parts, batch)

    return join


def _batch_mask(predicate: Predicate, operand):
    """A predicate as a mask over candidate batches (True = all pass)."""
    op = predicate.op
    left_col, left_slot, left_val = operand(predicate.left)
    right_col, right_slot, right_val = operand(predicate.right)
    if left_col is None and right_col is None:
        if _COMPARE[op](left_val, right_val):
            return lambda batch: True
        return lambda batch: np.zeros(len(batch[0]), dtype=bool)
    if right_col is None:
        return lambda batch, c=left_col, s=left_slot, o=op, v=right_val: (
            _mask_const(c, batch[s], o, v)
        )
    if left_col is None:
        return lambda batch, c=right_col, s=right_slot, o=_FLIP[op], v=left_val: (
            _mask_const(c, batch[s], o, v)
        )
    return lambda batch, a=left_col, i=left_slot, b=right_col, j=right_slot, o=op: (
        _mask_pair(a, batch[i], b, batch[j], o)
    )
