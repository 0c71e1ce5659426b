"""Numpy-backed column store + vectorized batch-join kernels.

This is the ``"numpy"`` backend behind
:func:`repro.session.columnar.make_column_store` (the ``repro[vector]``
extra).  :class:`VectorColumnStore` owns a plain
:class:`~repro.session.columnar.ColumnStore` (``store.lists``), maintained
by the list store's own ``build`` and ``apply``: it decides every row
number (slot reuse, tombstones, live-fraction compaction) and holds the
facts' own values.  Next to it, each relation is encoded as contiguous
numpy arrays that follow those row numbers:

* an ``int64`` identifier array plus a **tombstone bitmap** (``live``),
  grown geometrically;
* per-attribute typed arrays on a dtype ladder ``int64 → float64 →
  object`` with a parallel validity bitmap (``None`` = SQL NULL), promoted
  at runtime when a value does not fit the current kind;
* **dictionary-encoded join keys**: every column that some DC compares for
  (in)equality carries a parallel ``int64`` code array, where one shared
  :class:`ColumnDictionary` per join equivalence class maps value → dense
  code (``-1`` = NULL, ``-2`` = float NaN).  Equal values get equal codes
  across every column of the class, so EQ/NE evaluate on codes alone.

The cold :meth:`VectorColumnStore.build` loads the list store, then each
relation's arrays in one pass: one ``grow`` per relation, each column's
final kind from :func:`_climb` over its list, then one array write for its
data and validity and one dictionary pass for its codes (a join class
spanning several columns takes its first-seen codes in fact order, as
per-event loading assigns them).  :meth:`VectorColumnStore.apply` lets the
list store apply each event, then writes the rows it touched through
:meth:`VectorColumn.set`, on the same ladder.

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
against floats); they read the list store's values, keeping results
bit-identical to the list backend.

Those kernels pay a fixed numpy floor per call, which a delta seeded by a
few dirty rows never amortizes.  A delta seeding at most
:data:`SCALAR_DELTA_ROWS` rows therefore takes the **scalar delta path**:
the unchanged ``enumeration._compile_list_plan`` compiles the same pin
plan over the owned list store.  Its ``value → rows`` groups are not built
with the store: a key column is indexed, in one pass, when the first
scalar plan that probes it compiles, so a one-shot detection builds none.
"""

from __future__ import annotations

import heapq
from itertools import chain, repeat
from typing import Iterable, Sequence

import numpy as np

from ..constraints.base import ComparisonOp
from ..constraints.dc import DenialConstraint, Predicate, Term
from ..relational.database import ChangeEvent, Database
from ..relational.schema import Schema
from .columnar import ColumnStore, RelationColumns

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
    map, probed through :meth:`sorted_overlay`.
    """

    __slots__ = ("starts", "rows", "K", "overlay", "ov_size", "_ov_sorted")

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

    def invalidate(self) -> None:
        self.starts = None
        self.rows = None
        self.K = 0
        self._clear_overlay()

    def _clear_overlay(self) -> None:
        self.overlay.clear()
        self.ov_size = 0
        self._ov_sorted = None

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
            self.OVERLAY_MIN, len(relation) // 8
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

    ``values`` is the owned list store's column of the same attribute:
    the facts' own values, row for row, which the arrays encode.
    """

    __slots__ = (
        "kind",
        "data",
        "valid",
        "huge",
        "dict_class",
        "codes",
        "group",
        "values",
    )

    def __init__(self, values: list, capacity: int = 0) -> None:
        self.kind = "i8"
        self.data: np.ndarray = np.zeros(capacity, dtype=np.int64)
        self.valid: np.ndarray = np.zeros(capacity, dtype=bool)
        self.huge = False
        self.dict_class: ColumnDictionary | None = None
        self.codes: np.ndarray | None = None
        self.group: CodeGroup | None = None
        self.values = values

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
        if self.dict_class is not None:
            code = self.dict_class.encode(value)
            if fresh or self.codes[row] != code:
                self.codes[row] = code
                if self.group is not None:
                    self.group.add(code, row)

    def load(self) -> None:
        """Fill this empty, grown column from all of :attr:`values` at once.

        The final ``(kind, huge)`` is :func:`_climb` over the values in row
        order, exactly as one :meth:`set` per row would leave it; data and
        validity are then written in one step each.  Codes are the store's
        job: a join class spanning several columns encodes its cells in
        fact order, not column by column.
        """
        values = self.values
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
        """Python values of *rows*, read from :attr:`values` (exact types,
        for the scalar fallback)."""
        values = self.values
        return [values[row] for row in rows.tolist()]


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

    Row ``r`` of every array is row ``r`` of *table*, the owned list
    store's image of the relation; ``n`` is the number of rows written.
    """

    __slots__ = ("table", "n", "cap", "ids", "live", "columns")

    def __init__(self, table: RelationColumns) -> None:
        self.table = table
        self.n = 0
        self.cap = 0
        self.ids = np.zeros(0, dtype=np.int64)
        self.live = np.zeros(0, dtype=bool)
        self.columns: dict[str, VectorColumn] = {}

    def __len__(self) -> int:
        return len(self.table)

    def live_rows(self) -> np.ndarray:
        return np.nonzero(self.live[: self.n])[0]

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
    """Numpy column store over an owned list store (:attr:`lists`).

    Registration (pre-build) declares plain columns, grouped join keys and
    shared-dictionary equivalence classes; :meth:`build` populates from the
    database; :meth:`apply` maintains under the change feed.  The list
    store decides every row number — in-place updates, tombstoned deletes,
    slot reuse and live-fraction compaction — and the arrays follow it.
    Its key groups are not registered here: the scalar delta plans index
    the columns they probe when they compile.
    """

    backend = "numpy"

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        #: The list store whose rows the arrays encode.
        self.lists = ColumnStore(schema)
        self._relations: dict[str, VectorRelation] = {}
        #: Every coded (relation, attribute) pair, for class re-pointing.
        self._coded: list[tuple[str, str]] = []

    # ------------------------------------------------------------------
    # Registration (before build)
    # ------------------------------------------------------------------
    def register(self, relation: str, attributes: Iterable[str]) -> None:
        self.lists.register(relation, attributes)
        table = self.lists.relation(relation)
        vector = self._relations.get(relation)
        if vector is None:
            vector = self._relations[relation] = VectorRelation(table)
        columns = vector.columns
        if len(columns) < len(table.attributes):
            for attribute in table.attributes:
                if attribute not in columns:
                    columns[attribute] = VectorColumn(
                        table.columns[attribute], vector.cap
                    )

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
        column.dict_class = ColumnDictionary()
        column.codes = np.full(
            self._relations[relation].cap, _NULL_CODE, dtype=np.int64
        )
        self._coded.append((relation, attribute))

    # ------------------------------------------------------------------
    # Build + maintenance
    # ------------------------------------------------------------------
    def build(self, database: Database) -> None:
        """Load the registered relations from *database* (cold start).

        The list store loads first (one pass over the database, by
        column); then one ``grow`` per relation sizes the arrays as
        per-fact appends would, each column loads whole from its list
        (:meth:`VectorColumn.load`) and each join class encodes in one
        dictionary pass, with the first-seen codes a per-fact load would
        assign.  CSR groups stay stale until the first probe builds them.
        """
        self.lists.build(database)
        classes: dict[ColumnDictionary, list] = {}
        for relation in self._relations.values():
            table = relation.table
            ids = table.ids
            count = len(ids)
            if count:
                relation.grow(count)
            relation.n = count
            relation.ids[:count] = ids
            relation.live[:count] = True
            for position, attribute in enumerate(table.attributes):
                column = relation.columns[attribute]
                column.load()
                if column.dict_class is not None:
                    classes.setdefault(column.dict_class, []).append(
                        (ids, position, column)
                    )
        for dictionary, members in classes.items():
            if len(members) > 1:
                # Fix the class's first-seen order across its columns:
                # (fact id, attribute position), as per-fact loading goes.
                cells = heapq.merge(
                    *(
                        zip(ids, repeat(position), column.values)
                        for ids, position, column in members
                    )
                )
                dictionary.encode_all([value for _, _, value in cells])
            for _, _, column in members:
                column.codes[: len(column.values)] = dictionary.encode_all(
                    column.values
                )

    def apply(self, event: ChangeEvent) -> None:
        """Maintain the store after one committed database mutation.

        The list store applies the event first; the arrays then follow the
        rows it touched: the updated row in place, or the removed row (and
        a compaction, when the list store's row count shrank) and the added
        row.
        """
        old, new = event.old, event.new
        lists = self.lists
        gone = None
        if old is not None and old.relation in self._relations:
            gone = lists.relation(old.relation).row_of.get(event.identifier)
        lists.apply(event)
        if gone is not None:
            relation = self._relations[old.relation]
            if new is not None and new.relation == old.relation:
                self._write(relation, gone, fresh=False)
                return
            relation.live[gone] = False
            if len(relation.table.ids) < relation.n:
                self._compact(relation)
        if new is not None and new.relation in self._relations:
            relation = self._relations[new.relation]
            row = relation.table.row_of[event.identifier]
            if row == relation.n:
                if relation.n == relation.cap:
                    relation.grow(relation.n + 1)
                relation.n += 1
            relation.ids[row] = event.identifier
            relation.live[row] = True
            self._write(relation, row, fresh=True)

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
        return self.lists.live_count(relation)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _write(relation: VectorRelation, row: int, fresh: bool) -> None:
        """Encode *row* of the list store's columns into the arrays."""
        columns = relation.columns
        for attribute in relation.table.attributes:
            column = columns[attribute]
            column.set(row, column.values[row], fresh)

    @staticmethod
    def _compact(relation: VectorRelation) -> None:
        """Drop dead slots, renumbering rows densely as the list store's
        compaction just did (it keeps the live rows in order).

        Compiled vector plans capture relation/column **objects** and fetch
        arrays per run, so reassigning the arrays is safe.  The CSR group
        indexes are invalidated and lazily rebuilt on the next probe.
        """
        live_idx = np.nonzero(relation.live[: relation.n])[0]
        count = len(live_idx)
        relation.ids[:count] = relation.ids[live_idx]
        relation.live[:count] = True
        relation.live[count : relation.n] = False
        for column in relation.columns.values():
            column.data[:count] = column.data[live_idx]
            column.valid[:count] = column.valid[live_idx]
            if column.codes is not None:
                column.codes[:count] = column.codes[live_idx]
            if column.group is not None:
                column.group.invalidate()
        relation.n = count

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
#: over the owned list store); larger batches run the numpy kernels, whose
#: per-call floor they amortize.  The crossover sweep of
#: ``benchmarks/bench_vectorized_columns.py`` (``BENCH_vectorized.json``)
#: measures it: on 100k-fact Tax and Hospital stores the scalar kernels
#: win through k = 32 dirty rows (Hospital about ties there) and lose from
#: k = 64 on.
SCALAR_DELTA_ROWS = 32


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
        """The same pin plan as list kernels over the owned list store,
        compiled on first use; the key columns its hash steps probe are
        indexed then."""
        if self._scalar is None:
            dc, plan, store = self._source
            lists = store.lists
            for step in plan.steps:
                for _, new in step.keys:
                    lists.register_key(dc.relation_of(step.variable), new.attribute)
            self._scalar = _compile_list_plan(dc, plan, lists)
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
