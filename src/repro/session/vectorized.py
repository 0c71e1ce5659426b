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
  across every column of the class, so EQ/NE evaluate on codes alone.

Grouped join indexes are **CSR buckets over codes**: ``starts[c]:starts[c+1]``
slices a row array sorted by code, so a probe is O(1) arithmetic plus a
validity gather (rows are re-checked against the live bitmap and current
codes, which makes stale entries harmless).  Mutations append to a small
overlay probed via sorted-array ``searchsorted``; the CSR is rebuilt only
when the overlay outgrows a fraction of the relation, keeping delta
re-enumeration free of O(n) rebuilds.

The vectorized plan compiler (:class:`VectorPlanCompiler`) mirrors the
list-backed ``_PlanCompiler`` in :mod:`repro.session.enumeration`: same
conflict-query rotation per pin variable, same planner join order (with the
live-cardinality ``cost_of`` hook), but execution is mask combinators over
parallel row arrays — seed scans as boolean masks, grouped hash joins as
code-array bucket probes, fused pairwise predicates as EQ/NE code masks or
typed-array comparisons — with **no per-candidate python loop**; witnesses
decode only the surviving rows.  Python scalar kernels remain as a
row-level fallback for the cases numpy semantics cannot mirror exactly
(bools, mixed types, > 2**53 integers against floats), keeping results
bit-identical to the probe reference.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from ..constraints.base import ComparisonOp
from ..constraints.dc import DenialConstraint
from ..relational.database import ChangeEvent, Database, Fact
from ..relational.schema import Schema
from ..sqlengine.ast import (
    And,
    ColumnRef,
    Comparison,
    Condition,
    Literal,
    Or,
    SelectQuery,
)
from ..sqlengine.planner import JoinPlan, QueryPlan, plan_query
from ..violations.sqlgen import conflict_query, variable_aliases

#: Exact-in-float64 integer bound: |int| above this cannot ride float math.
_EXACT_FLOAT_INT = 2**53
_INT64_MAX = 2**63

_NULL_CODE = -1
_NAN_CODE = -2
_UNSEEN_CODE = -3


def _is_nan(value) -> bool:
    return isinstance(value, float) and value != value


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
    deletes are filtered, never wrong.
    """

    __slots__ = (
        "starts",
        "rows",
        "K",
        "ov_codes",
        "ov_rows",
        "_ov_sorted",
        "_ov_dirty",
    )

    #: Overlay floor below which a rebuild is never triggered.
    OVERLAY_MIN = 4096

    def __init__(self) -> None:
        self.starts: np.ndarray | None = None
        self.rows: np.ndarray | None = None
        self.K = 0
        self.ov_codes: list[int] = []
        self.ov_rows: list[int] = []
        self._ov_sorted: tuple[np.ndarray, np.ndarray] | None = None
        self._ov_dirty = False

    def invalidate(self) -> None:
        self.starts = None
        self.rows = None
        self.K = 0
        self.ov_codes.clear()
        self.ov_rows.clear()
        self._ov_sorted = None
        self._ov_dirty = False

    def add(self, code: int, row: int) -> None:
        """Record a newly coded live row (only meaningful once built)."""
        if self.starts is None or code < 0:
            return
        self.ov_codes.append(code)
        self.ov_rows.append(row)
        self._ov_dirty = True

    def ensure(self, relation: "VectorRelation", column: "VectorColumn") -> None:
        """(Re)build the CSR if stale or the overlay outgrew its budget."""
        if self.starts is not None and len(self.ov_codes) <= max(
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
        self.ov_codes.clear()
        self.ov_rows.clear()
        self._ov_sorted = None
        self._ov_dirty = False

    def sorted_overlay(self) -> tuple[np.ndarray, np.ndarray]:
        """The overlay as (codes, rows) arrays sorted by code."""
        if self._ov_sorted is None or self._ov_dirty:
            codes = np.asarray(self.ov_codes, dtype=np.int64)
            rows = np.asarray(self.ov_rows, dtype=np.int64)
            order = np.argsort(codes, kind="stable")
            self._ov_sorted = (codes[order], rows[order])
            self._ov_dirty = False
        return self._ov_sorted


class VectorColumn:
    """One attribute's typed array + validity bitmap (+ codes when joined).

    *kind* walks the ladder ``i8 → f8 → obj``; promotion converts the
    stored prefix in place-of-reference (the array object is replaced, so
    kernels must fetch ``.data`` per run, never capture it).  ``huge``
    flags an ``i8`` column holding some ``|int| > 2**53`` — ordered or
    equality comparisons of such a column against floats fall back to
    python scalars to keep exact-integer semantics.
    """

    __slots__ = ("kind", "data", "valid", "huge", "dict_class", "codes", "group")

    def __init__(self, capacity: int = 0) -> None:
        self.kind = "i8"
        self.data: np.ndarray = np.zeros(capacity, dtype=np.int64)
        self.valid: np.ndarray = np.zeros(capacity, dtype=bool)
        self.huge = False
        self.dict_class: ColumnDictionary | None = None
        self.codes: np.ndarray | None = None
        self.group: CodeGroup | None = None

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
        self._fit(value)
        kind = self.kind
        if value is None:
            self.valid[row] = False
            if kind == "obj":
                self.data[row] = None
            else:
                self.data[row] = 0
        else:
            self.valid[row] = True
            self.data[row] = value
            if (
                kind == "i8"
                and not self.huge
                and (value > _EXACT_FLOAT_INT or value < -_EXACT_FLOAT_INT)
            ):
                self.huge = True
        if self.dict_class is not None:
            code = self.dict_class.encode(value)
            if fresh or self.codes[row] != code:
                self.codes[row] = code
                if self.group is not None:
                    self.group.add(code, row)

    def _fit(self, value) -> None:
        """Promote the kind until *value* stores losslessly."""
        kind = self.kind
        if value is None or kind == "obj":
            return
        if isinstance(value, bool):
            self._promote("obj")
        elif isinstance(value, int):
            if -_INT64_MAX <= value < _INT64_MAX:
                if kind == "f8" and (
                    value > _EXACT_FLOAT_INT or value < -_EXACT_FLOAT_INT
                ):
                    self._promote("obj")
            else:
                self._promote("obj")
        elif isinstance(value, float):
            if kind == "i8":
                self._promote("obj" if self.huge else "f8")
        else:
            self._promote("obj")

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


class _IdColumn:
    """The ID pseudo-column as a read-only numeric VectorColumn view."""

    __slots__ = ("_relation",)

    kind = "i8"
    huge = False
    dict_class = None
    codes = None
    group = None

    def __init__(self, relation: "VectorRelation") -> None:
        self._relation = relation

    @property
    def data(self) -> np.ndarray:
        return self._relation.ids

    @property
    def valid(self) -> np.ndarray:
        return self._relation.live

    def values_at(self, rows: np.ndarray) -> list:
        return [int(v) for v in self._relation.ids[rows]]


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
    """One relation's numpy image: ids + live bitmap + typed columns."""

    __slots__ = ("relation", "attributes", "n", "cap", "ids", "live", "row_of", "free", "columns", "_id_column")

    def __init__(self, relation: str, attributes: Sequence[str]) -> None:
        self.relation = relation
        self.attributes = tuple(attributes)
        self.n = 0
        self.cap = 0
        self.ids = np.zeros(0, dtype=np.int64)
        self.live = np.zeros(0, dtype=bool)
        self.row_of: dict[int, int] = {}
        self.free: list[int] = []
        self.columns: dict[str, VectorColumn] = {
            attribute: VectorColumn() for attribute in attributes
        }
        self._id_column: _IdColumn | None = None

    def __len__(self) -> int:
        return len(self.row_of)

    def id_column(self) -> _IdColumn:
        if self._id_column is None:
            self._id_column = _IdColumn(self)
        return self._id_column

    def live_rows(self) -> np.ndarray:
        return np.nonzero(self.live[: self.n])[0]

    def rows_for_ids(self, identifiers: Iterable[int]) -> np.ndarray:
        row_of = self.row_of
        return np.asarray(
            [row_of[i] for i in identifiers if i in row_of], dtype=np.int64
        )

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
                column = VectorColumn(existing.cap)
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
        column.dict_class = ColumnDictionary()
        column.codes = np.full(
            self._relations[relation].cap, _NULL_CODE, dtype=np.int64
        )
        self._coded.append((relation, attribute))

    # ------------------------------------------------------------------
    # Build + maintenance
    # ------------------------------------------------------------------
    def build(self, database: Database) -> None:
        for identifier, fact in database.items():
            if fact.relation in self._relations:
                self._add(identifier, fact)

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
        else:
            if relation.n == relation.cap:
                relation.grow(relation.n + 1)
            row = relation.n
            relation.n += 1
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
        arrays per run, so reassigning the arrays is safe; the CSR group
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
        relation.free.clear()
        relation.row_of.clear()
        for row in range(count):
            relation.row_of[int(relation.ids[row])] = row

# Imported late on purpose: enumeration.py never imports this module at its
# top level (the batch enumerator dispatches here lazily), so this is safe
# and keeps the scalar kernels/_linearize definitions in one place.
from .enumeration import _COMPARE, _ID, EnumerationStats, Witnesses, _linearize  # noqa: E402

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
    """Boolean mask of ``col[rows] OP value`` with probe-exact semantics."""
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


def _probe_group(
    group: CodeGroup, relation: VectorRelation, column: VectorColumn, bc: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Expand a grouped hash probe: build codes → (parent index, new rows).

    CSR segments cover rows coded before the last rebuild; the sorted
    overlay covers everything since.  Both halves validate against the live
    bitmap and the current codes, so stale entries drop out; overlap between
    the halves (a revived slot) is removed by the final key de-duplication.
    """
    count = len(bc)
    empty = np.zeros(0, dtype=np.int64)
    if count == 0:
        return empty, empty
    live = relation.live
    codes = column.codes
    parent_parts: list[np.ndarray] = []
    row_parts: list[np.ndarray] = []
    starts = group.starts
    in_csr = (bc >= 0) & (bc < group.K)
    if in_csr.any():
        clipped = np.where(in_csr, bc, 0)
        lo = starts[clipped]
        cnt = np.where(in_csr, starts[clipped + 1] - lo, 0)
        total = int(cnt.sum())
        if total:
            parent = np.repeat(np.arange(count, dtype=np.int64), cnt)
            offsets = np.concatenate(
                (np.zeros(1, dtype=np.int64), np.cumsum(cnt, dtype=np.int64))
            )
            idx = np.arange(total, dtype=np.int64) + np.repeat(
                lo - offsets[:-1], cnt
            )
            rows = group.rows[idx]
            keep = live[rows] & (codes[rows] == bc[parent])
            parent_parts.append(parent[keep])
            row_parts.append(rows[keep])
    overlay_used = False
    if group.ov_codes:
        ov_codes, ov_rows = group.sorted_overlay()
        probe = np.maximum(bc, 0)
        left = np.searchsorted(ov_codes, probe, side="left")
        right = np.searchsorted(ov_codes, probe, side="right")
        cnt = np.where(bc >= 0, right - left, 0)
        total = int(cnt.sum())
        if total:
            overlay_used = True
            parent = np.repeat(np.arange(count, dtype=np.int64), cnt)
            offsets = np.concatenate(
                (np.zeros(1, dtype=np.int64), np.cumsum(cnt, dtype=np.int64))
            )
            idx = np.arange(total, dtype=np.int64) + np.repeat(
                left - offsets[:-1], cnt
            )
            rows = ov_rows[idx]
            keep = live[rows] & (codes[rows] == bc[parent])
            parent_parts.append(parent[keep])
            row_parts.append(rows[keep])
    if not parent_parts:
        return empty, empty
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
        "pin_variable",
        "seed_relation",
        "seed_filters",
        "joins",
        "final_filters",
        "slot_relations",
        "width",
    )

    def __init__(
        self,
        pin_variable: str,
        seed_relation: str,
        seed_filters: list,
        joins: list,
        final_filters: list,
        slot_relations: list[VectorRelation],
    ) -> None:
        self.pin_variable = pin_variable
        self.seed_relation = seed_relation
        self.seed_filters = seed_filters
        self.joins = joins
        self.final_filters = final_filters
        self.slot_relations = slot_relations
        self.width = len(slot_relations)

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
        for join, filters in self.joins:
            batch = join(batch)
            stats.batches_joined += 1
            stats.rows_scanned += len(batch[0])
            if not len(batch[0]):
                return None
            batch = self._apply(batch, filters)
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


class VectorPlanCompiler:
    """Compiles one DC's conflict query into :class:`VectorBatchPlan` objects.

    Mirrors the list backend's ``_PlanCompiler`` step for step (same query
    rotation, same planner call modulo the live-cardinality cost hook), but
    emits mask kernels instead of list comprehensions.
    """

    def __init__(
        self, dc: DenialConstraint, schema: Schema, store: VectorColumnStore
    ) -> None:
        self.dc = dc
        self.schema = schema
        self.store = store
        self.query = conflict_query(dc)
        alias_of = variable_aliases(dc)
        self.variable_of = {alias: variable for variable, alias in alias_of.items()}
        self.relation_of = {
            alias_of[variable]: relation for variable, relation in dc.variables
        }

    def compile_pin(self, pin_index: int) -> VectorBatchPlan:
        tables = self.query.tables
        rotated = SelectQuery(
            select=self.query.select,
            distinct=self.query.distinct,
            tables=tables[pin_index:] + tables[:pin_index],
            where=self.query.where,
            select_star=self.query.select_star,
        )
        store = self.store
        plan = plan_query(
            rotated,
            reorder_equalities=True,
            cost_of=lambda table: float(store.live_count(table.relation)),
        )
        return self._compile(plan)

    # -- plan-tree compilation ------------------------------------------
    def _compile(self, plan: QueryPlan) -> VectorBatchPlan:
        seed_scan, join_steps = _linearize(plan.root)
        slot_of: dict[str, int] = {seed_scan.table.alias: 0}
        for step in join_steps:
            slot_of[step.right.table.alias] = len(slot_of)
        self._slot_of = slot_of
        seed_filters = [
            self._compile_filter(condition) for condition in seed_scan.filters
        ]
        joins = []
        for step in join_steps:
            if step.equi_keys:
                join = self._compile_join(step)
                conditions = list(step.right.filters) + list(step.residual)
            else:
                # Keyless step (the lone pre-filtered variable): its
                # single-alias filters are consumed by the cross join's
                # row pre-filter, so only the residual remains.
                join = self._compile_cross(step)
                conditions = list(step.residual)
            filters = [self._compile_filter(condition) for condition in conditions]
            joins.append((join, filters))
        final_filters = [
            self._compile_filter(condition) for condition in plan.final_residual
        ]
        aliases_in_order = sorted(slot_of, key=slot_of.__getitem__)
        slot_relations = [
            self.store.relation(self.relation_of[alias])
            for alias in aliases_in_order
        ]
        return VectorBatchPlan(
            pin_variable=self.variable_of[seed_scan.table.alias],
            seed_relation=seed_scan.table.relation,
            seed_filters=seed_filters,
            joins=joins,
            final_filters=final_filters,
            slot_relations=slot_relations,
        )

    def _compile_join(self, step: JoinPlan):
        """A grouped hash join: CSR bucket probe on the first key, extra
        keys applied as code-equality masks over the expanded batch."""
        new_alias = step.right.table.alias
        new_relation = self.store.relation(step.right.table.relation)
        keys = []
        for left_ref, right_ref in step.equi_keys:
            build_ref, probe_ref = left_ref, right_ref
            if build_ref.table == new_alias:
                build_ref, probe_ref = probe_ref, build_ref
            build_col, build_slot, _ = self._operand(build_ref)
            probe_col = new_relation.columns[probe_ref.column]
            keys.append((build_col, build_slot, probe_col))
        first_build, first_slot, first_probe = keys[0]
        extra = tuple(keys[1:])

        def join(
            batch,
            relation=new_relation,
            build=first_build,
            slot=first_slot,
            probe=first_probe,
            extra=extra,
        ):
            build_codes = build.codes[batch[slot]]
            group = probe.group
            group.ensure(relation, probe)
            parent, new_rows = _probe_group(group, relation, probe, build_codes)
            out = [rows[parent] for rows in batch]
            out.append(new_rows)
            for extra_build, extra_slot, extra_probe in extra:
                if not len(out[0]):
                    break
                mask = _mask_pair(
                    extra_build, out[extra_slot], extra_probe, out[-1],
                    ComparisonOp.EQ,
                )
                out = [rows[mask] for rows in out]
            return out

        return join

    def _compile_cross(self, step: JoinPlan):
        """The keyless step: masked pre-filtered seed × bound batch.

        Only reachable for DCs whose equality graph leaves exactly one
        variable disconnected and bound by single-table predicates alone
        (see ``batch_compilable``), so the new side is pre-filtered to the
        rows passing its scan conditions before the cross product.
        """
        new_alias = step.right.table.alias
        new_relation = self.store.relation(step.right.table.relation)
        row_predicates = tuple(
            self._compile_row_predicate(condition, new_alias)
            for condition in step.right.filters
        )

        def join(batch, relation=new_relation, predicates=row_predicates):
            rows = relation.live_rows()
            for predicate in predicates:
                if not len(rows):
                    break
                mask = predicate(rows)
                if mask is True:
                    continue
                rows = rows[mask]
            count_batch = len(batch[0])
            count_rows = len(rows)
            parent = np.repeat(
                np.arange(count_batch, dtype=np.int64), count_rows
            )
            out = [existing[parent] for existing in batch]
            out.append(np.tile(rows, count_batch))
            return out

        return join

    def _compile_row_predicate(self, condition: Condition, alias: str):
        """A mask over raw row arrays of one relation (cross pre-filter)."""
        assert isinstance(condition, Comparison)
        op = condition.op
        relation = self.store.relation(self.relation_of[alias])

        def column_of(operand):
            if isinstance(operand, Literal):
                return None, operand.value
            column = (
                relation.id_column()
                if operand.column == _ID
                else relation.columns[operand.column]
            )
            return column, None

        left_col, left_val = column_of(condition.left)
        right_col, right_val = column_of(condition.right)
        if left_col is None and right_col is None:
            keep = _COMPARE[op](left_val, right_val)
            if keep:
                return lambda rows: True
            return lambda rows: np.zeros(len(rows), dtype=bool)
        if right_col is None:
            return lambda rows, c=left_col, o=op, v=right_val: _mask_const(
                c, rows, o, v
            )
        if left_col is None:
            return lambda rows, c=right_col, o=_FLIP[op], v=left_val: _mask_const(
                c, rows, o, v
            )
        return lambda rows, a=left_col, b=right_col, o=op: _mask_pair(
            a, rows, b, rows, o
        )

    def _operand(self, operand):
        """``(column object, slot, const)`` for a ColumnRef / Literal."""
        if isinstance(operand, Literal):
            return None, None, operand.value
        assert isinstance(operand, ColumnRef)
        slot = self._slot_of[operand.table]
        relation = self.store.relation(self.relation_of[operand.table])
        column = (
            relation.id_column()
            if operand.column == _ID
            else relation.columns[operand.column]
        )
        return column, slot, None

    def _compile_filter(self, condition: Condition):
        """A mask combinator over candidate batches (True = all pass)."""
        if isinstance(condition, Comparison):
            op = condition.op
            left_col, left_slot, left_val = self._operand(condition.left)
            right_col, right_slot, right_val = self._operand(condition.right)
            if left_col is None and right_col is None:
                keep = _COMPARE[op](left_val, right_val)
                if keep:
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
        children = [self._compile_filter(child) for child in condition.conditions]
        if isinstance(condition, And):

            def mask_and(batch):
                mask = True
                for child in children:
                    child_mask = child(batch)
                    if child_mask is True:
                        continue
                    mask = child_mask if mask is True else (mask & child_mask)
                return mask

            return mask_and
        if isinstance(condition, Or):

            def mask_or(batch):
                mask = None
                for child in children:
                    child_mask = child(batch)
                    if child_mask is True:
                        return True
                    mask = child_mask if mask is None else (mask | child_mask)
                return np.zeros(len(batch[0]), dtype=bool) if mask is None else mask

            return mask_or
        raise TypeError(f"unexpected condition {condition!r}")
