"""Witness enumeration: compiled batch join plans over a column store.

Every witness the session maintains — cold build and delta re-enumeration
alike — is found by one :class:`WitnessEnumerator` per DC.  It compiles the
DC **once** into one :class:`BatchPlan` per tuple variable (the variable
the plan is *pinned* on, i.e. seeded with) and runs it over the session's
maintained :class:`~repro.session.columnar.ColumnStore`.  The plan's join
order is chosen from the DC's equality graph by the SQL planner
(:func:`~repro.sqlengine.planner.plan_query` with ``reorder_equalities=True``
over :func:`~repro.violations.sqlgen.conflict_query`): every variable an
equality reaches from the bound ones joins through a grouped hash join,
and a variable none reaches — the next part of a disconnected equality
graph, or any variable of an inequality-only DC — joins through a keyless
**cross step**, a filtered cross product of the bound batch with the new
side's pre-filtered live rows.  Bound predicates apply as filters over
candidate batches, fused into the join wherever they are pairwise.

The plans run on one of two column backends: pure-python lists (this
module) or numpy arrays (:mod:`repro.session.vectorized`).  The list cross
step fuses its pairwise predicates per candidate, so no unfiltered pair is
ever materialized; the numpy one expands the batch in blocks of at most
``CROSS_PAIR_BUDGET`` pairs and filters each block before keeping its
survivors.

The **cold** entry point runs the pin-0 plan over its relation (in seed
chunks, see :meth:`WitnessEnumerator.cold_chunks`), and the **delta** entry
point runs each pin's plan over the dirty ids of that pin's relation — one
pass per pin instead of a recursion per dirty fact.  Both backends return
identical witness sets: ``tests/violations/test_sqlgen_conformance.py``
pins each to brute-force evaluation of the DC body, and the differential
suites in ``tests/session`` pin the maintained families to fresh cold
builds on the other backend.

:func:`cold_build` is the one cold-build path: a session's rebuild keeps
the enumerators and the column store it returns to run deltas, and the
one-shot detection in :mod:`repro.violations.minimal` drops them.

Each enumerator carries an :class:`EnumerationStats` record (plans
compiled, batches joined, candidate rows scanned, witnesses emitted),
surfaced per DC through ``session.stats()``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from ..constraints.base import ComparisonOp
from ..constraints.dc import DenialConstraint
from ..relational.database import Database
from ..relational.schema import Schema
from ..relational.values import values_comparable
from ..sqlengine.ast import (
    And,
    ColumnRef,
    Comparison,
    Condition,
    Literal,
    Or,
    SelectQuery,
)
from ..sqlengine.planner import JoinPlan, PlanNode, QueryPlan, ScanPlan, plan_query
from ..violations.sqlgen import conflict_query, variable_aliases
from .columnar import ColumnStore, make_column_store

#: The executor's fact-identifier pseudo-column (see SqlEngine.ID_COLUMN).
_ID = "ID"

BatchFilter = Callable[[list], list]
Witnesses = set[frozenset[int]]


# ----------------------------------------------------------------------
# Scalar comparison kernels — exact mirrors of ComparisonOp.evaluate
# (EQ/NE are False on NULL, ordered ops require comparable values), but
# resolved to plain functions once per compiled predicate.  Ordered ops
# fast-path same-type non-NULL operands, which values_comparable always
# accepts; only mixed types pay for its isinstance checks.
# ----------------------------------------------------------------------
def _eq(left, right) -> bool:
    return left is not None and right is not None and left == right


def _ne(left, right) -> bool:
    return left is not None and right is not None and left != right


def _lt(left, right) -> bool:
    if type(left) is type(right):
        return left is not None and left < right
    return values_comparable(left, right) and left < right


def _le(left, right) -> bool:
    if type(left) is type(right):
        return left is not None and left <= right
    return values_comparable(left, right) and left <= right


def _gt(left, right) -> bool:
    if type(left) is type(right):
        return left is not None and left > right
    return values_comparable(left, right) and left > right


def _ge(left, right) -> bool:
    if type(left) is type(right):
        return left is not None and left >= right
    return values_comparable(left, right) and left >= right


_COMPARE = {
    ComparisonOp.EQ: _eq,
    ComparisonOp.NE: _ne,
    ComparisonOp.LT: _lt,
    ComparisonOp.LE: _le,
    ComparisonOp.GT: _gt,
    ComparisonOp.GE: _ge,
}


class EnumerationStats:
    """Per-DC enumeration counters, accumulated for the session's lifetime."""

    __slots__ = (
        "backend",
        "plans_compiled",
        "batches_joined",
        "rows_scanned",
        "witnesses_emitted",
        "cold_runs",
        "delta_runs",
    )

    def __init__(self, backend: str) -> None:
        #: Column backend the plans run on ("list" or "numpy").
        self.backend = backend
        self.plans_compiled = 0
        self.batches_joined = 0
        self.rows_scanned = 0
        self.witnesses_emitted = 0
        self.cold_runs = 0
        self.delta_runs = 0

    def as_dict(self) -> dict:
        return {
            "backend": self.backend,
            "plans_compiled": self.plans_compiled,
            "batches_joined": self.batches_joined,
            "rows_scanned": self.rows_scanned,
            "witnesses_emitted": self.witnesses_emitted,
            "cold_runs": self.cold_runs,
            "delta_runs": self.delta_runs,
        }


def register_batch_columns(dc: DenialConstraint, store: ColumnStore) -> None:
    """Register the columns and grouped join keys *dc*'s plans will read.

    Every non-constant predicate term becomes a stored column; both sides
    of every equality-join predicate become grouped key columns, because a
    delta plan pinned on either variable probes the *other* side's group.
    Relations bound by a variable no predicate mentions still get their
    identifier array.  Column pairs some predicate compares for equality
    **or disequality** also register as one coded join class
    (``register_coded``), which the numpy backend uses to share one value
    dictionary across the pair so EQ/NE evaluate on codes; the list backend
    just stores the columns.
    """
    for variable, relation in dc.variables:
        store.register(relation, ())
    for predicate in dc.predicates:
        left, right = predicate.left, predicate.right
        for term in (left, right):
            if not term.is_constant:
                store.register(
                    dc.relation_of(term.variable), (term.attribute,)
                )
        if predicate.is_equality_join():
            store.register_key(
                dc.relation_of(left.variable), left.attribute
            )
            store.register_key(
                dc.relation_of(right.variable), right.attribute
            )
        if (
            predicate.op in (ComparisonOp.EQ, ComparisonOp.NE)
            and not left.is_constant
            and not right.is_constant
        ):
            store.register_coded(
                (
                    (dc.relation_of(left.variable), left.attribute),
                    (dc.relation_of(right.variable), right.attribute),
                )
            )


# ----------------------------------------------------------------------
# Compiled batch plans
# ----------------------------------------------------------------------
class BatchPlan:
    """One DC compiled for one seed variable: scan → joins → filters.

    Each join step is a grouped hash join or, for a variable no equality
    reaches, a cross step; either carries the filters its fused
    predicates left over.

    ``run`` takes the seed row batch (full scan for the cold entry point,
    the pinned dirty rows for the delta entry point) and returns the
    witness fact-id sets, counting work into an :class:`EnumerationStats`.
    """

    __slots__ = (
        "pin_variable",
        "seed_relation",
        "seed_filters",
        "joins",
        "final_filters",
        "id_arrays",
        "width",
    )

    def __init__(
        self,
        pin_variable: str,
        seed_relation: str,
        seed_filters: list[BatchFilter],
        joins: list[tuple[Callable[[list], list], list[BatchFilter]]],
        final_filters: list[BatchFilter],
        id_arrays: list[list],
    ) -> None:
        self.pin_variable = pin_variable
        self.seed_relation = seed_relation
        self.seed_filters = seed_filters
        self.joins = joins
        self.final_filters = final_filters
        self.id_arrays = id_arrays
        self.width = len(id_arrays)

    def run(self, seed_rows: Sequence[int], stats: EnumerationStats) -> Witnesses:
        batch: list[tuple[int, ...]] = [(row,) for row in seed_rows]
        stats.rows_scanned += len(batch)
        for apply_filter in self.seed_filters:
            batch = apply_filter(batch)
            if not batch:
                return set()
        for join, filters in self.joins:
            batch = join(batch)
            stats.batches_joined += 1
            stats.rows_scanned += len(batch)
            if not batch:
                return set()
            for apply_filter in filters:
                batch = apply_filter(batch)
                if not batch:
                    return set()
        for apply_filter in self.final_filters:
            batch = apply_filter(batch)
            if not batch:
                return set()
        arrays = self.id_arrays
        if self.width == 1:
            ids0 = arrays[0]
            return {frozenset((ids0[c[0]],)) for c in batch}
        if self.width == 2:
            ids0, ids1 = arrays
            return {frozenset((ids0[c[0]], ids1[c[1]])) for c in batch}
        return {
            frozenset(array[row] for array, row in zip(arrays, candidate))
            for candidate in batch
        }


class _PlanCompiler:
    """Compiles one DC's conflict query into :class:`BatchPlan` objects."""

    def __init__(
        self, dc: DenialConstraint, schema: Schema, store: ColumnStore
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

    def compile_pin(self, pin_index: int) -> BatchPlan:
        """The plan seeded on tuple variable number *pin_index*."""
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
    def _compile(self, plan: QueryPlan) -> BatchPlan:
        seed_scan, join_steps = _linearize(plan.root)
        slot_of: dict[str, int] = {seed_scan.table.alias: 0}
        for step in join_steps:
            slot_of[step.right.table.alias] = len(slot_of)
        self._slot_of = slot_of
        seed_filters = [
            self._compile_filter(condition) for condition in seed_scan.filters
        ]
        joins: list[tuple[Callable[[list], list], list[BatchFilter]]] = []
        for step in join_steps:
            # A keyless step's single-alias conditions pre-filter the rows
            # it crosses, so only its residual is left to place.
            conditions = list(step.residual)
            if step.equi_keys:
                conditions = list(step.right.filters) + conditions
            # Fuse pairwise predicates into the join: candidates failing
            # them are filtered during expansion and never materialized as
            # tuples.  Whatever can't fuse stays a batch filter over the
            # join's output.
            fused, unfused = [], []
            for condition in conditions:
                pairwise = self._fusable(condition, step.right.table.alias)
                (fused if pairwise is not None else unfused).append(
                    pairwise if pairwise is not None else condition
                )
            if step.equi_keys:
                join = self._compile_join(step, fused)
            else:
                join = self._compile_cross(step, fused)
            filters = [self._compile_filter(condition) for condition in unfused]
            joins.append((join, filters))
        final_filters = [
            self._compile_filter(condition) for condition in plan.final_residual
        ]
        # Slot order == join order; witnesses project each slot's fact id.
        aliases_in_order = sorted(slot_of, key=slot_of.__getitem__)
        id_arrays = [
            self.store.ids(self.relation_of[alias]) for alias in aliases_in_order
        ]
        return BatchPlan(
            pin_variable=self.variable_of[seed_scan.table.alias],
            seed_relation=seed_scan.table.relation,
            seed_filters=seed_filters,
            joins=joins,
            final_filters=final_filters,
            id_arrays=id_arrays,
        )

    def _fusable(self, condition: Condition, new_alias: str):
        """Spec for a predicate fusable into the join expanding *new_alias*.

        Fusable means a Comparison with exactly one operand on the new
        alias and the other a bound slot's column or a constant — then the
        check runs per expanded row, before any candidate tuple exists.
        Returns ``(compare, new_array, other_array, other, new_on_left)``
        (``other_array is None`` ⇒ ``other`` is the constant), or None.
        """
        if not isinstance(condition, Comparison):
            return None

        def classify(operand):
            if isinstance(operand, Literal):
                return ("const", None, operand.value)
            if operand.table == new_alias:
                relation = self.relation_of[new_alias]
                array = (
                    self.store.ids(relation)
                    if operand.column == _ID
                    else self.store.column(relation, operand.column)
                )
                return ("new", array, None)
            array, slot = self._operand(operand)
            return ("slot", array, slot)

        left = classify(condition.left)
        right = classify(condition.right)
        if (left[0] == "new") == (right[0] == "new"):
            return None
        new_side, other_side = (left, right) if left[0] == "new" else (right, left)
        return (
            _COMPARE[condition.op],
            new_side[1],
            other_side[1],
            other_side[2],
            left[0] == "new",
        )

    def _compile_join(self, step: JoinPlan, fused: list) -> Callable[[list], list]:
        """A grouped hash join: probe the new slot's key groups per batch row.

        *fused* predicates (see :meth:`_fusable`) trim each probed group
        before the surviving rows are appended as candidate tuples.
        """
        new_alias = step.right.table.alias
        new_relation = step.right.table.relation
        keys = []
        for left_ref, right_ref in step.equi_keys:
            build_ref, probe_ref = left_ref, right_ref
            if build_ref.table == new_alias:
                build_ref, probe_ref = probe_ref, build_ref
            array, slot = self._operand(build_ref)
            group = self.store.group(new_relation, probe_ref.column)
            keys.append((array, slot, group))
        fused = tuple(fused)
        if len(keys) == 1:
            array, slot, group = keys[0]

            if not fused:

                def join_single(batch, array=array, slot=slot, group=group):
                    out: list[tuple[int, ...]] = []
                    extend = out.extend
                    lookup = group.get
                    for candidate in batch:
                        value = array[candidate[slot]]
                        if value is None:
                            continue  # NULL never joins
                        rows = lookup(value)
                        if rows:
                            extend([candidate + (row,) for row in rows])
                    return out

                return join_single

            def join_single_fused(
                batch, array=array, slot=slot, group=group, fused=fused
            ):
                out: list[tuple[int, ...]] = []
                extend = out.extend
                lookup = group.get
                for candidate in batch:
                    value = array[candidate[slot]]
                    if value is None:
                        continue  # NULL never joins
                    rows = lookup(value)
                    if not rows:
                        continue
                    keep = _trim(rows, candidate, fused)
                    if keep:
                        extend([candidate + (row,) for row in keep])
                return out

            return join_single_fused

        def join_multi(batch, keys=tuple(keys), fused=fused):
            out: list[tuple[int, ...]] = []
            extend = out.extend
            for candidate in batch:
                rows = None
                for array, slot, group in keys:
                    value = array[candidate[slot]]
                    if value is None:
                        rows = None
                        break
                    bucket = group.get(value)
                    if not bucket:
                        rows = None
                        break
                    rows = bucket if rows is None else rows & bucket
                    if not rows:
                        break
                if not rows:
                    continue
                keep = _trim(rows, candidate, fused)
                if keep:
                    extend([candidate + (row,) for row in keep])
            return out

        return join_multi

    def _compile_cross(self, step: JoinPlan, fused: list) -> Callable[[list], list]:
        """A keyless step: the new side's live rows crossed with the batch.

        The new side's rows are computed once per run (live scan + its
        single-table predicates); *fused* predicates (see :meth:`_fusable`)
        then trim them per candidate before any pair is appended.
        """
        table = self.store.relation(step.right.table.relation)
        row_predicates = tuple(
            self._compile_row_predicate(condition, step.right.table.alias)
            for condition in step.right.filters
        )

        def join_cross(
            batch, table=table, predicates=row_predicates, fused=tuple(fused)
        ):
            ids = table.ids
            rows = [row for row in range(len(ids)) if ids[row] is not None]
            for predicate in predicates:
                rows = [row for row in rows if predicate(row)]
                if not rows:
                    return []
            out: list[tuple[int, ...]] = []
            extend = out.extend
            for candidate in batch:
                keep = _trim(rows, candidate, fused)
                if keep:
                    extend([candidate + (row,) for row in keep])
            return out

        return join_cross

    def _compile_row_predicate(
        self, condition: Condition, alias: str
    ) -> Callable[[int], bool]:
        """A single-relation row predicate (operands on *alias* or consts)."""
        assert isinstance(condition, Comparison)
        compare = _COMPARE[condition.op]
        relation = self.relation_of[alias]

        def resolve(operand):
            if isinstance(operand, Literal):
                return None, operand.value
            array = (
                self.store.ids(relation)
                if operand.column == _ID
                else self.store.column(relation, operand.column)
            )
            return array, None

        left_array, left_value = resolve(condition.left)
        right_array, right_value = resolve(condition.right)
        if left_array is None and right_array is None:
            keep = compare(left_value, right_value)
            return lambda row, keep=keep: keep
        if right_array is None:
            return lambda row, compare=compare, array=left_array, value=right_value: (
                compare(array[row], value)
            )
        if left_array is None:
            return lambda row, compare=compare, value=left_value, array=right_array: (
                compare(value, array[row])
            )
        return lambda row, compare=compare, a=left_array, b=right_array: (
            compare(a[row], b[row])
        )

    def _operand(self, operand) -> tuple[list | None, object]:
        """``(column array, slot)`` for a ColumnRef, ``(None, value)`` else."""
        if isinstance(operand, Literal):
            return None, operand.value
        assert isinstance(operand, ColumnRef)
        slot = self._slot_of[operand.table]
        relation = self.relation_of[operand.table]
        if operand.column == _ID:
            return self.store.ids(relation), slot
        return self.store.column(relation, operand.column), slot

    def _compile_filter(self, condition: Condition) -> BatchFilter:
        """A vectorized predicate over candidate batches.

        Comparisons specialize into one list comprehension with the operand
        arrays captured; And/Or (absent from DC-sourced queries but legal
        plan residue) fall back to a per-candidate scalar evaluator.
        """
        if isinstance(condition, Comparison):
            compare = _COMPARE[condition.op]
            left_array, left = self._operand(condition.left)
            right_array, right = self._operand(condition.right)
            if left_array is None and right_array is None:
                keep = compare(left, right)
                return (lambda batch: batch) if keep else (lambda batch: [])
            if left_array is None:

                def filter_const_col(
                    batch, compare=compare, value=left, array=right_array, slot=right
                ):
                    return [c for c in batch if compare(value, array[c[slot]])]

                return filter_const_col
            if right_array is None:

                def filter_col_const(
                    batch, compare=compare, array=left_array, slot=left, value=right
                ):
                    return [c for c in batch if compare(array[c[slot]], value)]

                return filter_col_const

            # EQ/NE dominate DC bodies (joins and FD consequents); their
            # NULL rule inlines into the comprehension, dropping the
            # per-candidate kernel call.
            if condition.op is ComparisonOp.EQ:

                def filter_eq_col_col(
                    batch, a=left_array, i=left, b=right_array, j=right
                ):
                    return [
                        c
                        for c in batch
                        if (l := a[c[i]]) is not None
                        and (r := b[c[j]]) is not None
                        and l == r
                    ]

                return filter_eq_col_col
            if condition.op is ComparisonOp.NE:

                def filter_ne_col_col(
                    batch, a=left_array, i=left, b=right_array, j=right
                ):
                    return [
                        c
                        for c in batch
                        if (l := a[c[i]]) is not None
                        and (r := b[c[j]]) is not None
                        and l != r
                    ]

                return filter_ne_col_col

            def filter_col_col(
                batch,
                compare=compare,
                left_array=left_array,
                left_slot=left,
                right_array=right_array,
                right_slot=right,
            ):
                return [
                    c
                    for c in batch
                    if compare(left_array[c[left_slot]], right_array[c[right_slot]])
                ]

            return filter_col_col
        scalar = self._compile_scalar(condition)
        return lambda batch: [c for c in batch if scalar(c)]

    def _compile_scalar(self, condition: Condition) -> Callable[[tuple], bool]:
        if isinstance(condition, Comparison):
            compare = _COMPARE[condition.op]
            left_array, left = self._operand(condition.left)
            right_array, right = self._operand(condition.right)

            def scalar(candidate):
                lhs = left if left_array is None else left_array[candidate[left]]
                rhs = right if right_array is None else right_array[candidate[right]]
                return compare(lhs, rhs)

            return scalar
        children = [self._compile_scalar(child) for child in condition.conditions]
        if isinstance(condition, And):
            return lambda candidate: all(child(candidate) for child in children)
        if isinstance(condition, Or):
            return lambda candidate: any(child(candidate) for child in children)
        raise TypeError(f"unexpected condition {condition!r}")


def _trim(rows, candidate: tuple, fused: tuple):
    """The new-side *rows* passing every *fused* predicate for *candidate*."""
    keep = rows
    for compare, new_array, other_array, other, new_left in fused:
        if other_array is not None:
            other = other_array[candidate[other]]
        if new_left:
            keep = [row for row in keep if compare(new_array[row], other)]
        else:
            keep = [row for row in keep if compare(other, new_array[row])]
        if not keep:
            break
    return keep


def _linearize(node: PlanNode) -> tuple[ScanPlan, list[JoinPlan]]:
    """A left-deep plan tree as (seed scan, join steps outward-in order)."""
    steps: list[JoinPlan] = []
    while isinstance(node, JoinPlan):
        steps.append(node)
        node = node.left
    steps.reverse()
    return node, steps


# ----------------------------------------------------------------------
# The strategy objects
# ----------------------------------------------------------------------
def _by_relation(database: Database, dirty_ids: Iterable[int]) -> dict[str, list[int]]:
    """The live dirty identifiers grouped by relation, in one pass."""
    grouped: dict[str, list[int]] = {}
    lookup = database.get
    for identifier in dirty_ids:
        fact = lookup(identifier)
        if fact is not None:
            grouped.setdefault(fact.relation, []).append(identifier)
    return grouped


class WitnessEnumerator:
    """One DC's compiled batch plans over a column store: cold and delta.

    Both entry points return witness fact-id sets.  Construction registers
    the columns the plans read on *store*; the plans (one per tuple
    variable) compile on first use, so every DC sharing the store can
    register before the store is built.
    """

    #: Cold seed rows processed per plan run.
    COLD_CHUNK = 8192

    #: First seed chunk of :meth:`cold_chunks`; chunks then double up to
    #: ``cold_chunk``, so an early exit pays for few seed rows when a
    #: witness comes early and for few plan runs when none does.
    FIRST_CHUNK = 64

    def __init__(
        self,
        dc: DenialConstraint,
        schema: Schema,
        store: ColumnStore,
        stats: EnumerationStats | None = None,
    ) -> None:
        self.dc = dc
        self.schema = schema
        self.store = store
        self.stats = stats if stats is not None else EnumerationStats(store.backend)
        self.stats.backend = store.backend
        register_batch_columns(dc, store)
        # The vectorized kernels amortize per-run overhead across the whole
        # chunk, so they want much larger batches than the python-loop
        # kernels.
        self.cold_chunk = 65536 if store.backend == "numpy" else self.COLD_CHUNK
        self._plans: list[BatchPlan] | None = None

    def _compiled(self) -> list[BatchPlan]:
        """One plan per tuple variable, in variable order."""
        if self._plans is None:
            if self.store.backend == "numpy":
                from .vectorized import VectorPlanCompiler

                compiler = VectorPlanCompiler(self.dc, self.schema, self.store)
            else:
                compiler = _PlanCompiler(self.dc, self.schema, self.store)
            self._plans = [compiler.compile_pin(pin) for pin in range(self.dc.width)]
            self.stats.plans_compiled += len(self._plans)
        return self._plans

    def cold(self, database: Database) -> Witnesses:
        stats = self.stats
        stats.cold_runs += 1
        found: Witnesses = set()
        for part in self._seed_chunks(self.cold_chunk):
            found |= part
        stats.witnesses_emitted += len(found)
        return found

    def cold_chunks(self, database: Database) -> Iterator[Witnesses]:
        """The cold family in pieces whose union is :meth:`cold`'s result.

        Pieces are produced lazily, so a caller that only needs *some*
        witness (a consistency check) stops at the first non-empty one.
        Unlike :meth:`cold`, it leaves ``cold_runs`` and
        ``witnesses_emitted`` alone.
        """
        return self._seed_chunks(self.FIRST_CHUNK)

    def _seed_chunks(self, first: int) -> Iterator[Witnesses]:
        """Run the cold plan over its relation's live rows, *first* at first.

        Witnesses partition by the pinned seed row, so chunking only bounds
        the intermediate work per run — the union is unchanged.
        """
        plan = self._compiled()[0]
        seed = self.store.relation(plan.seed_relation).live_rows()
        start, size = 0, min(first, self.cold_chunk)
        while start < len(seed):
            yield plan.run(seed[start : start + size], self.stats)
            start += size
            size = min(2 * size, self.cold_chunk)

    def delta(self, database: Database, dirty_ids: Iterable[int]) -> Witnesses:
        """One set-based pass per pinned tuple variable, seeded by relation.

        The dirty identifiers are grouped by relation **once**; each plan
        is seeded with its pin relation's live dirty rows.
        """
        stats = self.stats
        stats.delta_runs += 1
        store = self.store
        by_relation = _by_relation(database, dirty_ids)
        found: Witnesses = set()
        if not by_relation:
            return found
        rows_cache: dict[str, list[int]] = {}
        seeded = []
        for plan in self._compiled():
            identifiers = by_relation.get(plan.seed_relation)
            if not identifiers:
                continue
            rows = rows_cache.get(plan.seed_relation)
            if rows is None:
                rows = store.relation(plan.seed_relation).rows_for_ids(
                    identifiers
                )
                rows_cache[plan.seed_relation] = rows
            seeded.append((plan, rows))
        if store.backend == "numpy":
            # Plans pinned on different variables of one DC re-find the
            # same witnesses; dedup survivors across plans *before* the
            # python-object emission instead of per-plan.
            from .vectorized import delta_union

            found = delta_union(seeded, stats)
        else:
            for plan, rows in seeded:
                found |= plan.run(rows, stats)
        stats.witnesses_emitted += len(found)
        return found


def build_enumerators(
    dcs: Sequence[DenialConstraint],
    database: Database,
    stats: Sequence[EnumerationStats | None] | None = None,
    vector_backend: str | None = None,
) -> tuple[list[WitnessEnumerator], ColumnStore]:
    """Per-DC enumerators plus the column store they join over.

    *stats* threads session-owned counter records through a rebuild so
    they accumulate; ``None`` entries are freshly created.
    *vector_backend* picks the column backend (``"numpy"``/``"list"``;
    ``None`` = the process default, see ``columnar.VECTOR_BACKEND``).

    Returns the enumerators in *dcs* order and the store, built from
    *database*.  A caller that keeps them feeds the store the change
    events from then on.
    """
    counters = list(stats) if stats is not None else [None] * len(dcs)
    schema = database.schema
    store = make_column_store(schema, vector_backend)
    enumerators = [
        WitnessEnumerator(dc, schema, store, counter)
        for dc, counter in zip(dcs, counters)
    ]
    store.build(database)
    return enumerators, store


def cold_build(
    dcs: Sequence[DenialConstraint],
    database: Database,
    stats: Sequence[EnumerationStats | None] | None = None,
    vector_backend: str | None = None,
) -> tuple[list[WitnessEnumerator], ColumnStore, list[Witnesses]]:
    """One cold enumeration of every DC over a freshly built column store.

    Returns :func:`build_enumerators`' result plus each DC's witness
    family, in *dcs* order.  The one cold-build path: a session's rebuild
    keeps the enumerators and the store to run deltas later, while the
    one-shot detection in :mod:`repro.violations.minimal` drops them.
    """
    enumerators, store = build_enumerators(dcs, database, stats, vector_backend)
    return (
        enumerators,
        store,
        [enumerator.cold(database) for enumerator in enumerators],
    )
