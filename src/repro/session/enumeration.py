"""Witness-enumeration backends: compiled probe plans vs. set-based batch joins.

Every witness the session maintains — cold build and delta re-enumeration
alike — is found by one of two per-DC strategies, each compiled **once**
into one plan per tuple variable (the variable the plan is *pinned*
on, i.e. seeded with):

* :class:`ProbeEnumerator` — the tuple-at-a-time reference.  A
  :class:`ProbePlan` fixes the binding order (next comes a variable an
  equality reaches from the bound ones, else the first unbound one), the
  hash probes into the :class:`~repro.session.witnesses.EqualityColumnIndex`
  at each level, and the predicate checks that become fully bound there,
  compiled to the ``_COMPARE`` kernels over positional fact values.  It
  serves every DC, whatever its equality graph.
* :class:`BatchEnumerator` compiles the DC into vectorized batch join
  plans and runs them over the session's maintained
  :class:`~repro.session.columnar.ColumnStore`.  The plan's join order is
  chosen from the DC's equality graph by the SQL planner
  (:func:`~repro.sqlengine.planner.plan_query` with
  ``reorder_equalities=True`` over :func:`~repro.violations.sqlgen.conflict_query`);
  execution replaces per-tuple recursion with grouped hash joins over row
  batches and bound predicates applied as filters over candidate batches.

Both backends use their plan family the same way: the **cold** entry
point runs the pin-0 plan over its relation (in seed chunks, see
:meth:`WitnessEnumerator.cold_chunks`), and the **delta** entry point runs
each pin's plan over the dirty ids of that pin's relation — one pass per
pin instead of a recursion per dirty fact.

Strategy selection (:func:`build_enumerators`) takes ``engine="probe" |
"batch" | "auto"``: ``auto`` picks the batch backend exactly for the DCs
whose equality-join graph connects all tuple variables
(:func:`batch_compilable`) and falls back to the probe for the rest;
``batch`` demands compilability and raises otherwise.  Whatever the
backend, the returned witness sets are required to be identical — the
randomized cold + delta-stream suite in ``tests/session/test_setbased.py``
pins batch == probe, and ``tests/violations/test_sqlgen_conformance.py``
pins the probe to brute-force evaluation of the DC body.

:func:`cold_build` is the one cold-build path: a session's rebuild keeps
the enumerators and indexes it returns to run deltas, and the one-shot
detection in :mod:`repro.violations.minimal` runs it with ``engine="auto"``
and drops them.

Each enumerator carries an :class:`EnumerationStats` record (plans
compiled, batches joined, candidate rows scanned, witnesses emitted),
surfaced per DC through ``session.stats()``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from ..constraints.base import ComparisonOp
from ..constraints.dc import DenialConstraint, Predicate, Term
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
from .witnesses import EqualityColumnIndex, equality_columns

ENGINES = ("probe", "batch", "auto")

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
        "engine",
        "backend",
        "plans_compiled",
        "batches_joined",
        "rows_scanned",
        "witnesses_emitted",
        "cold_runs",
        "delta_runs",
    )

    def __init__(self, engine: str) -> None:
        self.engine = engine
        #: Column backend serving a batch engine ("list"/"numpy"); None for
        #: the probe reference, which has no columnar working set.
        self.backend: str | None = None
        self.plans_compiled = 0
        self.batches_joined = 0
        self.rows_scanned = 0
        self.witnesses_emitted = 0
        self.cold_runs = 0
        self.delta_runs = 0

    def as_dict(self) -> dict:
        return {
            "engine": self.engine,
            "backend": self.backend,
            "plans_compiled": self.plans_compiled,
            "batches_joined": self.batches_joined,
            "rows_scanned": self.rows_scanned,
            "witnesses_emitted": self.witnesses_emitted,
            "cold_runs": self.cold_runs,
            "delta_runs": self.delta_runs,
        }


def batch_compilable(dc: DenialConstraint) -> bool:
    """Whether the batch backend can serve *dc*.

    True when the equality-join graph (tuple variables as nodes, cross
    variable equality predicates as edges) connects every variable — then a
    left-deep plan exists in which **every** join step carries a hash key,
    whatever variable seeds it (connectivity is start-independent), so both
    the cold plan and every per-pin delta plan avoid cross products.  Unary
    DCs are trivially compilable (a scan plus vectorized filters).

    Additionally, a DC whose graph leaves **exactly one** tuple variable
    disconnected is compilable when that variable is bound only by
    constant/single-table predicates (no predicate mentions it together
    with another variable): the plan's single keyless step degrades to a
    masked pre-filtered seed crossed with the joined batch, which is the
    witness semantics anyway — there is no key to exploit.
    """
    if dc.width <= 1:
        return True
    edges: dict[str, set[str]] = {variable: set() for variable, _ in dc.variables}
    for predicate in dc.equality_join_predicates():
        left, right = predicate.left.variable, predicate.right.variable
        edges[left].add(right)
        edges[right].add(left)
    components: list[set[str]] = []
    seen: set[str] = set()
    for variable, _ in dc.variables:
        if variable in seen:
            continue
        component = {variable}
        frontier = [variable]
        while frontier:
            for neighbor in edges[frontier.pop()]:
                if neighbor not in component:
                    component.add(neighbor)
                    frontier.append(neighbor)
        seen |= component
        components.append(component)
    if len(components) == 1:
        return True
    if len(components) != 2:
        return False
    for component in components:
        if len(component) != 1:
            continue
        lone = next(iter(component))
        if all(
            lone not in predicate.variables() or len(predicate.variables()) == 1
            for predicate in dc.predicates
        ):
            return True
    return False


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
    """One DC compiled for one seed variable: scan → grouped joins → filters.

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
            if not step.equi_keys:
                # The lone pre-filtered variable (see batch_compilable):
                # its single-alias conditions trim the crossed rows before
                # expansion; only the step residual survives as filters.
                join = self._compile_cross(step)
                filters = [
                    self._compile_filter(condition) for condition in step.residual
                ]
                joins.append((join, filters))
                continue
            conditions = list(step.right.filters) + list(step.residual)
            # Fuse pairwise predicates into the join: candidates failing
            # them are filtered during group expansion and never
            # materialized as tuples.  Whatever can't fuse stays a batch
            # filter over the join's output.
            fused, unfused = [], []
            for condition in conditions:
                pairwise = self._fusable(condition, step.right.table.alias)
                (fused if pairwise is not None else unfused).append(
                    pairwise if pairwise is not None else condition
                )
            join = self._compile_join(step, fused)
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
                    keep = rows
                    for compare, new_array, other_array, other, new_left in fused:
                        if other_array is not None:
                            other = other_array[candidate[other]]
                        if new_left:
                            keep = [
                                row for row in keep if compare(new_array[row], other)
                            ]
                        else:
                            keep = [
                                row for row in keep if compare(other, new_array[row])
                            ]
                        if not keep:
                            break
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
                if keep:
                    extend([candidate + (row,) for row in keep])
            return out

        return join_multi

    def _compile_cross(self, step: JoinPlan) -> Callable[[list], list]:
        """A keyless step: pre-filtered live rows crossed with the batch.

        The new side's rows are computed once per run (live scan + its
        single-table predicates) and appended to every candidate — the
        masked pre-filtered seed of the lone disconnected variable.
        """
        table = self.store.relation(step.right.table.relation)
        row_predicates = tuple(
            self._compile_row_predicate(condition, step.right.table.alias)
            for condition in step.right.filters
        )

        def join_cross(batch, table=table, predicates=row_predicates):
            ids = table.ids
            rows = [row for row in range(len(ids)) if ids[row] is not None]
            for predicate in predicates:
                rows = [row for row in rows if predicate(row)]
                if not rows:
                    return []
            out: list[tuple[int, ...]] = []
            extend = out.extend
            for candidate in batch:
                extend([candidate + (row,) for row in rows])
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


def _linearize(node: PlanNode) -> tuple[ScanPlan, list[JoinPlan]]:
    """A left-deep plan tree as (seed scan, join steps outward-in order)."""
    steps: list[JoinPlan] = []
    while isinstance(node, JoinPlan):
        steps.append(node)
        node = node.left
    steps.reverse()
    return node, steps


# ----------------------------------------------------------------------
# Compiled probe plans
# ----------------------------------------------------------------------
class ProbePlan:
    """One DC compiled for one pinned variable: a fixed-order recursion.

    ``levels[k]`` binds the *k*-th variable of the binding order as
    ``(relation, probes, checks)``; level 0 is the pinned variable, bound
    to each seed fact in turn.  A level's candidates are the facts in all
    of its hash probes ``(buckets, level, position, constant)`` — the
    equality-index bucket of the value at ``position`` of the fact bound
    at ``level``, or of ``constant`` when ``level`` is None — or its whole
    relation when it has none.  Its checks ``(compare, position, level,
    other_position, constant, new_left)`` compare a candidate's value at
    ``position`` with that bound value or constant or, when ``level`` is
    the check's own level, with the candidate's value at
    ``other_position``.
    """

    __slots__ = ("seed_relation", "levels", "satisfiable")

    def __init__(self, levels: tuple, satisfiable: bool) -> None:
        self.seed_relation = levels[0][0]
        self.levels = levels
        #: False when a constant-only predicate fails: no witness at all.
        self.satisfiable = satisfiable

    def run(
        self, database: Database, seed_ids: Sequence[int], stats: EnumerationStats
    ) -> Witnesses:
        found: Witnesses = set()
        levels, last = self.levels, len(self.levels) - 1
        lookup = database.__getitem__
        pools: dict[str, list[tuple[int, tuple]]] = {}

        def rows_of(ids: Iterable[int]) -> list[tuple[int, tuple]]:
            return [(identifier, lookup(identifier).values) for identifier in ids]

        def descend(level: int, bound_ids: tuple, bound_values: tuple, rows) -> None:
            stats.rows_scanned += len(rows)
            for compare, position, source, other_position, constant, new_left in (
                levels[level][2]
            ):
                if source == level:
                    rows = [
                        row
                        for row in rows
                        if compare(row[1][position], row[1][other_position])
                    ]
                else:
                    other = constant
                    if source is not None:
                        other = bound_values[source][other_position]
                    if new_left:
                        rows = [row for row in rows if compare(row[1][position], other)]
                    else:
                        rows = [row for row in rows if compare(other, row[1][position])]
                if not rows:
                    return
            if level == last:
                found.update(frozenset(bound_ids + (row[0],)) for row in rows)
                return
            relation, probes, _ = levels[level + 1]
            if not probes and relation not in pools:
                pools[relation] = rows_of(database.relation_ids(relation))
            for identifier, values in rows:
                values_now = bound_values + (values,)
                descend(
                    level + 1,
                    bound_ids + (identifier,),
                    values_now,
                    rows_of(_probed(probes, values_now)) if probes else pools[relation],
                )

        if self.satisfiable:
            descend(0, (), (), rows_of(seed_ids))
        return found


def _probed(probes: tuple, bound_values: tuple) -> Iterable[int]:
    """The fact ids in every probed bucket (NULL and NaN equal nothing)."""
    ids = None
    for buckets, source, position, constant in probes:
        value = constant if source is None else bound_values[source][position]
        bucket = None if value is None or value != value else buckets.get(value)
        if not bucket:
            return ()
        ids = bucket if ids is None else ids & bucket
    return ids


def _probe_sides(
    predicate: Predicate, variable: str, bound: Sequence[str]
) -> tuple[Term, Term] | None:
    """``(own, other)`` when *predicate* can hash-probe *variable*'s facts.

    That is an equality between *variable* and a constant or a variable in
    *bound*; the equality index covers every equality column of a probe DC.
    """
    if predicate.op is ComparisonOp.EQ:
        for own, other in (
            (predicate.left, predicate.right),
            (predicate.right, predicate.left),
        ):
            if own.variable == variable and (
                other.is_constant or other.variable in bound
            ):
                return own, other
    return None


def compile_probe_plan(
    dc: DenialConstraint,
    schema: Schema,
    pin: int,
    eq_index: EqualityColumnIndex | None,
) -> ProbePlan:
    """*dc*'s :class:`ProbePlan` pinned on tuple variable number *pin*.

    The binding order puts next a variable some equality reaches from the
    bound variables (or a constant), else the first unbound one.
    Each predicate lands at the level binding its last variable: as a
    hash probe when it is such an equality, as a check otherwise.
    """
    variables = [variable for variable, _ in dc.variables]
    order = [variables[pin]]
    while len(order) < len(variables):
        unbound = [variable for variable in variables if variable not in order]
        reachable = (
            variable
            for variable in unbound
            if any(_probe_sides(p, variable, order) for p in dc.predicates)
        )
        order.append(next(reachable, unbound[0]))
    level_of = {variable: level for level, variable in enumerate(order)}

    def position(term: Term) -> int:
        relation = dc.relation_of(term.variable)
        return schema.signature(relation).index_of(term.attribute)

    def source(term: Term) -> tuple[int | None, int | None, object]:
        if term.is_constant:
            return None, None, term.constant
        return level_of[term.variable], position(term), None

    probes: list[list] = [[] for _ in order]
    checks: list[list] = [[] for _ in order]
    satisfiable = True
    for predicate in dc.predicates:
        compare = _COMPARE[predicate.op]
        left, right = predicate.left, predicate.right
        if left.is_constant and right.is_constant:
            satisfiable = satisfiable and compare(left.constant, right.constant)
            continue
        level = max(level_of[variable] for variable in predicate.variables())
        sides = level and _probe_sides(predicate, order[level], order[:level])
        if sides:
            own, other = sides
            buckets = eq_index.buckets(dc.relation_of(own.variable), own.attribute)
            probes[level].append((buckets, *source(other)))
        elif not left.is_constant and level_of[left.variable] == level:
            checks[level].append((compare, position(left), *source(right), True))
        else:
            checks[level].append((compare, position(right), *source(left), False))
    levels = tuple(
        (dc.relation_of(variable), tuple(probes[level]), tuple(checks[level]))
        for level, variable in enumerate(order)
    )
    return ProbePlan(levels, satisfiable)


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
    """One DC's enumeration strategy: a cold scan and a delta pass.

    Both entry points return witness fact-id sets; every backend must
    return exactly the sets the probe reference returns.  A backend
    compiles one plan per tuple variable on first use (:meth:`_compile`)
    and says how the cold plan is seeded (:meth:`_cold_seed`); the cold
    entry points here share that seed loop.
    """

    stats: EnumerationStats

    #: Cold seed rows processed per plan run.
    COLD_CHUNK = 8192
    cold_chunk = COLD_CHUNK

    #: First seed chunk of :meth:`cold_chunks`; chunks then double up to
    #: ``cold_chunk``, so an early exit pays for few seed rows when a
    #: witness comes early and for few plan runs when none does.
    FIRST_CHUNK = 64

    _plans: list | None = None

    def _compile(self) -> list:
        """One plan per tuple variable, in variable order."""
        raise NotImplementedError

    def _compiled(self) -> list:
        if self._plans is None:
            self._plans = self._compile()
            self.stats.plans_compiled += len(self._plans)
        return self._plans

    def _cold_seed(self, database: Database) -> tuple[Callable, Sequence]:
        """``(run, seed)``: the cold plan's runner and its full seed."""
        raise NotImplementedError

    def cold(self, database: Database) -> Witnesses:
        stats = self.stats
        stats.cold_runs += 1
        found: Witnesses = set()
        for part in self._seed_chunks(database, self.cold_chunk):
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
        return self._seed_chunks(database, self.FIRST_CHUNK)

    def _seed_chunks(self, database: Database, first: int) -> Iterator[Witnesses]:
        """Run the cold plan over its seed, *first* rows at first.

        Witnesses partition by the pinned seed row, so chunking only bounds
        the intermediate work per run — the union is unchanged.
        """
        run, seed = self._cold_seed(database)
        start, size = 0, min(first, self.cold_chunk)
        while start < len(seed):
            yield run(seed[start : start + size])
            start += size
            size = min(2 * size, self.cold_chunk)

    def delta(self, database: Database, dirty_ids: Iterable[int]) -> Witnesses:
        raise NotImplementedError


class ProbeEnumerator(WitnessEnumerator):
    """The tuple-at-a-time reference backend: one :class:`ProbePlan` per pin.

    Serves any DC.  Its hash probes read the shared *eq_index* (``None``
    when no equality predicate needs one), which its owner maintains.
    """

    def __init__(
        self,
        dc: DenialConstraint,
        schema: Schema,
        eq_index: EqualityColumnIndex | None,
        stats: EnumerationStats | None = None,
    ) -> None:
        self.dc = dc
        self.schema = schema
        self.eq_index = eq_index
        self.stats = stats if stats is not None else EnumerationStats("probe")
        self.stats.engine = "probe"
        self.stats.backend = None

    def _compile(self) -> list[ProbePlan]:
        return [
            compile_probe_plan(self.dc, self.schema, pin, self.eq_index)
            for pin in range(self.dc.width)
        ]

    def _cold_seed(self, database: Database) -> tuple[Callable, Sequence]:
        plan = self._compiled()[0]
        stats = self.stats
        return (
            lambda ids: plan.run(database, ids, stats),
            database.relation_ids(plan.seed_relation),
        )

    def delta(self, database: Database, dirty_ids: Iterable[int]) -> Witnesses:
        """Each pin's plan over the dirty identifiers of its relation."""
        stats = self.stats
        stats.delta_runs += 1
        by_relation = _by_relation(database, dirty_ids)
        found: Witnesses = set()
        for plan in self._compiled():
            identifiers = by_relation.get(plan.seed_relation)
            if identifiers:
                found |= plan.run(database, identifiers, stats)
        stats.witnesses_emitted += len(found)
        return found


class BatchEnumerator(WitnessEnumerator):
    """The set-based backend: compiled batch join plans over the column store."""

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
        self.stats = stats if stats is not None else EnumerationStats("batch")
        self.stats.engine = "batch"
        self.stats.backend = store.backend
        register_batch_columns(dc, store)
        # The vectorized kernels amortize per-run overhead across the whole
        # chunk, so they want much larger batches than the python-loop
        # kernels.  Plans compile lazily on first enumeration, so
        # construction can finish registering every DC's columns before the
        # store is built.
        if store.backend == "numpy":
            self.cold_chunk = 65536

    def _compile(self) -> list[BatchPlan]:
        if self.store.backend == "numpy":
            from .vectorized import VectorPlanCompiler

            compiler = VectorPlanCompiler(self.dc, self.schema, self.store)
        else:
            compiler = _PlanCompiler(self.dc, self.schema, self.store)
        return [compiler.compile_pin(pin) for pin in range(self.dc.width)]

    def _cold_seed(self, database: Database) -> tuple[Callable, Sequence]:
        plan = self._compiled()[0]
        stats = self.stats
        return (
            lambda rows: plan.run(rows, stats),
            self.store.relation(plan.seed_relation).live_rows(),
        )

    def delta(self, database: Database, dirty_ids: Iterable[int]) -> Witnesses:
        """One set-based pass per pinned tuple variable, seeded by relation.

        The dirty identifiers are grouped by relation **once**; each plan
        is seeded with its pin relation's group.
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
    engine: str,
    dcs: Sequence[DenialConstraint],
    database: Database,
    stats: Sequence[EnumerationStats | None] | None = None,
    vector_backend: str | None = None,
) -> tuple[list[WitnessEnumerator], ColumnStore | None, EqualityColumnIndex | None]:
    """Per-DC strategy objects plus the indexes they read.

    *engine* is ``"probe"`` (force the reference path everywhere),
    ``"batch"`` (force batch; raises ``ValueError`` on a DC the batch
    backend cannot compile) or ``"auto"`` (batch where compilable, probe
    fallback).  *stats* threads session-owned counter records through a
    rebuild so they accumulate; ``None`` entries are freshly created.
    *vector_backend* picks the column backend (``"numpy"``/``"list"``;
    ``None`` = the process default, see ``columnar.VECTOR_BACKEND``).

    Returns the enumerators in *dcs* order, the column store the batch DCs
    join over and the equality index covering the equality columns of the
    probe DCs — each built from *database*, or ``None`` when no DC needs
    it.  A caller that keeps them feeds both the change events from then
    on.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown enumeration engine {engine!r}; expected one of {ENGINES}"
        )
    counters: list[EnumerationStats | None] = (
        list(stats) if stats is not None else [None] * len(dcs)
    )
    use_batch: list[bool] = []
    for dc in dcs:
        if engine == "probe":
            use_batch.append(False)
        elif batch_compilable(dc):
            use_batch.append(True)
        elif engine == "batch":
            raise ValueError(
                f"constraint {dc.name!r} is not equality-joinable; the "
                'batch engine cannot serve it (use engine="auto")'
            )
        else:
            use_batch.append(False)
    schema = database.schema
    store = make_column_store(schema, vector_backend) if any(use_batch) else None
    columns = equality_columns(
        [dc for dc, batch in zip(dcs, use_batch) if not batch]
    )
    eq_index = EqualityColumnIndex(schema, columns) if columns else None
    enumerators: list[WitnessEnumerator] = []
    for dc, batch, counter in zip(dcs, use_batch, counters):
        if batch:
            enumerators.append(BatchEnumerator(dc, schema, store, counter))
        else:
            enumerators.append(ProbeEnumerator(dc, schema, eq_index, counter))
    if store is not None:
        store.build(database)
    if eq_index is not None:
        eq_index.build(database)
    return enumerators, store, eq_index


def cold_build(
    engine: str,
    dcs: Sequence[DenialConstraint],
    database: Database,
    stats: Sequence[EnumerationStats | None] | None = None,
    vector_backend: str | None = None,
) -> tuple[
    list[WitnessEnumerator],
    ColumnStore | None,
    EqualityColumnIndex | None,
    list[Witnesses],
]:
    """One cold enumeration of every DC over freshly built indexes.

    Returns :func:`build_enumerators`' result plus each DC's witness
    family, in *dcs* order.  The one cold-build path: a session's rebuild
    keeps the enumerators and indexes to run deltas later, while the
    one-shot detection in :mod:`repro.violations.minimal` drops them.
    """
    enumerators, store, eq_index = build_enumerators(
        engine, dcs, database, stats, vector_backend
    )
    return (
        enumerators,
        store,
        eq_index,
        [enumerator.cold(database) for enumerator in enumerators],
    )
