"""Witness enumeration: compiled batch join plans over a column store.

Every witness the session maintains — cold build and delta re-enumeration
alike — is found by one :class:`WitnessEnumerator` per DC.  It compiles the
DC **once** into one batch plan per tuple variable (the variable the plan
is *pinned* on, i.e. seeded with) and runs it over the session's
maintained :class:`~repro.session.columnar.ColumnStore`.

Planning happens here, once per pin, straight from the DC's predicates
(:func:`plan_pin`): the join order follows the DC's equality graph, so
every variable an equality reaches from the bound ones joins through a
grouped hash join, and a variable none reaches — the next part of a
disconnected equality graph, or any variable of an inequality-only DC —
joins through a keyless **cross step**, a filtered cross product of the
bound batch with the new side's pre-filtered live rows.  The remaining
predicates apply as filters over candidate batches at the first step that
binds all their variables.

Each column backend compiles that one :class:`PinPlan` into its own
kernels: pure-python lists (this module) or numpy arrays
(:mod:`repro.session.vectorized`).  Which one runs is not an option: the
store is built on the process's backend (``columnar.VECTOR_BACKEND``,
numpy whenever it imports).  The list kernels fuse pairwise
predicates into the hash join and the cross step per candidate, so no
unfiltered pair is ever materialized; the numpy hash and cross steps
expand the batch in blocks of at most ``CROSS_PAIR_BUDGET`` pairs and
filter each block before keeping its survivors.

The **cold** entry point runs the pin-0 plan over its relation (in seed
chunks, see :meth:`WitnessEnumerator.cold_chunks`), and the **delta** entry
point runs each pin's plan over the dirty ids of that pin's relation — one
pass per pin instead of a recursion per dirty fact.  On a numpy store, a
delta seeding at most ``vectorized.SCALAR_DELTA_ROWS`` dirty rows runs the
list kernels over the list store the numpy store owns instead, compiled
from the same pin plans, because the numpy kernels' per-call floor
outweighs their speed on a few rows.  Both backends return
identical witness sets: ``tests/violations/test_enumeration_conformance.py``
pins each to brute-force evaluation of the DC body, and the differential
suites in ``tests/session`` pin the maintained families to fresh cold
builds on the other backend.

:func:`cold_build` is the one cold-build path: a session's rebuild keeps
the enumerators and the column store it returns to run deltas, and the
one-shot detection in :mod:`repro.violations.minimal` drops them.

Each enumerator carries an :class:`EnumerationStats` record (plans
compiled, batches joined, candidate rows scanned, witnesses emitted, delta
runs and how many of them took the scalar path), surfaced per DC through
``session.stats()``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from ..constraints.base import ComparisonOp
from ..constraints.dc import DenialConstraint, Predicate, Term
from ..relational.database import Database
from ..relational.values import values_comparable
from .columnar import ColumnStore, make_column_store

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
        "scalar_delta_runs",
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
        #: Delta runs a numpy store served with the list kernels (below
        #: ``vectorized.SCALAR_DELTA_ROWS`` seed rows).
        self.scalar_delta_runs = 0

    def as_dict(self) -> dict:
        return {
            "backend": self.backend,
            "plans_compiled": self.plans_compiled,
            "batches_joined": self.batches_joined,
            "rows_scanned": self.rows_scanned,
            "witnesses_emitted": self.witnesses_emitted,
            "cold_runs": self.cold_runs,
            "delta_runs": self.delta_runs,
            "scalar_delta_runs": self.scalar_delta_runs,
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
# Pin plans: one DC's join order and predicate placement per seed
# ----------------------------------------------------------------------
class PlanStep(NamedTuple):
    """Bind one more tuple variable to the candidate batch.

    ``keys`` are the equality joins linking *variable* to the variables
    already bound, as ``(bound term, new term)`` pairs; a step without keys
    is a cross step.  ``pre_filters`` are the predicates over *variable*
    alone; ``residual`` the predicates whose last unbound variable is
    *variable*.
    """

    variable: str
    keys: tuple[tuple[Term, Term], ...]
    pre_filters: tuple[Predicate, ...]
    residual: tuple[Predicate, ...]


class PinPlan(NamedTuple):
    """One DC's linear plan seeded on one tuple variable."""

    seed: str
    seed_filters: tuple[Predicate, ...]
    steps: tuple[PlanStep, ...]
    #: Predicates no step completes (the constant-only ones of a
    #: one-variable DC).
    final: tuple[Predicate, ...]

    @property
    def order(self) -> tuple[str, ...]:
        """The tuple variables in slot order: the seed, then each step's."""
        return (self.seed,) + tuple(step.variable for step in self.steps)


def _term_variables(predicate: Predicate) -> list[str]:
    return [
        term.variable
        for term in (predicate.left, predicate.right)
        if not term.is_constant
    ]


def plan_pin(
    dc: DenialConstraint, pin: int, live_count: Callable[[str], int]
) -> PinPlan:
    """The linear plan of *dc* seeded on its tuple variable number *pin*.

    **Order.**  After the seed, each step binds a variable some equality
    join links to the bound ones; when several qualify, the one whose
    relation has the fewest live rows (*live_count*), ties broken by the
    variable order rotated to start at the seed.  When none qualifies (the
    next part of a disconnected equality graph) the same rule picks among
    all unbound variables, and that step is a cross step.

    **Placement.**  A predicate over one variable filters that variable —
    the seed filters, or the pre-filters of the step binding it.  An
    equality join is a hash key of the step binding its second variable.
    Every other predicate is the residual of the first step after which
    all its variables are bound: a constant-only one lands on the first
    step, or in the final filter of a one-variable DC.
    """
    names = [variable for variable, _ in dc.variables]
    single: dict[str, list[Predicate]] = {name: [] for name in names}
    joins: list[Predicate] = []
    pending: list[Predicate] = []
    linked: dict[str, set[str]] = {name: set() for name in names}
    for predicate in dc.predicates:
        used = _term_variables(predicate)
        if len(set(used)) == 1:
            single[used[0]].append(predicate)
        elif predicate.is_equality_join():
            joins.append(predicate)
            linked[predicate.left.variable].add(predicate.right.variable)
            linked[predicate.right.variable].add(predicate.left.variable)
        else:
            pending.append(predicate)
    seed, *remaining = names[pin:] + names[:pin]
    bound = {seed}
    steps: list[PlanStep] = []
    while remaining:
        pool = [name for name in remaining if linked[name] & bound] or remaining
        # min keeps the first of equal costs: rotated variable order.
        variable = min(pool, key=lambda name: live_count(dc.relation_of(name)))
        remaining.remove(variable)
        keys = tuple(
            (join.left, join.right)
            if join.right.variable == variable
            else (join.right, join.left)
            for join in joins
            if {join.left.variable, join.right.variable} - bound == {variable}
        )
        bound.add(variable)
        residual = tuple(p for p in pending if bound.issuperset(_term_variables(p)))
        pending = [p for p in pending if not bound.issuperset(_term_variables(p))]
        steps.append(PlanStep(variable, keys, tuple(single[variable]), residual))
    return PinPlan(seed, tuple(single[seed]), tuple(steps), tuple(pending))


# ----------------------------------------------------------------------
# List-backend batch plans
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
        "seed_relation",
        "seed_filters",
        "joins",
        "final_filters",
        "id_arrays",
        "width",
    )

    def __init__(
        self,
        seed_relation: str,
        seed_filters: list[BatchFilter],
        joins: list[tuple[Callable[[list], list], list[BatchFilter]]],
        final_filters: list[BatchFilter],
        id_arrays: list[list],
    ) -> None:
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


def _compile_list_plan(
    dc: DenialConstraint, plan: PinPlan, store: ColumnStore
) -> BatchPlan:
    """*plan* as list kernels over *store*.

    A hash step fuses its pairwise pre-filters and residual predicates
    into the join (see :func:`_fusable`); a cross step pre-filters the new
    side's rows by its pre-filters and fuses its pairwise residual.  What
    cannot fuse stays a batch filter over the step's output.
    """
    slot_of = {variable: slot for slot, variable in enumerate(plan.order)}

    def column(term: Term) -> list:
        return store.column(dc.relation_of(term.variable), term.attribute)

    def operand(term: Term) -> tuple[list | None, object]:
        """``(column array, slot)`` for a column term, ``(None, value)`` else."""
        if term.is_constant:
            return None, term.constant
        return column(term), slot_of[term.variable]

    joins: list[tuple[Callable[[list], list], list[BatchFilter]]] = []
    for step in plan.steps:
        conditions = step.residual
        if step.keys:
            conditions = step.pre_filters + conditions
        fused, unfused = [], []
        for predicate in conditions:
            spec = _fusable(predicate, step.variable, column, operand)
            if spec is None:
                unfused.append(predicate)
            else:
                fused.append(spec)
        relation = dc.relation_of(step.variable)
        if step.keys:
            keys = [
                (
                    column(bound),
                    slot_of[bound.variable],
                    store.group(relation, new.attribute),
                )
                for bound, new in step.keys
            ]
            join = _hash_join(keys, tuple(fused))
        else:
            predicates = tuple(
                _row_predicate(predicate, column) for predicate in step.pre_filters
            )
            join = _cross_join(store.relation(relation), predicates, tuple(fused))
        joins.append((join, [_batch_filter(p, operand) for p in unfused]))
    return BatchPlan(
        seed_relation=dc.relation_of(plan.seed),
        seed_filters=[_batch_filter(p, operand) for p in plan.seed_filters],
        joins=joins,
        final_filters=[_batch_filter(p, operand) for p in plan.final],
        id_arrays=[store.ids(dc.relation_of(variable)) for variable in plan.order],
    )


def _fusable(predicate: Predicate, new_variable: str, column, operand):
    """Spec for a predicate fusable into the step binding *new_variable*.

    Fusable means exactly one term on the new variable and the other a
    bound slot's column or a constant — then the check runs per expanded
    row, before any candidate tuple exists.  Returns ``(compare,
    new_array, other_array, other, new_on_left)`` (``other_array is None``
    ⇒ ``other`` is the constant), or None.
    """
    left, right = predicate.left, predicate.right
    left_new = left.variable == new_variable
    if left_new == (right.variable == new_variable):
        return None
    new_term, other_term = (left, right) if left_new else (right, left)
    other_array, other = operand(other_term)
    return (_COMPARE[predicate.op], column(new_term), other_array, other, left_new)


def _hash_join(keys: list, fused: tuple) -> Callable[[list], list]:
    """A grouped hash join: probe the new slot's key groups per batch row.

    *keys* are ``(bound array, bound slot, new-side group)`` triples;
    *fused* predicates (see :func:`_fusable`) trim each probed group
    before the surviving rows are appended as candidate tuples.
    """
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


def _cross_join(table, predicates: tuple, fused: tuple) -> Callable[[list], list]:
    """A keyless step: the new side's live rows crossed with the batch.

    The new side's rows are computed once per run (live scan + its
    single-variable *predicates*); *fused* predicates (see
    :func:`_fusable`) then trim them per candidate before any pair is
    appended.
    """

    def join_cross(batch, table=table, predicates=predicates, fused=fused):
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


def _row_predicate(predicate: Predicate, column) -> Callable[[int], bool]:
    """A one-variable predicate as a test on that relation's row numbers."""
    compare = _COMPARE[predicate.op]
    left, right = predicate.left, predicate.right
    if right.is_constant:
        return lambda row, compare=compare, array=column(left), value=right.constant: (
            compare(array[row], value)
        )
    if left.is_constant:
        return lambda row, compare=compare, value=left.constant, array=column(right): (
            compare(value, array[row])
        )
    return lambda row, compare=compare, a=column(left), b=column(right): (
        compare(a[row], b[row])
    )


def _batch_filter(predicate: Predicate, operand) -> BatchFilter:
    """A predicate as one list comprehension over candidate batches."""
    compare = _COMPARE[predicate.op]
    left_array, left = operand(predicate.left)
    right_array, right = operand(predicate.right)
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

    # EQ/NE dominate DC bodies (joins and FD consequents); their NULL rule
    # inlines into the comprehension, dropping the per-candidate kernel
    # call.
    if predicate.op is ComparisonOp.EQ:

        def filter_eq_col_col(batch, a=left_array, i=left, b=right_array, j=right):
            return [
                c
                for c in batch
                if (l := a[c[i]]) is not None
                and (r := b[c[j]]) is not None
                and l == r
            ]

        return filter_eq_col_col
    if predicate.op is ComparisonOp.NE:

        def filter_ne_col_col(batch, a=left_array, i=left, b=right_array, j=right):
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

# ----------------------------------------------------------------------
# The strategy objects
# ----------------------------------------------------------------------
def group_by_relation(
    database: Database, dirty_ids: Iterable[int]
) -> dict[str, list[int]]:
    """The live dirty identifiers grouped by relation, in one pass.

    Dead identifiers drop out.  A flush groups its dirty set once and hands
    the grouping to every :meth:`WitnessEnumerator.delta` call.
    """
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
        store: ColumnStore,
        stats: EnumerationStats | None = None,
    ) -> None:
        self.dc = dc
        self.store = store
        self.stats = stats if stats is not None else EnumerationStats(store.backend)
        self.stats.backend = store.backend
        #: The relations the DC binds: a delta over none of them is empty.
        self.relations = frozenset(relation for _, relation in dc.variables)
        register_batch_columns(dc, store)
        # The vectorized kernels amortize per-run overhead across the whole
        # chunk, so they want much larger batches than the python-loop
        # kernels.
        self.cold_chunk = 65536 if store.backend == "numpy" else self.COLD_CHUNK
        self._plans: list[BatchPlan] | None = None

    def _compiled(self) -> list[BatchPlan]:
        """One plan per tuple variable, in variable order."""
        if self._plans is None:
            compile_plan = _compile_list_plan
            if self.store.backend == "numpy":
                from .vectorized import compile_vector_plan as compile_plan
            dc, store = self.dc, self.store
            self._plans = [
                compile_plan(dc, plan_pin(dc, pin, store.live_count), store)
                for pin in range(dc.width)
            ]
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

    def delta(self, by_relation: dict[str, list[int]]) -> Witnesses:
        """One set-based pass per pinned tuple variable, seeded by relation.

        *by_relation* is the live dirty identifiers grouped by relation
        (:func:`group_by_relation`); each plan is seeded with its pin
        relation's dirty rows.  A call that seeds no plan (no dirty fact in
        any relation the DC binds) runs nothing and is not counted in
        ``delta_runs``.

        On a numpy store, the owned list store (``store.lists``) maps the
        identifiers to rows.  A call seeding more than
        ``vectorized.SCALAR_DELTA_ROWS`` dirty rows runs the numpy kernels
        (:func:`~repro.session.vectorized.delta_union`); a smaller one runs
        the list kernels over the owned list store, compiled from the same
        pin plans, and counts in ``scalar_delta_runs``.
        """
        store = self.store
        lists = store.lists if store.backend == "numpy" else store
        found: Witnesses = set()
        rows_cache: dict[str, list[int]] = {}
        seeded = []
        for plan in self._compiled():
            identifiers = by_relation.get(plan.seed_relation)
            if not identifiers:
                continue
            rows = rows_cache.get(plan.seed_relation)
            if rows is None:
                rows = lists.relation(plan.seed_relation).rows_for_ids(identifiers)
                rows_cache[plan.seed_relation] = rows
            seeded.append((plan, rows))
        if not seeded:
            return found
        stats = self.stats
        stats.delta_runs += 1
        if store.backend == "numpy":
            from .vectorized import SCALAR_DELTA_ROWS, delta_union

            if sum(map(len, rows_cache.values())) > SCALAR_DELTA_ROWS:
                found = delta_union(seeded, stats)
                stats.witnesses_emitted += len(found)
                return found
            stats.scalar_delta_runs += 1
            seeded = [(plan.scalar, rows) for plan, rows in seeded]
        for plan, rows in seeded:
            found |= plan.run(rows, stats)
        stats.witnesses_emitted += len(found)
        return found


def build_enumerators(
    dcs: Sequence[DenialConstraint],
    database: Database,
    stats: Sequence[EnumerationStats | None] | None = None,
) -> tuple[list[WitnessEnumerator], ColumnStore]:
    """Per-DC enumerators plus the column store they join over.

    *stats* threads session-owned counter records through a rebuild so
    they accumulate; ``None`` entries are freshly created.  The store
    runs on the process's column backend (``columnar.VECTOR_BACKEND``).

    Returns the enumerators in *dcs* order and the store, built from
    *database*.  A caller that keeps them feeds the store the change
    events from then on.
    """
    counters = list(stats) if stats is not None else [None] * len(dcs)
    store = make_column_store(database.schema)
    enumerators = [
        WitnessEnumerator(dc, store, counter)
        for dc, counter in zip(dcs, counters)
    ]
    store.build(database)
    return enumerators, store


def cold_build(
    dcs: Sequence[DenialConstraint],
    database: Database,
    stats: Sequence[EnumerationStats | None] | None = None,
) -> tuple[list[WitnessEnumerator], ColumnStore, list[Witnesses]]:
    """One cold enumeration of every DC over a freshly built column store.

    Returns :func:`build_enumerators`' result plus each DC's witness
    family, in *dcs* order.  The one cold-build path: a session's rebuild
    keeps the enumerators and the store to run deltas later, while the
    one-shot detection in :mod:`repro.violations.minimal` drops them.
    """
    enumerators, store = build_enumerators(dcs, database, stats)
    return (
        enumerators,
        store,
        [enumerator.cold(database) for enumerator in enumerators],
    )
