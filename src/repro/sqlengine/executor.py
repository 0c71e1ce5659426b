"""Execution engine: binds plans to a :class:`~repro.relational.Database`.

Tables expose the relation's attributes plus a pseudo-column ``ID`` carrying
the fact identifier — exactly what the paper's conflict-materialization query
``SELECT DISTINCT R1.ID, R2.ID FROM R AS R1, R AS R2 WHERE ...`` selects.  A
relation with an attribute of its own named ``ID`` makes ``alias.ID``
ambiguous, and such a query is rejected.

Rows flow through the operators as dicts ``alias -> (id, fact)``; column
lookups go through precompiled accessor closures, so the inner join loops do
no string processing.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from ..constraints.base import ComparisonOp
from ..relational.database import Database, Fact
from .ast import ColumnRef, Comparison, Literal, SelectQuery, conjuncts
from .planner import (
    JoinPlan,
    PlanNode,
    QueryPlan,
    ScanPlan,
    SqlSyntaxError,
    plan_query,
)

Row = dict[str, tuple[int, Fact]]
Accessor = Callable[[Row], object]


class SqlEngine:
    """Query interface over a database."""

    ID_COLUMN = "ID"

    def __init__(self, database: Database, *, force_nested_loop: bool = False) -> None:
        self.database = database
        self.force_nested_loop = force_nested_loop

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def execute_query(self, query: SelectQuery) -> list[tuple]:
        """Run *query* and return result rows as tuples."""
        plan = plan_query(query, force_nested_loop=self.force_nested_loop)
        return self.execute_plan(plan)

    def execute_plan(self, plan: QueryPlan) -> list[tuple]:
        """Run a physical plan."""
        query = plan.query
        self._check_id_columns(query)
        rows = self._run_node(plan.root)
        if plan.final_residual:
            predicate = self._compile_condition_list(plan.final_residual)
            rows = (row for row in rows if predicate(row))
        accessors = [self._compile_operand(item) for item in query.select]
        projected: Iterable[tuple] = (
            tuple(accessor(row) for accessor in accessors) for row in rows
        )
        if query.distinct:
            seen: set[tuple] = set()
            unique: list[tuple] = []
            for item in projected:
                if item not in seen:
                    seen.add(item)
                    unique.append(item)
            return unique
        return list(projected)

    def _check_id_columns(self, query: SelectQuery) -> None:
        """Reject ``alias.ID`` where the alias's relation has an ``ID`` attribute."""
        schema = self.database.schema
        relation_of = {table.alias: table.relation for table in query.tables}
        operands = list(query.select)
        for comparison in conjuncts(query.where):
            operands += (comparison.left, comparison.right)
        for operand in operands:
            if not isinstance(operand, ColumnRef) or operand.column != self.ID_COLUMN:
                continue
            relation = relation_of.get(operand.table)
            if relation not in schema:
                continue
            if self.ID_COLUMN in schema.signature(relation).attributes:
                raise SqlSyntaxError(
                    f"ambiguous column {operand}: relation {relation!r} has an "
                    f"attribute named {self.ID_COLUMN!r}, which shadows the "
                    "fact-identifier pseudo-column"
                )

    # ------------------------------------------------------------------
    # Plan interpretation
    # ------------------------------------------------------------------
    def _run_node(self, node: PlanNode) -> Iterator[Row]:
        if isinstance(node, ScanPlan):
            return self._run_scan(node)
        return self._run_join(node)

    def _run_scan(self, node: ScanPlan) -> Iterator[Row]:
        alias = node.table.alias
        relation = node.table.relation
        if relation not in self.database.schema:
            raise SqlSyntaxError(f"unknown relation {relation!r}")
        predicate = (
            self._compile_condition_list(list(node.filters)) if node.filters else None
        )
        for identifier in self.database.relation_ids(relation):
            row: Row = {alias: (identifier, self.database[identifier])}
            if predicate is None or predicate(row):
                yield row

    def _run_join(self, node: JoinPlan) -> Iterator[Row]:
        if node.use_hash and node.equi_keys:
            yield from self._run_hash_join(node)
            return
        yield from self._run_nested_loop_join(node)

    def _run_hash_join(self, node: JoinPlan) -> Iterator[Row]:
        right_alias = node.right.table.alias
        left_keys = [self._compile_operand(ref) for ref, _ in node.equi_keys]
        right_keys = [self._compile_operand(ref) for _, ref in node.equi_keys]
        residual = (
            self._compile_condition_list(node.residual) if node.residual else None
        )
        table: dict[tuple, list[Row]] = {}
        for right_row in self._run_scan(node.right):
            key = tuple(accessor(right_row) for accessor in right_keys)
            if any(part is None for part in key):
                continue  # NULL never joins
            table.setdefault(key, []).append(right_row)
        for left_row in self._run_node(node.left):
            key = tuple(accessor(left_row) for accessor in left_keys)
            if any(part is None for part in key):
                continue
            for right_row in table.get(key, ()):
                combined = {**left_row, **right_row}
                if residual is None or residual(combined):
                    yield combined

    def _run_nested_loop_join(self, node: JoinPlan) -> Iterator[Row]:
        conditions: list[Comparison] = list(node.residual)
        for left_ref, right_ref in node.equi_keys:
            conditions.append(Comparison(left_ref, ComparisonOp.EQ, right_ref))
        predicate = self._compile_condition_list(conditions) if conditions else None
        right_rows = list(self._run_scan(node.right))
        for left_row in self._run_node(node.left):
            for right_row in right_rows:
                combined = {**left_row, **right_row}
                if predicate is None or predicate(combined):
                    yield combined

    # ------------------------------------------------------------------
    # Compilation of scalar expressions
    # ------------------------------------------------------------------
    def _compile_operand(self, operand) -> Accessor:
        if isinstance(operand, Literal):
            value = operand.value
            return lambda row: value
        if isinstance(operand, ColumnRef):
            if operand.table is None:
                raise SqlSyntaxError(
                    f"unqualified column {operand.column!r}; qualify with alias"
                )
            alias = operand.table
            column = operand.column
            if column == self.ID_COLUMN:
                return lambda row: row[alias][0]
            # Resolve the column index lazily per alias at compile time: the
            # relation is known from the plan only at scan level, so fall back
            # to name lookup through the fact's own relation signature.
            schema = self.database.schema

            def accessor(row: Row, alias=alias, column=column):
                _, fact = row[alias]
                signature = schema.signature(fact.relation)
                return fact.values[signature.index_of(column)]

            return accessor
        raise TypeError(f"unexpected operand {operand!r}")

    def _compile_comparison(self, comparison: Comparison) -> Callable[[Row], bool]:
        left = self._compile_operand(comparison.left)
        right = self._compile_operand(comparison.right)
        op = comparison.op
        return lambda row: op.evaluate(left(row), right(row))

    def _compile_condition_list(
        self, conditions: list[Comparison]
    ) -> Callable[[Row], bool]:
        compiled = [self._compile_comparison(c) for c in conditions]
        return lambda row: all(child(row) for child in compiled)
