"""Logical-to-physical planning for the mini SQL engine.

The planner classifies WHERE conjuncts into:

* single-alias predicates — pushed below the join into scans;
* cross-alias equality predicates — used as hash-join keys;
* everything else (inequalities across aliases, constant-only
  comparisons) — residual filters applied on joined rows.

Joins are built left-deep in FROM-clause order.  A join step with at least
one usable equality key becomes a hash join; otherwise a nested-loop join.
This mirrors what any real engine does for the paper's conflict queries: the
equality predicates of a DC drive the join, the inequalities filter.
(The session's witness enumerator plans its own join order straight from
the DC, see :func:`repro.session.enumeration.plan_pin`.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast import ColumnRef, Comparison, SelectQuery, TableRef, conjuncts


class SqlSyntaxError(ValueError):
    """Raised on a malformed query: unknown names, ambiguous columns."""


@dataclass
class ScanPlan:
    """Full scan of one aliased relation with pushed-down filters."""

    table: TableRef
    filters: list[Comparison] = field(default_factory=list)


@dataclass
class JoinPlan:
    """One left-deep join step."""

    left: "PlanNode"
    right: ScanPlan
    #: pairs of (left ColumnRef, right ColumnRef) usable as hash keys
    equi_keys: list[tuple[ColumnRef, ColumnRef]] = field(default_factory=list)
    residual: list[Comparison] = field(default_factory=list)
    use_hash: bool = True


PlanNode = ScanPlan | JoinPlan


@dataclass
class QueryPlan:
    """Physical plan: a join tree plus projection/distinct info."""

    root: PlanNode
    query: SelectQuery
    final_residual: list[Comparison] = field(default_factory=list)


def plan_query(query: SelectQuery, *, force_nested_loop: bool = False) -> QueryPlan:
    """Build a physical plan for *query*.

    *force_nested_loop* disables hash joins (used by the join-strategy
    ablation bench).
    """
    aliases = [table.alias for table in query.tables]
    alias_set = set(aliases)
    single: dict[str, list[Comparison]] = {alias: [] for alias in aliases}
    cross_equi: list[Comparison] = []
    residual: list[Comparison] = []

    for conjunct in conjuncts(query.where):
        used = _aliases_used(conjunct, alias_set)
        if len(used) == 1:
            single[next(iter(used))].append(conjunct)
        elif (
            len(used) == 2
            and conjunct.op.value == "="
            and isinstance(conjunct.left, ColumnRef)
            and isinstance(conjunct.right, ColumnRef)
        ):
            cross_equi.append(conjunct)
        else:
            residual.append(conjunct)

    scans = {
        table.alias: ScanPlan(table=table, filters=single[table.alias])
        for table in query.tables
    }
    root: PlanNode = scans[aliases[0]]
    joined = {aliases[0]}
    pending_equi = list(cross_equi)
    pending_residual = list(residual)

    for alias in aliases[1:]:
        keys: list[tuple[ColumnRef, ColumnRef]] = []
        remaining: list[Comparison] = []
        for comparison in pending_equi:
            left_ref, right_ref = comparison.left, comparison.right
            assert isinstance(left_ref, ColumnRef) and isinstance(right_ref, ColumnRef)
            if left_ref.table == alias and right_ref.table in joined:
                left_ref, right_ref = right_ref, left_ref
            if left_ref.table in joined and right_ref.table == alias:
                keys.append((left_ref, right_ref))
                continue
            remaining.append(comparison)
        pending_equi = remaining

        step_residual: list[Comparison] = []
        still_pending: list[Comparison] = []
        now_available = joined | {alias}
        for condition in pending_residual:
            if _aliases_used(condition, alias_set) <= now_available:
                step_residual.append(condition)
            else:
                still_pending.append(condition)
        pending_residual = still_pending

        root = JoinPlan(
            left=root,
            right=scans[alias],
            equi_keys=keys,
            residual=step_residual,
            use_hash=bool(keys) and not force_nested_loop,
        )
        joined = now_available

    # Every equality key lands on the step joining its later alias, so
    # only constant-only comparisons of a one-table query are left over.
    return QueryPlan(root=root, query=query, final_residual=pending_residual)


def _aliases_used(comparison: Comparison, known: set[str]) -> set[str]:
    used = set()
    for operand in (comparison.left, comparison.right):
        if isinstance(operand, ColumnRef):
            if operand.table is None:
                raise SqlSyntaxError(
                    f"unqualified column {operand.column!r} in a "
                    "multi-table query; qualify it with a table alias"
                )
            if operand.table not in known:
                raise SqlSyntaxError(f"unknown table alias {operand.table!r}")
            used.add(operand.table)
    return used


def explain(plan: QueryPlan) -> str:
    """Human-readable plan rendering (for tests and debugging)."""
    lines: list[str] = []

    def walk(node: PlanNode, depth: int) -> None:
        indent = "  " * depth
        if isinstance(node, ScanPlan):
            filters = (
                " filter[" + " AND ".join(str(f) for f in node.filters) + "]"
                if node.filters
                else ""
            )
            lines.append(
                f"{indent}Scan {node.table.relation} AS {node.table.alias}{filters}"
            )
            return
        kind = "HashJoin" if node.use_hash else "NestedLoopJoin"
        keys = ", ".join(f"{l}={r}" for l, r in node.equi_keys)
        residual = (
            " residual[" + " AND ".join(str(c) for c in node.residual) + "]"
            if node.residual
            else ""
        )
        lines.append(f"{indent}{kind} on [{keys}]{residual}")
        walk(node.left, depth + 1)
        walk(node.right, depth + 1)

    walk(plan.root, 0)
    if plan.final_residual:
        lines.append(
            "FinalFilter "
            + " AND ".join(str(c) for c in plan.final_residual)
        )
    return "\n".join(lines)
