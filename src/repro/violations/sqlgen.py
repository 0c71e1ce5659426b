"""SQL generation for conflict materialization.

The paper computes, per denial constraint, the set of conflicting tuple
pairs with a self-join query such as::

    SELECT DISTINCT R1.ID, R2.ID
    FROM R AS R1, R AS R2
    WHERE R1.St = R2.St AND R1.Salary > R2.Salary AND R1.Tax < R2.Tax

This module builds that query from a :class:`DenialConstraint` and runs it
through the in-package SQL engine.  :func:`conflict_query` builds the
:class:`~repro.sqlengine.ast.SelectQuery` tree directly, so constants that
have no SQL literal rendering still execute; :func:`conflict_sql` prints the
same query as SQL text.  Witness enumeration does not go through SQL: the
session plans each DC itself (:mod:`repro.session.enumeration`).
"""

from __future__ import annotations

from ..constraints.dc import DenialConstraint, Term
from ..relational.database import Database
from ..sqlengine.ast import (
    And,
    ColumnRef,
    Comparison,
    Condition,
    Literal,
    SelectQuery,
    TableRef,
)
from ..sqlengine.executor import SqlEngine


def variable_aliases(dc: DenialConstraint) -> dict[str, str]:
    """The ``tuple variable → table alias`` map the conflict query uses."""
    return {
        variable: f"T{index}" for index, (variable, _) in enumerate(dc.variables)
    }


def conflict_query(dc: DenialConstraint) -> SelectQuery:
    """The conflict query for *dc* as a :class:`SelectQuery` tree.

    The tree :func:`conflict_sql` prints: each tuple variable becomes an
    aliased table, each predicate a comparison, and the SELECT list
    projects every alias's ``ID`` pseudo-column.
    """
    alias_of = variable_aliases(dc)
    select = tuple(
        ColumnRef(alias_of[variable], SqlEngine.ID_COLUMN)
        for variable, _ in dc.variables
    )
    tables = tuple(
        TableRef(relation, alias_of[variable])
        for variable, relation in dc.variables
    )
    comparisons: list[Condition] = [
        Comparison(
            _ast_term(predicate.left, alias_of),
            predicate.op,
            _ast_term(predicate.right, alias_of),
        )
        for predicate in dc.predicates
    ]
    where: Condition | None
    if not comparisons:
        where = None
    elif len(comparisons) == 1:
        where = comparisons[0]
    else:
        where = And(tuple(comparisons))
    return SelectQuery(select=select, distinct=True, tables=tables, where=where)


def conflict_sql(dc: DenialConstraint) -> str:
    """Render the conflict-pair (or conflict-row) query for *dc*."""
    alias_of = variable_aliases(dc)
    select = ", ".join(
        f"{alias_of[variable]}.ID" for variable, _ in dc.variables
    )
    tables = ", ".join(
        f"{relation} AS {alias_of[variable]}" for variable, relation in dc.variables
    )
    predicates = [
        f"{_render_term(p.left, alias_of)} {_sql_op(p.op.value)} "
        f"{_render_term(p.right, alias_of)}"
        for p in dc.predicates
    ]
    where = " AND ".join(predicates) if predicates else ""
    sql = f"SELECT DISTINCT {select} FROM {tables}"
    if where:
        sql += f" WHERE {where}"
    return sql


def conflict_rows(
    dc: DenialConstraint,
    database: Database,
    *,
    force_nested_loop: bool = False,
) -> list[tuple[int, ...]]:
    """Identifier tuples (one per tuple variable) of all witnesses of *dc*.

    Raises :class:`~repro.sqlengine.SqlSyntaxError` when a relation of *dc*
    has an attribute named ``ID``: the query's ``alias.ID`` would be
    ambiguous with the fact-identifier pseudo-column.
    """
    engine = SqlEngine(database, force_nested_loop=force_nested_loop)
    return engine.execute_query(conflict_query(dc))


def _ast_term(term: Term, alias_of: dict[str, str]):
    if term.is_constant:
        return Literal(term.constant)
    return ColumnRef(alias_of[term.variable], term.attribute)


def _render_term(term: Term, alias_of: dict[str, str]) -> str:
    if term.is_constant:
        value = term.constant
        if isinstance(value, str):
            escaped = value.replace("'", "''")
            return f"'{escaped}'"
        return str(value)
    return f"{alias_of[term.variable]}.{term.attribute}"


def _sql_op(op: str) -> str:
    return {"!=": "<>"}.get(op, op)
