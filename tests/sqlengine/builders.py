"""Query-tree shorthand for the SQL engine tests.

``query(["R1.ID", "R2.ID"], ["R AS R1", "R AS R2"], cmp("R1.A", "=",
"R2.A"))`` builds the tree of ``SELECT R1.ID, R2.ID FROM R AS R1, R AS R2
WHERE R1.A = R2.A``.  A string operand of :func:`cmp` is a column
reference; anything else (or a string wrapped in :func:`lit`) a literal.
"""

from __future__ import annotations

from repro.constraints.base import ComparisonOp
from repro.sqlengine import And, ColumnRef, Comparison, Literal, SelectQuery, TableRef


def ref(text: str) -> ColumnRef:
    """``"R1.A"`` → a qualified reference, ``"A"`` → an unqualified one."""
    table, _, column = text.rpartition(".")
    return ColumnRef(table or None, column)


def lit(value) -> Literal:
    return Literal(value)


def cmp(left, op: str, right) -> Comparison:
    def operand(value):
        if isinstance(value, Literal):
            return value
        return ref(value) if isinstance(value, str) else Literal(value)

    return Comparison(operand(left), ComparisonOp.parse(op), operand(right))


def query(
    select: list[str],
    tables: list[str],
    *conditions: Comparison,
    distinct: bool = False,
) -> SelectQuery:
    """``tables`` entries are ``"R AS R1"`` or ``"R"`` (aliased as itself)."""
    refs = []
    for table in tables:
        relation, _, alias = table.partition(" AS ")
        refs.append(TableRef(relation, alias or relation))
    where = None
    if len(conditions) == 1:
        where = conditions[0]
    elif conditions:
        where = And(tuple(conditions))
    return SelectQuery(
        select=tuple(ref(item) for item in select),
        distinct=distinct,
        tables=tuple(refs),
        where=where,
    )
