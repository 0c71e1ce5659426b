"""Abstract syntax tree for the mini SQL engine's queries.

The nodes cover exactly what the paper's conflict queries need:
``SELECT [DISTINCT] cols FROM R AS R1, R AS R2 WHERE conj-of-comparisons``.
Queries are built as trees (see
:func:`repro.violations.sqlgen.conflict_query`); there is no text parser.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..constraints.base import ComparisonOp


@dataclass(frozen=True)
class ColumnRef:
    """A possibly qualified column reference (``R1.City`` or ``City``)."""

    table: str | None
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class Literal:
    """A constant (number or string)."""

    value: object

    def __str__(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return str(self.value)


Operand = Union[ColumnRef, Literal]


@dataclass(frozen=True)
class Comparison:
    """``left op right`` in a WHERE clause."""

    left: Operand
    op: ComparisonOp
    right: Operand

    def __str__(self) -> str:
        return f"{self.left} {self.op.value} {self.right}"


@dataclass(frozen=True)
class And:
    """Conjunction of conditions."""

    conditions: tuple["Condition", ...]


Condition = Union[Comparison, And]


@dataclass(frozen=True)
class TableRef:
    """``relation AS alias`` in a FROM clause."""

    relation: str
    alias: str


@dataclass(frozen=True)
class SelectQuery:
    """A full query."""

    select: tuple[ColumnRef, ...]
    distinct: bool
    tables: tuple[TableRef, ...]
    where: Condition | None


def conjuncts(condition: Condition | None) -> list[Comparison]:
    """Flatten a condition into its comparisons."""
    if condition is None:
        return []
    if isinstance(condition, And):
        result: list[Comparison] = []
        for child in condition.conditions:
            result.extend(conjuncts(child))
        return result
    return [condition]
