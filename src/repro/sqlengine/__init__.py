"""Mini SQL engine: query trees, planner, executor.

The paper materializes conflicting tuple pairs with SQL self-joins on a
commercial RDBMS; this subpackage is the from-scratch substitute.  Queries
are built as trees (:func:`repro.violations.sqlgen.conflict_query` builds
one per DC; :func:`~repro.violations.sqlgen.conflict_sql` prints its SQL
text), planned left-deep with hash joins on the equality predicates and
run over a :class:`~repro.relational.Database`.  There is no SQL text
parser.
"""

from .ast import And, ColumnRef, Comparison, Literal, SelectQuery, TableRef
from .executor import SqlEngine
from .planner import SqlSyntaxError, explain, plan_query

__all__ = [
    "And",
    "ColumnRef",
    "Comparison",
    "Literal",
    "SelectQuery",
    "SqlEngine",
    "SqlSyntaxError",
    "TableRef",
    "explain",
    "plan_query",
]
