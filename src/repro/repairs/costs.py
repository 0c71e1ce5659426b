"""Cost functions ``κ(o, D)`` for repair systems.

The paper requires ``κ(o, D) = 0`` iff ``o(D) = D`` — cost is non-zero
exactly when a change occurs.  The subset system ``R⊆`` uses the per-fact
``cost`` attribute when the relation declares one, and unit cost otherwise.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from ..relational.database import Database
from .operations import DeleteOperation, Operation

#: κ(o, D) — a cost function over operations in context.
CostFunction = Callable[[Operation, Database], float]

#: Name of the special attribute carrying per-fact deletion costs.
COST_ATTRIBUTE = "cost"


def unit_cost(operation: Operation, database: Database) -> float:
    """Every effective operation costs 1."""
    return 1.0 if operation.is_applicable(database) else 0.0


def subset_cost(operation: Operation, database: Database) -> float:
    """The R⊆ cost: ``D[i].cost`` if a cost attribute exists, else 1."""
    if not operation.is_applicable(database):
        return 0.0
    if isinstance(operation, DeleteOperation):
        fact = database[operation.identifier]
        signature = database.schema.signature(fact.relation)
        if signature.has_attribute(COST_ATTRIBUTE):
            return float(fact.get(signature, COST_ATTRIBUTE))
    return 1.0


def table_cost(costs: Mapping[int, float]) -> CostFunction:
    """Per-identifier deletion costs supplied out of band (used by the
    MaxCut reduction, where anchors cost ``m + 1`` and edge facts cost 1)."""

    def cost(operation: Operation, database: Database) -> float:
        if not operation.is_applicable(database):
            return 0.0
        if isinstance(operation, DeleteOperation):
            return float(costs.get(operation.identifier, 1.0))
        return 1.0

    return cost


def deletion_costs(
    database: Database,
    cost_function: CostFunction,
    identifiers: Iterable[int] | None = None,
) -> dict[int, float]:
    """Materialize the deletion cost of every fact (hitting-set weights).

    *identifiers* restricts the materialization (e.g. to one connected
    component's problematic facts) — the solvers only read weights of facts
    appearing in some MI set.  Under :func:`subset_cost` the weights are
    read straight off the facts, with one signature lookup per relation;
    the floats are the ones ``subset_cost`` returns.
    """
    if identifiers is None:
        identifiers = database.ids()
    if cost_function is subset_cost:
        return _subset_deletion_costs(database, identifiers)
    return {
        identifier: cost_function(DeleteOperation(identifier), database)
        for identifier in identifiers
    }


def _subset_deletion_costs(
    database: Database, identifiers: Iterable[int]
) -> dict[int, float]:
    """``subset_cost`` of deleting each fact: its ``cost`` value as a float,
    1.0 when its relation has no such attribute, 0.0 for a dead id."""
    positions: dict[str, int | None] = {}
    weights: dict[int, float] = {}
    lookup = database.get
    for identifier in identifiers:
        fact = lookup(identifier)
        if fact is None:
            weights[identifier] = 0.0
            continue
        relation = fact.relation
        if relation in positions:
            position = positions[relation]
        else:
            signature = database.schema.signature(relation)
            position = (
                signature.index_of(COST_ATTRIBUTE)
                if signature.has_attribute(COST_ATTRIBUTE)
                else None
            )
            positions[relation] = position
        weights[identifier] = (
            1.0 if position is None else float(fact.values[position])
        )
    return weights
