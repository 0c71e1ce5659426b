"""Repair systems: operation spaces with costs (Section 2 of the paper).

A repair system ``R = (O, κ)`` pairs a set of operations with a cost
function.  ``R*`` closes it under sequences, summing costs.  A constraint
system C is *realizable* by R when every database can be made consistent by
some sequence from R — e.g. the subset system realizes every anti-monotonic
class because deleting everything always works.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from ..constraints.base import Constraint
from ..relational.database import Database, Fact
from ..relational.values import Value
from .costs import CostFunction, subset_cost, unit_cost
from .operations import (
    DeleteOperation,
    InsertOperation,
    Operation,
    UpdateOperation,
    apply_sequence,
)

#: Generates the operations of R that are applicable to a given database.
OperationSpace = Callable[[Database], Iterator[Operation]]


@dataclass
class RepairSystem:
    """``R = (O, κ)`` with an enumerable operation space."""

    name: str
    operations: OperationSpace
    cost: CostFunction

    def applicable_operations(self, database: Database) -> Iterator[Operation]:
        """All operations of this system applicable to *database*."""
        return self.operations(database)

    def apply(self, database: Database, operations: Sequence[Operation]) -> Database:
        """Apply a sequence functionally."""
        return apply_sequence(database, list(operations))


def subset_system(cost: CostFunction | None = None) -> RepairSystem:
    """``R⊆`` — tuple deletions only, paper-default costs."""

    def deletions(database: Database) -> Iterator[Operation]:
        for identifier in database.ids():
            yield DeleteOperation(identifier)

    return RepairSystem(
        name="subset",
        operations=deletions,
        cost=cost or subset_cost,
    )


def update_system(
    value_pool: Callable[[Database, int, str], Iterable[Value]] | None = None,
    cost: CostFunction | None = None,
) -> RepairSystem:
    """Attribute updates only (the update-repair system of §5.3).

    The abstract system ranges over a countably infinite domain; for
    enumeration we take, per cell, the attribute's active domain plus one
    fresh value (a sentinel guaranteed not to occur), which suffices for
    optimal repairs of denial constraints — equality predicates only care
    about equality patterns, and a fresh value can always be chosen outside
    every comparison range.
    """

    def default_pool(
        database: Database, identifier: int, attribute: str
    ) -> Iterable[Value]:
        fact = database[identifier]
        domain = database.active_domain(fact.relation, attribute)
        values = list(domain.values_by_frequency())
        values.append(_fresh_value(identifier, attribute))
        return values

    pool = value_pool or default_pool

    def updates(database: Database) -> Iterator[Operation]:
        for identifier in database.ids():
            fact = database[identifier]
            signature = database.schema.signature(fact.relation)
            for attribute in signature.attributes:
                current = fact.get(signature, attribute)
                for value in pool(database, identifier, attribute):
                    if value != current:
                        yield UpdateOperation(identifier, attribute, value)

    return RepairSystem(name="update", operations=updates, cost=cost or unit_cost)


def insertion_deletion_system(
    fact_pool: Callable[[Database], Iterable[Fact]] | None = None,
    cost: CostFunction | None = None,
) -> RepairSystem:
    """Deletions plus insertions (the property-testing repair system)."""

    def operations(database: Database) -> Iterator[Operation]:
        for identifier in database.ids():
            yield DeleteOperation(identifier)
        if fact_pool is not None:
            for fact in fact_pool(database):
                yield InsertOperation(fact)

    return RepairSystem(
        name="insert-delete", operations=operations, cost=cost or unit_cost
    )


def realizes(
    system: RepairSystem,
    constraints: Sequence[Constraint],
    database: Database,
) -> bool:
    """Empirical realizability check on one database.

    For anti-monotonic constraints under a system containing all deletions
    this always holds (the empty database is consistent); the check is a
    guard for exotic systems in tests.
    """
    from ..violations.minimal import is_consistent

    if is_consistent(list(constraints), database) or all(
        constraint.is_anti_monotonic for constraint in constraints
    ):
        if system.name in ("subset", "insert-delete"):
            return True
    # Fall back: try deleting everything if deletions are available.
    trial = database.copy()
    for operation in list(system.applicable_operations(trial)):
        if isinstance(operation, DeleteOperation):
            operation.apply_in_place(trial)
    return is_consistent(list(constraints), trial)


def _fresh_value(identifier: int, attribute: str) -> str:
    """A sentinel value guaranteed to be outside any realistic active domain."""
    return f"__fresh_{identifier}_{attribute}__"
