"""Repairing operations: tuple deletion, tuple insertion, attribute update.

An operation ``o`` maps databases to databases (Section 2).  Inapplicable
operations leave the database intact, per the paper's convention.  Operations
are applied *functionally* (the input database is copied), so measure code
can explore operation effects without mutating the caller's data; an
``apply_in_place`` escape hatch exists for the noise generators, which churn
through thousands of operations.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from ..relational.database import Database, Fact
from ..relational.values import Value


class Operation(ABC):
    """A repairing operation ``o : DB(S) -> DB(S)``."""

    @abstractmethod
    def apply_in_place(self, database: Database) -> bool:
        """Mutate *database*; return True when a change actually occurred."""

    def apply(self, database: Database) -> Database:
        """``o(D)`` — functional application on a copy."""
        result = database.copy()
        self.apply_in_place(result)
        return result

    @abstractmethod
    def is_applicable(self, database: Database) -> bool:
        """Whether the operation would change *database*."""

    @abstractmethod
    def inverse(self, database: Database) -> "Operation | None":
        """The operation undoing ``self`` on *database* (the pre-state).

        Computed *before* application, from the pre-image the operation would
        destroy: a deletion's inverse restores the deleted fact under its
        original identifier, an insertion's inverse deletes the identifier
        the insert will allocate, an update's inverse writes the old value
        back.  Returns None when the operation is inapplicable — it would
        leave the database intact, so there is nothing to undo.  The contract
        (exercised by the speculative-evaluation tests) is::

            undo = o.inverse(D); o.apply_in_place(D); undo.apply_in_place(D)

        leaves ``D`` bit-identical whenever ``undo`` is not None.
        """

    def deleted_fact(self, database: Database) -> int | None:
        """The live identifier this operation would delete from *database*.

        None for every operation that does anything else (or nothing).
        Batched speculation scores a candidate made only of such deletions
        without applying it: deleting facts only retracts MI sets.
        """
        return None


@dataclass(frozen=True)
class DeleteOperation(Operation):
    """``⟨-i⟩`` — delete the fact with identifier *i*."""

    identifier: int

    def apply_in_place(self, database: Database) -> bool:
        return database.delete(self.identifier)

    def is_applicable(self, database: Database) -> bool:
        return self.identifier in database

    def inverse(self, database: Database) -> "Operation | None":
        if self.identifier not in database:
            return None
        return RestoreOperation(self.identifier, database[self.identifier])

    def deleted_fact(self, database: Database) -> int | None:
        return self.identifier if self.identifier in database else None

    def __str__(self) -> str:
        return f"<-{self.identifier}>"


@dataclass(frozen=True)
class InsertOperation(Operation):
    """``⟨+f⟩`` — insert fact *f* under the minimal free identifier."""

    fact: Fact

    def apply_in_place(self, database: Database) -> bool:
        database.insert(self.fact)
        return True

    def is_applicable(self, database: Database) -> bool:
        return True

    def inverse(self, database: Database) -> "Operation | None":
        return DeleteOperation(database.peek_next_id())

    def __str__(self) -> str:
        return f"<+{self.fact!r}>"


@dataclass(frozen=True)
class UpdateOperation(Operation):
    """``⟨i.A ← c⟩`` — set attribute *A* of fact *i* to value *c*."""

    identifier: int
    attribute: str
    value: Value

    def apply_in_place(self, database: Database) -> bool:
        if not self.is_applicable(database):
            return False
        return database.update(self.identifier, self.attribute, self.value)

    def is_applicable(self, database: Database) -> bool:
        if self.identifier not in database:
            return False
        fact = database[self.identifier]
        signature = database.schema.signature(fact.relation)
        if not signature.has_attribute(self.attribute):
            return False
        return fact.get(signature, self.attribute) != self.value

    def inverse(self, database: Database) -> "Operation | None":
        if not self.is_applicable(database):
            return None
        fact = database[self.identifier]
        signature = database.schema.signature(fact.relation)
        return UpdateOperation(
            self.identifier, self.attribute, fact.get(signature, self.attribute)
        )

    def __str__(self) -> str:
        return f"<{self.identifier}.{self.attribute} <- {self.value!r}>"


@dataclass(frozen=True)
class RestoreOperation(Operation):
    """``⟨+f @ i⟩`` — reinstate fact *f* under the specific identifier *i*.

    The inverse of a deletion: a plain insertion would allocate the minimal
    free identifier, which need not be the one the deleted fact occupied
    (e.g. after deleting two facts, undoing them in reverse order must not
    shuffle their identifiers).  Inapplicable when the identifier is taken.
    """

    identifier: int
    fact: Fact

    def apply_in_place(self, database: Database) -> bool:
        return database.restore(self.identifier, self.fact)

    def is_applicable(self, database: Database) -> bool:
        return self.identifier not in database

    def inverse(self, database: Database) -> "Operation | None":
        if self.identifier in database:
            return None
        return DeleteOperation(self.identifier)

    def __str__(self) -> str:
        return f"<+{self.fact!r} @ {self.identifier}>"


def apply_sequence(database: Database, operations: list[Operation]) -> Database:
    """Apply a sequence of operations functionally (``R*`` application)."""
    result = database.copy()
    for operation in operations:
        operation.apply_in_place(result)
    return result
