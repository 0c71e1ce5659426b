"""CONoise — constraint-oriented noise (§6.1 of the paper).

Each iteration *introduces a violation on purpose*:

1. randomly select a constraint φ;
2. randomly select two tuples t and t′;
3. for every predicate ``P = (t[A] ρ t'[B])`` of φ:
   * if t, t′ already jointly satisfy P, move on;
   * if ρ ∈ {=, ≤, ≥}, copy one side onto the other (random direction);
   * if ρ ∈ {<, >, ≠}, change one side (random choice) to an active-domain
     value satisfying P, or to a random value in the appropriate range when
     the active domain offers none.

The mutation happens in place; the caller owns snapshots/copies.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..constraints.base import ComparisonOp, Constraint
from ..constraints.dc import DenialConstraint, Predicate, Term
from ..relational.database import Database
from ..relational.values import Value, active_domain
from ..violations.minimal import lower_constraints


class CONoise:
    """Stateful constraint-oriented noise generator."""

    def __init__(
        self,
        constraints: Sequence[Constraint],
        seed: int | None = None,
    ) -> None:
        self.constraints = list(constraints)
        self.rng = random.Random(seed)
        self._dcs: list[DenialConstraint] | None = None

    def run(self, database: Database, iterations: int) -> None:
        """Apply *iterations* rounds of noise to *database* in place."""
        for _ in range(iterations):
            self.step(database)

    def step(self, database: Database) -> None:
        """One CONoise iteration."""
        dcs = self._lowered(database)
        if not dcs:
            return
        dc = self.rng.choice(dcs)
        identifiers = database.ids()
        if not identifiers:
            return
        assignment: dict[str, int] = {}
        for variable, relation in dc.variables:
            candidates = database.relation_ids(relation)
            if not candidates:
                return
            assignment[variable] = self.rng.choice(candidates)
        for predicate in dc.predicates:
            self._force_predicate(database, dc, predicate, assignment)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _lowered(self, database: Database) -> list[DenialConstraint]:
        if self._dcs is None:
            self._dcs = lower_constraints(self.constraints, database.schema)
        return self._dcs

    def _force_predicate(
        self,
        database: Database,
        dc: DenialConstraint,
        predicate: Predicate,
        assignment: dict[str, int],
    ) -> None:
        facts = {
            variable: database[identifier]
            for variable, identifier in assignment.items()
        }
        if predicate.evaluate(facts, database.schema):
            return
        sides = [
            term for term in (predicate.left, predicate.right) if not term.is_constant
        ]
        if not sides:
            return  # constant-only predicate cannot be forced
        op = predicate.op
        if op in (ComparisonOp.EQ, ComparisonOp.LE, ComparisonOp.GE):
            self._copy_side(database, predicate, assignment)
        else:
            self._randomize_side(database, predicate, assignment)

    def _copy_side(
        self,
        database: Database,
        predicate: Predicate,
        assignment: dict[str, int],
    ) -> None:
        """Make the predicate true by copying one operand onto the other."""
        left, right = predicate.left, predicate.right
        if left.is_constant and right.is_constant:
            return
        if left.is_constant or right.is_constant:
            constant, column = (
                (left, right) if left.is_constant else (right, left)
            )
            database.update(
                assignment[column.variable], column.attribute, constant.constant
            )
            return
        source, target = (left, right) if self.rng.random() < 0.5 else (right, left)
        value = database.get_cell(assignment[source.variable], source.attribute)
        database.update(assignment[target.variable], target.attribute, value)

    def _randomize_side(
        self,
        database: Database,
        predicate: Predicate,
        assignment: dict[str, int],
    ) -> None:
        """Satisfy a {<, >, ≠} predicate by rewriting one side."""
        left, right = predicate.left, predicate.right
        movable = [term for term in (left, right) if not term.is_constant]
        target = self.rng.choice(movable)
        other = right if target is left else left
        other_value = (
            other.constant
            if other.is_constant
            else database.get_cell(assignment[other.variable], other.attribute)
        )
        identifier = assignment[target.variable]
        fact = database[identifier]
        # A one-off read: counting the column here keeps the database from
        # materializing (and maintaining ever after) a live domain index.
        domain = active_domain(database.column(fact.relation, target.attribute))

        def satisfied(candidate: Value) -> bool:
            if target is left:
                return predicate.op.evaluate(candidate, other_value)
            return predicate.op.evaluate(other_value, candidate)

        candidates = [v for v in domain.values_by_frequency() if satisfied(v)]
        if candidates:
            database.update(identifier, target.attribute, self.rng.choice(candidates))
            return
        fallback = self._value_in_range(other_value, predicate.op, target is left)
        if fallback is not None:
            database.update(identifier, target.attribute, fallback)

    def _value_in_range(
        self, other_value: Value, op: ComparisonOp, target_is_left: bool
    ) -> Value | None:
        """A random value making the comparison true against *other_value*."""
        if other_value is None:
            return None
        if op is ComparisonOp.NE:
            if isinstance(other_value, (int, float)) and not isinstance(
                other_value, bool
            ):
                return other_value + self.rng.randint(1, 100)
            return f"{other_value}_x{self.rng.randint(0, 999)}"
        if not isinstance(other_value, (int, float)) or isinstance(other_value, bool):
            return None
        offset = self.rng.uniform(1, 100)
        wants_smaller = (op is ComparisonOp.LT) == target_is_left
        value = other_value - offset if wants_smaller else other_value + offset
        return int(value) if isinstance(other_value, int) else value
