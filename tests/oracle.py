"""The brute-force witness oracle the enumeration suites compare against.

It shares no code with any enumerator: a nested loop over every
assignment of facts to a DC's tuple variables, evaluated with
``Predicate.evaluate``, and ⊆-minimization straight from the definition.
:func:`random_instance` draws the small random (database, DC) pairs those
suites feed to both.
"""

from __future__ import annotations

import itertools
import random

from repro.constraints.base import ComparisonOp
from repro.constraints.dc import DenialConstraint, Predicate, Term
from repro.relational import Database, Fact, Schema

#: Attributes of every relation :func:`random_instance` draws.
ATTRIBUTES = ["A", "B"]

_OPS = list(ComparisonOp)


def brute_force_witnesses(
    dc: DenialConstraint, database: Database
) -> set[frozenset[int]]:
    """Every tuple assignment satisfying *dc*'s body, as a fact-id set."""
    variables = [variable for variable, _ in dc.variables]
    pools = [database.relation_ids(relation) for _, relation in dc.variables]
    found: set[frozenset[int]] = set()
    for chosen in itertools.product(*pools):
        assignment = {
            variable: database[identifier]
            for variable, identifier in zip(variables, chosen)
        }
        if all(
            predicate.evaluate(assignment, database.schema)
            for predicate in dc.predicates
        ):
            found.add(frozenset(chosen))
    return found


def minimal_sets(family: set[frozenset[int]]) -> set[frozenset[int]]:
    """Members of *family* with no proper subset in *family*."""
    return {group for group in family if not any(other < group for other in family)}


def int_cell(rng: random.Random):
    return None if rng.random() < 0.15 else rng.randint(0, 3)


def int_constant(rng: random.Random):
    return rng.randint(0, 3)


def random_instance(rng: random.Random, cell=int_cell, constant=int_constant):
    """A random database over one or two relations ``R0``/``R1(A, B)``
    and a random DC of width 1–3 over it: equality joins, inequalities
    and constant comparisons, connected or not.  *cell* draws each stored
    value and *constant* each predicate constant."""
    relations = [f"R{k}" for k in range(rng.randint(1, 2))]
    schema = Schema.from_dict({name: list(ATTRIBUTES) for name in relations})
    database = Database(schema)
    for name in relations:
        for _ in range(rng.randint(2, 14)):
            values = tuple(cell(rng) for _ in ATTRIBUTES)
            database.insert(Fact(name, values))
    width = rng.randint(1, 3)
    variables = [(f"t{k}", rng.choice(relations)) for k in range(width)]
    names = [variable for variable, _ in variables]
    predicates = []
    for _ in range(rng.randint(1, 3)):
        left = Term.col(rng.choice(names), rng.choice(ATTRIBUTES))
        if rng.random() < 0.3:
            right = Term.const(constant(rng))
        else:
            right = Term.col(rng.choice(names), rng.choice(ATTRIBUTES))
        predicates.append(Predicate(left, rng.choice(_OPS), right))
    dc = DenialConstraint(variables, predicates, name="random_dc")
    return database, dc
