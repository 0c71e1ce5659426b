"""The brute-force witness oracle the enumeration suites compare against.

It shares no code with any enumerator: a nested loop over every
assignment of facts to a DC's tuple variables, evaluated with
``Predicate.evaluate``, and ⊆-minimization straight from the definition.
"""

from __future__ import annotations

import itertools

from repro.constraints.dc import DenialConstraint
from repro.relational import Database


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
