"""The brute-force oracle the enumeration and measure suites compare against.

It shares no code with any enumerator: a nested loop over every
assignment of facts to a DC's tuple variables, evaluated with
``Predicate.evaluate``, and ⊆-minimization straight from the definition.
:func:`random_instance` draws the small random (database, DC) pairs those
suites feed to both.  :func:`definition_values` computes ``I_d``,
``I_MC`` and ``I'_MC`` from the paper's definitions on top of it, with
``|MC_Σ(D)|`` counted over every subset of a database of at most
:data:`MAX_SUBSET_FACTS` facts.
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
    return database, random_dc(rng, relations, rng.randint(1, 3), constant)


def random_dc(
    rng: random.Random,
    relations: list[str],
    width: int,
    constant=int_constant,
    name: str = "random_dc",
) -> DenialConstraint:
    """A random DC of *width* tuple variables over *relations*: 1–3
    predicates comparing two columns or a column and a constant."""
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
    return DenialConstraint(variables, predicates, name=name)


#: Largest database :func:`definition_values` enumerates the subsets of.
MAX_SUBSET_FACTS = 8


def definition_mi(dcs, database: Database) -> set[frozenset[int]]:
    """``MI_Σ(D)``: the ⊆-minimal witnesses over every DC of *dcs*."""
    family: set[frozenset[int]] = set()
    for dc in dcs:
        family |= brute_force_witnesses(dc, database)
    return minimal_sets(family)


def maximal_consistent_count(
    mi: set[frozenset[int]], database: Database
) -> int:
    """``|MC_Σ(D)|``: every subset of D that contains no MI set and to
    which no further fact can be added without containing one."""
    facts = database.ids()
    assert len(facts) <= MAX_SUBSET_FACTS, len(facts)

    def consistent(subset: frozenset[int]) -> bool:
        return not any(group <= subset for group in mi)

    count = 0
    for size in range(len(facts) + 1):
        for chosen in itertools.combinations(facts, size):
            subset = frozenset(chosen)
            if consistent(subset) and not any(
                consistent(subset | {fact})
                for fact in facts
                if fact not in subset
            ):
                count += 1
    return count


def definition_values(dcs, database: Database) -> dict[str, float]:
    """``I_d``, ``I_MC`` and ``I'_MC`` straight from their definitions."""
    mi = definition_mi(dcs, database)
    count = maximal_consistent_count(mi, database)
    self_inconsistent = {fact for group in mi if len(group) == 1 for fact in group}
    return {
        "I_d": 1.0 if mi else 0.0,
        "I_MC": float(count - 1),
        "I'_MC": float(count + len(self_inconsistent) - 1),
    }
