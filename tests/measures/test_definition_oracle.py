"""``I_d``, ``I_MC`` and ``I'_MC`` against their definitions.

The three measures are scored from component parts (``I_d`` as "some
component exists", ``I'_MC`` adding the self-inconsistent facts of each
component), so every entry point is checked against
:func:`tests.oracle.definition_values`: ``MI_Σ(D)`` from brute-force
witnesses and ⊆-minimization, ``|MC_Σ(D)|`` from every subset of a
database of at most eight facts.  The entry points are the one-shot
``value``, ``session.measure_all`` and ``speculate_batch`` over deletion and update candidates,
each checked against the oracle on the patched copy.

Draws include width-1 DCs, so self-inconsistent facts appear, and a
two-relation case with one DC per relation.
"""

from __future__ import annotations

import random

import pytest

from repro.measures import make_measure
from repro.relational import Database, Fact, Schema
from repro.repairs.operations import (
    DeleteOperation,
    UpdateOperation,
    apply_sequence,
)
from repro.session import MeasurementSession

from ..oracle import (
    ATTRIBUTES,
    MAX_SUBSET_FACTS,
    definition_mi,
    definition_values,
    int_cell,
    random_dc,
)

NAMES = ("I_d", "I_MC", "I'_MC")

#: Draws per case; the counts of CHANGES.md.
DRAWS = 100


def _database(rng: random.Random, relations: list[str]) -> Database:
    schema = Schema.from_dict({name: list(ATTRIBUTES) for name in relations})
    database = Database(schema)
    for _ in range(rng.randint(2, MAX_SUBSET_FACTS)):
        values = tuple(int_cell(rng) for _ in ATTRIBUTES)
        database.insert(Fact(rng.choice(relations), values))
    return database


def _one_relation_case(rng: random.Random):
    """One relation, one or two DCs, the first of width 1 half the time."""
    dcs = [
        random_dc(
            rng,
            ["R0"],
            1 if k == 0 and rng.random() < 0.5 else rng.randint(1, 3),
            name=f"dc{k}",
        )
        for k in range(rng.randint(1, 2))
    ]
    return _database(rng, ["R0"]), dcs


def _two_relation_case(rng: random.Random):
    """Two relations, one DC each."""
    dcs = [
        random_dc(rng, [relation], rng.randint(1, 2), name=f"dc_{relation}")
        for relation in ("R0", "R1")
    ]
    return _database(rng, ["R0", "R1"]), dcs


def _candidates(rng: random.Random, database: Database) -> list[list]:
    """Deletion-only candidates (previewed unapplied) and update ones
    (applied under a savepoint)."""
    live = database.ids()
    return [
        [DeleteOperation(rng.choice(live))],
        [DeleteOperation(i) for i in rng.sample(live, 2)],
        [UpdateOperation(rng.choice(live), rng.choice(ATTRIBUTES), int_cell(rng))],
        [
            DeleteOperation(rng.choice(live)),
            UpdateOperation(rng.choice(live), rng.choice(ATTRIBUTES), int_cell(rng)),
        ],
    ]


def _check(rng: random.Random, database: Database, dcs) -> bool:
    """Every entry point equals the oracle; whether D has a
    self-inconsistent fact."""
    measures = [make_measure(name) for name in NAMES]
    expected = definition_values(dcs, database)
    for measure in measures:
        assert measure.value(dcs, database) == expected[measure.name]
    candidates = _candidates(rng, database)
    patched = [
        definition_values(dcs, apply_sequence(database, operations))
        for operations in candidates
    ]
    with MeasurementSession(dcs, database) as session:
        assert session.measure_all(measures) == expected
        assert session.speculate_batch(candidates, measures) == patched
        assert session.stats()["speculation"] == {
            "deletion_previews": 2,
            "savepoint_previews": 2,
        }
        assert session.pending_deltas == 0
    return any(len(group) == 1 for group in definition_mi(dcs, database))


@pytest.mark.parametrize(
    "draw",
    [_one_relation_case, _two_relation_case],
    ids=["one-relation", "two-relation"],
)
def test_measures_match_definitions(draw, case_rng):
    self_inconsistent = 0
    for _ in range(DRAWS):
        database, dcs = draw(case_rng)
        self_inconsistent += _check(case_rng, database, dcs)
    # The width-1 draws must actually exercise the I'_MC correction.
    assert self_inconsistent > 0
