"""Shared helpers for the synthetic dataset generators.

Each generator produces an initially *consistent* database (§6.1: "Initially,
all datasets are consistent w.r.t. the given set of DCs"), with realistic
value distributions: functional relationships are baked in through seeded
lookup tables, numeric order constraints through construction.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..relational.database import Database
from ..relational.schema import Schema

_SYLLABLES = (
    "al", "an", "ar", "bel", "bor", "cal", "dan", "del", "dor", "el",
    "far", "gal", "han", "kel", "lan", "mar", "nor", "or", "par", "quil",
    "ran", "sal", "tan", "ul", "ver", "wen", "xan", "yor", "zel",
)


def synthetic_name(rng: random.Random, syllables: int = 3) -> str:
    """A pronounceable synthetic proper name."""
    word = "".join(rng.choice(_SYLLABLES) for _ in range(syllables))
    return word.capitalize()


def name_pool(rng: random.Random, count: int, syllables: int = 3) -> list[str]:
    """*count* distinct synthetic names."""
    pool: set[str] = set()
    while len(pool) < count:
        pool.add(synthetic_name(rng, syllables))
    return sorted(pool)


def code_pool(rng: random.Random, count: int, width: int = 4) -> list[str]:
    """*count* distinct uppercase letter codes (airport idents, tickers...)."""
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    pool: set[str] = set()
    while len(pool) < count:
        pool.add("".join(rng.choice(letters) for _ in range(width)))
    return sorted(pool)


def digits(rng: random.Random, width: int) -> str:
    """A fixed-width digit string (zip codes, phone numbers)."""
    return "".join(str(rng.randrange(10)) for _ in range(width))


def build_single_relation(
    relation: str,
    attributes: Sequence[str],
    rows: Sequence[Sequence],
) -> Database:
    """Assemble a one-relation database."""
    schema = Schema.from_dict({relation: list(attributes)})
    return Database.from_rows(schema, relation, rows)
