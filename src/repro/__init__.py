"""repro — inconsistency measures for databases.

A complete reproduction of *Properties of Inconsistency Measures for
Databases* (Livshits, Kochirgan, Tsur, Ilyas, Kimelfeld, Roy — SIGMOD 2021):
the measures I_d, I_MI, I_P, I_MC, I'_MC, I_R and I_lin_R, the rationality
properties and their counterexamples, the complexity results (Theorem 1
dichotomy, MaxCut reduction), and the full experimental harness — on top of
from-scratch relational, SQL, covering-LP and hitting-set substrates.

Quickstart::

    from repro import measure, parse_fd, Database, Schema

    schema = Schema.from_dict({"R": ["City", "Country"]})
    db = Database.from_rows(schema, "R", [("Paris", "FR"), ("Paris", "DE")])
    fd = parse_fd("R: City -> Country")
    print(measure("I_lin_R", [fd], db))
"""

from __future__ import annotations

from typing import Sequence

from .constraints import (
    ComparisonOp,
    Constraint,
    DenialConstraint,
    EqualityGeneratingDependency,
    FunctionalDependency,
    parse_dc,
    parse_fd,
)
from .measures import (
    FIGURE_MEASURES,
    TABLE2_MEASURES,
    InconsistencyMeasure,
    available_measures,
    make_measure,
)
from .relational import ChangeEvent, Database, Fact, Schema
from .session import MeasurementSession
from .violations import ViolationIndex, build_violation_index, is_consistent

__version__ = "1.0.0"

__all__ = [
    "ChangeEvent",
    "ComparisonOp",
    "Constraint",
    "Database",
    "DenialConstraint",
    "EqualityGeneratingDependency",
    "Fact",
    "FIGURE_MEASURES",
    "FunctionalDependency",
    "InconsistencyMeasure",
    "MeasurementSession",
    "Schema",
    "TABLE2_MEASURES",
    "ViolationIndex",
    "available_measures",
    "build_violation_index",
    "is_consistent",
    "make_measure",
    "measure",
    "parse_dc",
    "parse_fd",
]


def measure(name: str, constraints: Sequence[Constraint], database: Database) -> float:
    """One-call measurement: ``measure("I_R", Σ, D)``."""
    return make_measure(name).value(list(constraints), database)
