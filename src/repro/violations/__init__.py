"""Violation detection: minimal inconsistent subsets and their live components."""

from .minimal import (
    MinimalViolation,
    ViolationIndex,
    build_violation_index,
    find_first_violation,
    is_consistent,
    lower_constraints,
    violations_of,
)
from .topology import ComponentTopology, TopologyComponent, mi_sort_key

__all__ = [
    "ComponentTopology",
    "MinimalViolation",
    "TopologyComponent",
    "ViolationIndex",
    "mi_sort_key",
    "build_violation_index",
    "find_first_violation",
    "is_consistent",
    "lower_constraints",
    "violations_of",
]
