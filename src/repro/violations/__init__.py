"""Violation detection: minimal inconsistent subsets, conflict (hyper)graphs."""

from .conflict_graph import (
    ConflictGraph,
    ConflictHypergraph,
    affected_components,
    conflict_graph_from_index,
    conflict_hypergraph_from_index,
    connected_components,
)
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
    "ConflictGraph",
    "ConflictHypergraph",
    "MinimalViolation",
    "TopologyComponent",
    "ViolationIndex",
    "affected_components",
    "mi_sort_key",
    "build_violation_index",
    "conflict_graph_from_index",
    "conflict_hypergraph_from_index",
    "connected_components",
    "find_first_violation",
    "is_consistent",
    "lower_constraints",
    "violations_of",
]
