"""Exact minimum-weight hitting sets over conflict (hyper)graphs.

``I_R`` with tuple deletions is the minimum-weight set of facts intersecting
every minimal inconsistent subset:

* when every MI subset has ≤ 2 facts (FDs, 2-variable DCs) this is weighted
  **vertex cover** on the conflict graph — solved by Nemhauser–Trotter
  kernelization (half-integral LP) followed by branching on the half kernel,
  per connected component;
* otherwise it is a **hitting set** over a bounded-width hypergraph — solved
  by depth-first branching on the elements of an uncovered set, with the
  greedy cover as incumbent and branches pruned once their weight reaches
  the incumbent's.

Both paths are exact.  A node budget guards against adversarial instances
(the problem is NP-hard — Theorem 1); exceeding it raises
:class:`BudgetExceeded`.  An optional *deadline* (any object with a
``check()`` raising on expiry — in practice
:class:`repro.solvers.anytime.Deadline`) is polled at every branch node so
the anytime runtime can interrupt a solve wall-clock-fairly; the greedy
incumbent found before the interrupt remains a valid upper bound.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Sequence

from .halfintegral import nemhauser_trotter_kernel, vertex_cover_lp

Element = Hashable


class BudgetExceeded(RuntimeError):
    """Raised when the exact branching exhausts its node budget."""


def minimum_hitting_set(
    sets: Sequence[frozenset[Element]],
    weights: Mapping[Element, float] | None = None,
    max_nodes: int = 500_000,
    deadline=None,
) -> tuple[float, set[Element]]:
    """Exact minimum-weight hitting set of *sets*.

    Empty input yields ``(0.0, set())``.  A set that is itself empty makes
    the instance infeasible and raises ``ValueError``.
    """
    deduped = _minimize_family(sets)
    if not deduped:
        return 0.0, set()
    weight_of = _resolve_weights(deduped, weights)

    # Forced elements: singleton sets must be hit by their unique element.
    forced: set[Element] = set()
    changed = True
    remaining = deduped
    while changed:
        changed = False
        for group in remaining:
            if len(group) == 1:
                (element,) = group
                if element not in forced:
                    forced.add(element)
                    changed = True
        if changed:
            remaining = [g for g in remaining if not (g & forced)]

    if not remaining:
        return _total(forced, weight_of), set(forced)

    if all(len(group) == 2 for group in remaining):
        value, cover = _exact_vertex_cover(
            remaining, weight_of, max_nodes, deadline
        )
    else:
        value, cover = _exact_hitting_set(
            remaining, weight_of, max_nodes, deadline
        )
    cover |= forced
    return _total(cover, weight_of), cover


def greedy_hitting_set(
    sets: Sequence[frozenset[Element]],
    weights: Mapping[Element, float] | None = None,
) -> set[Element]:
    """Greedy (coverage-per-weight) hitting set — incumbent for the exact solver."""
    remaining = [set(group) for group in sets if group]
    weight_of = _resolve_weights(sets, weights)
    chosen: set[Element] = set()
    while remaining:
        counts: dict[Element, int] = {}
        for group in remaining:
            for element in group:
                counts[element] = counts.get(element, 0) + 1
        best = max(
            counts,
            key=lambda element: (counts[element] / max(weight_of[element], 1e-12),
                                 repr(element)),
        )
        chosen.add(best)
        remaining = [group for group in remaining if best not in group]
    return chosen


# ----------------------------------------------------------------------
# Vertex-cover path (all conflicts pairwise)
# ----------------------------------------------------------------------
def _exact_vertex_cover(
    pair_sets: Sequence[frozenset[Element]],
    weight_of: Mapping[Element, float],
    max_nodes: int,
    deadline=None,
) -> tuple[float, set[Element]]:
    edges = []
    for group in pair_sets:
        left, right = sorted(group, key=repr)
        edges.append((left, right))
    vertices = sorted({v for edge in edges for v in edge}, key=repr)
    ones, zeros, halves = nemhauser_trotter_kernel(vertices, edges, weight_of)
    cover = set(ones)
    kernel_edges = [
        (u, v) for u, v in edges if u in halves and v in halves
    ]
    # Edges with an endpoint in `ones` are covered; NT guarantees no edge has
    # both endpoints in `zeros` or one in `zeros` and one in `halves`... the
    # latter CAN happen only with zero-degree bookkeeping; assert instead.
    for u, v in edges:
        if u in cover or v in cover:
            continue
        if u in zeros or v in zeros:
            raise AssertionError("NT kernel left an uncovered edge with a 0-vertex")
    for component in _components(kernel_edges):
        component_cover = _branch_vertex_cover(
            component, weight_of, max_nodes, deadline
        )
        cover |= component_cover
    return _total(cover, weight_of), cover


def _components(
    edges: Sequence[tuple[Element, Element]]
) -> Iterable[list[tuple[Element, Element]]]:
    parent: dict[Element, Element] = {}

    def find(x: Element) -> Element:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[Element, list[tuple[Element, Element]]] = {}
    for u, v in edges:
        groups.setdefault(find(u), []).append((u, v))
    return groups.values()


def _branch_vertex_cover(
    edges: list[tuple[Element, Element]],
    weight_of: Mapping[Element, float],
    max_nodes: int,
    deadline=None,
) -> set[Element]:
    """Exact min-weight VC of one connected kernel component by branching.

    Branch rule on a maximum-degree vertex v: either v is in the cover, or
    all of N(v) are.  The LP value of the residual graph prunes.
    """
    adjacency: dict[Element, set[Element]] = {}
    for u, v in edges:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)

    best_cover = greedy_hitting_set(
        [frozenset(edge) for edge in edges], weight_of
    )
    best_value = _total(best_cover, weight_of)
    nodes = [0]

    def residual_bound(active_edges: list[tuple[Element, Element]]) -> float:
        if not active_edges:
            return 0.0
        vertices = sorted({v for e in active_edges for v in e}, key=repr)
        value, _ = vertex_cover_lp(vertices, active_edges, weight_of)
        return value

    def recurse(
        active_edges: list[tuple[Element, Element]],
        chosen: set[Element],
        chosen_weight: float,
    ) -> None:
        nonlocal best_cover, best_value
        nodes[0] += 1
        if nodes[0] > max_nodes:
            raise BudgetExceeded(
                f"vertex-cover branching exceeded {max_nodes} nodes"
            )
        if deadline is not None:
            deadline.check()
        # Eliminate degree-1 vertices greedily: cover with the neighbour
        # (optimal when weights are uniform on the pair; in the weighted case
        # take whichever endpoint is cheaper-and-covers-at-least-as-much, so
        # fall through to branching unless clearly dominated).
        if not active_edges:
            if chosen_weight < best_value - 1e-12:
                best_value = chosen_weight
                best_cover = set(chosen)
            return
        if chosen_weight + residual_bound(active_edges) >= best_value - 1e-9:
            return
        degree: dict[Element, int] = {}
        for u, v in active_edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        pivot = max(degree, key=lambda x: (degree[x], repr(x)))
        neighbors = {
            (v if u == pivot else u)
            for u, v in active_edges
            if pivot in (u, v)
        }
        # Branch 1: pivot in the cover.
        rest = [e for e in active_edges if pivot not in e]
        recurse(rest, chosen | {pivot}, chosen_weight + weight_of[pivot])
        # Branch 2: pivot not in the cover => all neighbours are.
        rest = [
            e
            for e in active_edges
            if pivot not in e and not (e[0] in neighbors or e[1] in neighbors)
        ]
        added_weight = sum(weight_of[v] for v in neighbors)
        recurse(rest, chosen | neighbors, chosen_weight + added_weight)

    recurse(edges, set(), 0.0)
    return best_cover


# ----------------------------------------------------------------------
# General hitting-set path (hypergraph conflicts)
# ----------------------------------------------------------------------
def _exact_hitting_set(
    sets: Sequence[frozenset[Element]],
    weight_of: Mapping[Element, float],
    max_nodes: int,
    deadline=None,
) -> tuple[float, set[Element]]:
    best_cover = greedy_hitting_set(sets, weight_of)
    best_value = _total(best_cover, weight_of)
    nodes = [0]
    ordered = sorted(sets, key=lambda group: (len(group), repr(sorted(group, key=repr))))

    def recurse(chosen: set[Element], chosen_weight: float, start: int) -> None:
        nonlocal best_cover, best_value
        nodes[0] += 1
        if nodes[0] > max_nodes:
            raise BudgetExceeded(f"hitting-set branching exceeded {max_nodes} nodes")
        if deadline is not None:
            deadline.check()
        if chosen_weight >= best_value - 1e-12:
            return
        uncovered = None
        for index in range(start, len(ordered)):
            if not (ordered[index] & chosen):
                uncovered = ordered[index]
                start = index
                break
        if uncovered is None:
            best_value = chosen_weight
            best_cover = set(chosen)
            return
        for element in sorted(uncovered, key=repr):
            recurse(
                chosen | {element},
                chosen_weight + weight_of[element],
                start,
            )

    recurse(set(), 0.0, 0)
    return best_value, best_cover


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _minimize_family(
    sets: Sequence[frozenset[Element]],
) -> list[frozenset[Element]]:
    """Drop duplicates and supersets (hitting a subset hits the superset)."""
    unique = sorted(set(sets), key=lambda group: (len(group), repr(sorted(group, key=repr))))
    for group in unique:
        if not group:
            raise ValueError("an empty conflict set makes the instance infeasible")
    kept: list[frozenset[Element]] = []
    for group in unique:
        if not any(other <= group for other in kept):
            kept.append(group)
    return kept


def _resolve_weights(
    sets: Sequence[frozenset[Element]],
    weights: Mapping[Element, float] | None,
) -> dict[Element, float]:
    elements = {element for group in sets for element in group}
    weight_of = {element: 1.0 for element in elements}
    if weights:
        for element in elements:
            if element in weights:
                value = float(weights[element])
                if value <= 0:
                    raise ValueError(
                        f"hitting-set weights must be positive, got {value} "
                        f"for {element!r}"
                    )
                weight_of[element] = value
    return weight_of


def _total(cover: Iterable[Element], weight_of: Mapping[Element, float]) -> float:
    return float(sum(weight_of[element] for element in cover))
