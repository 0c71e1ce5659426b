"""Half-integral LP optimum for weighted vertex cover (Nemhauser–Trotter).

The LP relaxation of minimum weighted vertex cover on a graph always has a
half-integral optimal solution (values in {0, 1/2, 1}).  It is the minimum
cut of a flow network on the bipartite double cover of the graph:

* every vertex ``v`` becomes a left copy ``vL`` and a right copy ``vR``,
  with arcs ``s → vL`` and ``vR → t`` of capacity ``w(v)``;
* every edge ``{u, v}`` becomes the uncapacitated arcs ``uL → vR`` and
  ``vL → uR``;
* a minimum cut is a minimum-weight vertex cover of the double cover, of
  weight ``2 · LP_opt``, and ``x_v = (|{vL} ∩ C| + |{vR} ∩ C|) / 2``
  realizes the LP optimum.

:func:`vertex_cover_lp` solves this network directly instead of through a
generic max-flow object.  Every s–t path has the shape ``s → uL → vR → t``
(possibly with alternating edge arcs in between), so the residual state is
three arrays: the room left on ``s → uL``, the room left on ``vR → t``, and
the flow on each ``uL → vR`` arc.  It saturates greedily along each vertex's
neighbours, then augments along multi-source breadth-first paths that
alternate forward edge arcs and reverse arcs carrying flow, until a pass
augments nothing.  That last pass's reached sets are the source side of the
cut: ``x_v`` is 1/2 if ``vL`` is unreached plus 1/2 if ``vR`` is reached.

Why the result does not depend on traversal order: after *any* maximum
flow, the set of nodes reachable from ``s`` in the residual graph is the
same, the source side of the unique minimal minimum cut.  So ``x`` is a
function of the graph and the weights alone, and ``value`` is summed over
``x`` in the caller's ``vertices`` order.  This is exact for integer-valued
weights, where every residual is an exact float integer (every dataset, and
``subset_cost`` without a ``cost`` attribute).  Fractional weights use a
residual tolerance of 1e-12.

This is the fast path used by ``I_lin_R`` whenever every minimal inconsistent
subset has at most two facts (all FDs, and every 2-variable DC); it also
powers the Nemhauser–Trotter kernelization inside the exact ``I_R`` solver.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Mapping, Sequence

Vertex = Hashable

_EPSILON = 1e-12

#: The only values an assignment holds.  They are shared objects, so a
#: caller may map them to floats by identity (:data:`AS_FLOAT`): hashing a
#: Fraction costs more than converting it.
ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)
AS_FLOAT = {id(ZERO): 0.0, id(HALF): 0.5, id(ONE): 1.0}

_HALVES = (ZERO, HALF, ONE)
_UNREACHED = -2
_FROM_SOURCE = -1


class _Seats(dict):
    """Vertex → position; an endpoint missing from it takes the next seat."""

    def __missing__(self, vertex: Vertex) -> int:
        seat = self[vertex] = len(self)
        return seat


def vertex_cover_lp(
    vertices: Sequence[Vertex],
    edges: Sequence[tuple[Vertex, Vertex]],
    weights: Mapping[Vertex, float] | None = None,
    self_loops: Sequence[Vertex] = (),
) -> tuple[float, dict[Vertex, Fraction]]:
    """Exact LP optimum of weighted vertex cover; returns (value, x).

    *self_loops* are vertices that must be fully covered (``x_v >= 1``), which
    is how single-fact violations of unary DCs enter the LP.  An edge is any
    pair of endpoints (a tuple or a two-element set); duplicates and
    ``(u, u)`` edges are allowed.  ``x`` is keyed in *vertices* order, and its
    values are the shared constants :data:`ZERO`, :data:`HALF`, :data:`ONE`.
    """
    weight_of = dict.fromkeys(vertices, 1.0)
    if weights:
        for vertex, weight in weights.items():
            if weight < 0:
                raise ValueError(f"negative weight for {vertex!r}")
        weight_of.update(zip(weights, map(float, weights.values())))

    forced = set(self_loops)
    x: dict[Vertex, Fraction] = dict.fromkeys(vertices, ZERO)
    for vertex in forced:
        x[vertex] = ONE

    # Edges with a forced endpoint are already covered; the rest go to flow.
    if forced:
        edges = [(u, v) for u, v in edges if u not in forced and v not in forced]
    seats = _Seats(zip(x, range(len(x))))
    arcs = [(seats[u], seats[v]) for u, v in edges]
    if arcs:
        order = list(seats)
        # Endpoints missing from *vertices* follow them, in repr order.
        for vertex in sorted(order[len(x) :], key=repr):
            x[vertex] = ZERO
        neighbours: list[list[int]] = [[] for _ in order]
        for i, j in arcs:
            neighbours[i].append(j)
            if i != j:
                neighbours[j].append(i)
        source_room = [weight_of[vertex] for vertex in order]
        reached = _max_flow(neighbours, source_room)
        for vertex, near, left, right in zip(order, neighbours, *reached):
            if near:
                x[vertex] = _HALVES[(left == _UNREACHED) + (right >= 0)]

    value = sum(
        weight_of[vertex] * AS_FLOAT[id(frac)] for vertex, frac in x.items()
    )
    return value, x


def _max_flow(
    neighbours: list[list[int]], source_room: list[float]
) -> tuple[list[int], list[int]]:
    """Maximum flow on the double cover; returns the final reached sets.

    ``neighbours[i]`` lists the right copies ``jR`` of the edge arcs out of
    ``iL`` (the graph is symmetric).  *source_room* holds the weights and is
    consumed as the residual room on ``s → iL``.  ``reached_left[i]`` is
    :data:`_UNREACHED`, :data:`_FROM_SOURCE`, or the right copy ``jR`` whose
    reverse arc reached ``iL``; ``reached_right[j]`` is -1 or the left copy
    whose edge arc reached ``jR``.
    """
    n = len(source_room)
    sink_room = source_room[:]
    # inflow[j][i] is the flow on the edge arc iL → jR.
    inflow: list[dict[int, float]] = [{} for _ in range(n)]

    for i in range(n):
        room = source_room[i]
        if room <= _EPSILON:
            continue
        for j in neighbours[i]:
            free = sink_room[j]
            if free > _EPSILON:
                push = room if room < free else free
                into = inflow[j]
                into[i] = into.get(i, 0.0) + push
                sink_room[j] = free - push
                room -= push
                if room <= _EPSILON:
                    break
        source_room[i] = room

    def augment(end: int) -> bool:
        """Push the bottleneck along the tree path ending at ``end``R → t."""
        bottleneck = sink_room[end]
        i = reached_right[end]
        while (parent := reached_left[i]) != _FROM_SOURCE:
            bottleneck = min(bottleneck, inflow[parent][i])
            i = reached_right[parent]
        bottleneck = min(bottleneck, source_room[i])
        if bottleneck <= _EPSILON:
            # An earlier augmentation of this pass used up part of the path.
            return False
        sink_room[end] -= bottleneck
        target = end
        i = reached_right[end]
        while True:
            into = inflow[target]
            into[i] = into.get(i, 0.0) + bottleneck
            parent = reached_left[i]
            if parent == _FROM_SOURCE:
                source_room[i] -= bottleneck
                return True
            inflow[parent][i] -= bottleneck
            target = parent
            i = reached_right[parent]

    while True:
        # One breadth-first pass from every left copy with room left.  A
        # pass that augments nothing changed no residual, so its reached
        # sets are exactly the nodes reachable from s.
        reached_left = [_UNREACHED] * n
        reached_right = [-1] * n
        queue = [i for i in range(n) if source_room[i] > _EPSILON]
        for i in queue:
            reached_left[i] = _FROM_SOURCE
        augmented = False
        for i in queue:
            for j in neighbours[i]:
                if reached_right[j] >= 0:
                    continue
                reached_right[j] = i
                if sink_room[j] > _EPSILON:
                    augmented |= augment(j)
                    continue
                for k, flow in inflow[j].items():
                    if flow > _EPSILON and reached_left[k] == _UNREACHED:
                        reached_left[k] = j
                        queue.append(k)
        if not augmented:
            return reached_left, reached_right


def nemhauser_trotter_kernel(
    vertices: Sequence[Vertex],
    edges: Sequence[tuple[Vertex, Vertex]],
    weights: Mapping[Vertex, float] | None = None,
) -> tuple[set[Vertex], set[Vertex], set[Vertex]]:
    """Partition vertices by their half-integral LP value.

    Returns ``(ones, zeros, halves)``.  The NT theorem guarantees an optimal
    *integral* cover containing all of *ones*, none of *zeros*, and some
    subset of *halves*; the exact solver branches only on *halves*.
    """
    _, x = vertex_cover_lp(vertices, edges, weights)
    ones = {v for v, value in x.items() if value is ONE}
    zeros = {v for v, value in x.items() if value is ZERO}
    halves = {v for v, value in x.items() if value is HALF}
    return ones, zeros, halves
