"""Unit tests for the half-integral vertex-cover LP (Nemhauser–Trotter).

The engine-independent reference is networkx's maximum flow on the bipartite
double cover: the minimal source side of its cut, read by residual
reachability from ``s``, fixes ``x`` exactly for integer weights.
"""

import math
import random
from fractions import Fraction

import networkx as nx
import pytest

from repro.solvers.halfintegral import nemhauser_trotter_kernel, vertex_cover_lp

HALVES = (Fraction(0), Fraction(1, 2), Fraction(1))


def double_cover(edges, weights, forced):
    """The flow network of the LP; edge arcs carry no capacity (infinite)."""
    graph = nx.DiGraph()
    graph.add_nodes_from(("s", "t"))
    for u, v in edges:
        if u in forced or v in forced:
            continue
        graph.add_edge(("L", u), ("R", v))
        graph.add_edge(("L", v), ("R", u))
        for vertex in (u, v):
            graph.add_edge("s", ("L", vertex), capacity=weights[vertex])
            graph.add_edge(("R", vertex), "t", capacity=weights[vertex])
    return graph


def residual_reachable(graph, flow):
    """Nodes reachable from ``s`` in the residual graph of *flow*."""
    reached = {"s"}
    stack = ["s"]
    while stack:
        node = stack.pop()
        forward = (
            succ
            for succ in graph.successors(node)
            if flow[node][succ] < graph[node][succ].get("capacity", math.inf)
        )
        backward = (
            pred for pred in graph.predecessors(node) if flow[pred][node] > 0
        )
        for neighbour in (*forward, *backward):
            if neighbour not in reached:
                reached.add(neighbour)
                stack.append(neighbour)
    return reached


def reference_lp(vertices, edges, weights, self_loops=()):
    """``(2·LP value, x)`` from networkx's max flow on the double cover."""
    forced = set(self_loops)
    x = {vertex: Fraction(0) for vertex in vertices}
    for vertex in forced:
        x[vertex] = Fraction(1)
    graph = double_cover(edges, weights, forced)
    flow_value, flow = nx.maximum_flow(graph, "s", "t")
    reached = residual_reachable(graph, flow)
    for node in graph:
        if node in ("s", "t") or node[0] == "R":
            continue
        vertex = node[1]
        x[vertex] = Fraction(
            (("L", vertex) not in reached) + (("R", vertex) in reached), 2
        )
    return flow_value, x


def random_instance(rng):
    """Integer weights 0–9; duplicate, reversed and (u, u) edges; forced and
    isolated vertices."""
    n = rng.randint(1, 14)
    vertices = list(range(n + rng.randint(0, 3)))  # the tail may stay isolated
    edges = []
    for _ in range(rng.randint(0, 3 * n)):
        u = rng.randrange(n)
        v = u if rng.random() < 0.1 else rng.randrange(n)
        edges.append((u, v))
        if rng.random() < 0.15:
            edges.append((v, u) if rng.random() < 0.5 else (u, v))
    weights = {vertex: rng.randint(0, 9) for vertex in vertices}
    self_loops = []
    if rng.random() < 0.3:
        self_loops = rng.sample(range(n), rng.randint(0, min(2, n)))
    return vertices, edges, weights, self_loops


class TestSmallGraphs:
    def test_single_edge(self):
        value, x = vertex_cover_lp(["a", "b"], [("a", "b")])
        assert value == pytest.approx(1.0)
        assert sum(x.values()) == Fraction(1)

    def test_triangle_all_halves(self):
        value, x = vertex_cover_lp(list("abc"), [("a", "b"), ("b", "c"), ("a", "c")])
        assert value == pytest.approx(1.5)
        assert all(v == Fraction(1, 2) for v in x.values())

    def test_star_center_is_one(self):
        edges = [("c", f"l{i}") for i in range(4)]
        vertices = ["c"] + [f"l{i}" for i in range(4)]
        value, x = vertex_cover_lp(vertices, edges)
        assert value == pytest.approx(1.0)
        assert x["c"] == Fraction(1)
        assert all(x[f"l{i}"] == 0 for i in range(4))

    def test_weighted_star_prefers_leaves(self):
        edges = [("c", f"l{i}") for i in range(3)]
        vertices = ["c", "l0", "l1", "l2"]
        value, x = vertex_cover_lp(vertices, edges, weights={"c": 10.0})
        assert value == pytest.approx(3.0)
        assert x["c"] == Fraction(0)

    def test_self_loops_forced(self):
        value, x = vertex_cover_lp(["a", "b"], [("a", "b")], self_loops=["a"])
        assert x["a"] == Fraction(1)
        assert x["b"] == Fraction(0)
        assert value == pytest.approx(1.0)

    def test_isolated_vertices_zero(self):
        value, x = vertex_cover_lp(["a", "b", "z"], [("a", "b")])
        assert x["z"] == Fraction(0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            vertex_cover_lp(["a", "b"], [("a", "b")], weights={"a": -1})

    def test_half_integrality(self):
        rng = random.Random(3)
        vertices = list(range(12))
        edges = [tuple(rng.sample(vertices, 2)) for _ in range(20)]
        _, x = vertex_cover_lp(vertices, edges)
        assert all(v in HALVES for v in x.values())

    def test_set_edges_and_self_edge(self):
        # MI pairs arrive as frozensets; an edge (u, u) forces x_u >= 1/2.
        value, x = vertex_cover_lp(["a", "b"], [frozenset("ab"), ("a", "a")])
        assert value == 1.0
        assert x["a"] >= Fraction(1, 2)
        assert x["a"] + x["b"] >= 1

    def test_endpoints_outside_vertices_follow_in_repr_order(self):
        value, x = vertex_cover_lp(
            ["m"], [("m", "z"), ("m", "b")], weights={"m": 5, "z": 1, "b": 1}
        )
        assert list(x.items()) == [
            ("m", Fraction(0)),
            ("b", Fraction(1)),
            ("z", Fraction(1)),
        ]
        assert value == 2.0

    def test_zero_weight_vertex_takes_the_edge(self):
        value, x = vertex_cover_lp(["a", "b"], [("a", "b")], weights={"a": 0})
        assert value == 0.0
        assert x["b"] == Fraction(0)


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(40))
    def test_x_is_the_minimal_source_side(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            vertices, edges, weights, self_loops = random_instance(rng)
            value, x = vertex_cover_lp(vertices, edges, weights, self_loops)
            flow_value, expected = reference_lp(vertices, edges, weights, self_loops)
            assert x == expected
            assert list(x) == vertices
            assert value == sum(weights[v] * float(x[v]) for v in vertices)
            active = {
                v
                for edge in edges
                if not set(edge) & set(self_loops)
                for v in edge
            }
            assert 2 * sum(weights[v] * x[v] for v in active) == flow_value

    @pytest.mark.parametrize("seed", range(20))
    def test_edge_order_and_direction_do_not_matter(self, seed):
        rng = random.Random(1000 + seed)
        vertices, edges, weights, self_loops = random_instance(rng)
        value, x = vertex_cover_lp(vertices, edges, weights, self_loops)
        for _ in range(5):
            shuffled = [
                (v, u) if rng.random() < 0.5 else (u, v) for u, v in edges
            ]
            rng.shuffle(shuffled)
            other_value, other_x = vertex_cover_lp(
                vertices, shuffled, weights, self_loops
            )
            assert other_value == value
            assert list(other_x.items()) == list(x.items())


class TestAgainstScipy:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_weighted_graphs(self, seed):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = random.Random(seed)
        n = rng.randint(3, 12)
        vertices = list(range(n))
        edges = set()
        for _ in range(rng.randint(2, 2 * n)):
            u, v = rng.sample(vertices, 2)
            edges.add((min(u, v), max(u, v)))
        edges = sorted(edges)
        weights = {v: rng.uniform(0.5, 3.0) for v in vertices}
        value, x = vertex_cover_lp(vertices, edges, weights)
        costs = [weights[v] for v in vertices]
        a_ub = []
        for u, v in edges:
            row = [0.0] * n
            row[u] = row[v] = -1.0
            a_ub.append(row)
        reference = linprog(
            costs,
            A_ub=a_ub,
            b_ub=[-1.0] * len(edges),
            bounds=[(0, 1)] * n,
            method="highs",
        )
        assert value == pytest.approx(reference.fun, abs=1e-7)
        assert value == sum(weights[v] * float(x[v]) for v in vertices)
        assert all(v in HALVES for v in x.values())
        # Feasibility of the half-integral assignment.
        for u, v in edges:
            assert x[u] + x[v] >= 1


class TestKernel:
    def test_partition_covers_everything(self):
        rng = random.Random(11)
        vertices = list(range(10))
        edges = sorted(
            {tuple(sorted(rng.sample(vertices, 2))) for _ in range(15)}
        )
        ones, zeros, halves = nemhauser_trotter_kernel(vertices, edges)
        assert ones | zeros | halves == set(vertices)
        assert not (ones & zeros or ones & halves or zeros & halves)
        # No edge is entirely inside `zeros` and no zero-half edges exist.
        for u, v in edges:
            assert not (u in zeros and v in zeros)
            assert not (
                (u in zeros and v in halves) or (v in zeros and u in halves)
            )
