"""Unit tests for the exact covering LP, cross-checked with the half-integral path
and (when scipy is installed) with HiGHS."""

import random
from fractions import Fraction

import pytest

from repro.solvers.halfintegral import vertex_cover_lp
from repro.solvers.simplex import covering_lp


def assert_optimal_certificate(sets, weights, value, x):
    """``x`` is feasible and ``Σ w·x`` equals *value* exactly."""
    assert all(fraction >= 0 for fraction in x.values())
    for group in sets:
        assert sum(x[element] for element in group) >= 1
    weight_of = weights or {}
    exact = sum(Fraction(weight_of.get(element, 1)) * x[element] for element in x)
    assert isinstance(exact, Fraction)
    assert float(exact) == value


def random_family(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 10)
    weights = {element: rng.uniform(0.5, 3.0) for element in range(n)}
    sets = [
        frozenset(rng.sample(range(n), rng.randint(1, min(4, n))))
        for _ in range(rng.randint(1, 14))
    ]
    return sets, weights


class TestBasics:
    def test_single_pair(self):
        value, x = covering_lp([{0, 1}])
        assert value == 1.0
        assert sum(x.values()) == 1

    def test_triangle_half_integral(self):
        value, x = covering_lp([{0, 1}, {1, 2}, {0, 2}])
        assert value == 1.5
        assert x == {0: Fraction(1, 2), 1: Fraction(1, 2), 2: Fraction(1, 2)}

    def test_three_uniform_cycle_takes_thirds(self):
        # Every element lies in three of the four triples: x = 1/3 each.
        sets = [{0, 1, 2}, {1, 2, 3}, {2, 3, 0}, {3, 0, 1}]
        value, x = covering_lp(sets)
        assert value == float(Fraction(4, 3))
        assert_optimal_certificate(sets, None, value, x)

    def test_weighted_picks_cheaper_element(self):
        value, x = covering_lp([{"a", "b"}], {"a": 5.0, "b": 2.0})
        assert value == 2.0
        assert x == {"a": 0, "b": 1}

    def test_default_weight_is_one(self):
        value, _ = covering_lp([{"a"}, {"b"}], {"a": 3.0})
        assert value == 4.0

    def test_assignment_covers_every_element(self):
        sets = [{0, 1, 2}, {2, 3}]
        _, x = covering_lp(sets)
        assert set(x) == {0, 1, 2, 3}
        assert all(isinstance(fraction, Fraction) for fraction in x.values())

    def test_accepts_any_iterables(self):
        assert covering_lp(iter([(0, 1), [1, 2]]))[0] == 1.0


class TestAgainstMaxFlow:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_graphs_equal_exactly(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 25)
        edges = sorted(
            {
                tuple(sorted(rng.sample(range(n), 2)))
                for _ in range(rng.randint(1, 3 * n))
            }
        )
        vertices = sorted({v for edge in edges for v in edge})
        weights = {v: float(rng.randint(1, 9)) for v in vertices}
        flow_value, _ = vertex_cover_lp(vertices, edges, weights)
        value, x = covering_lp(edges, weights)
        assert value == flow_value
        assert_optimal_certificate(edges, weights, value, x)


class TestCertificates:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_weighted_hypergraphs(self, seed):
        sets, weights = random_family(seed)
        value, x = covering_lp(sets, weights)
        assert_optimal_certificate(sets, weights, value, x)


def test_random_covering_lps_match_highs():
    linprog = pytest.importorskip("scipy.optimize").linprog
    for seed in range(300):
        sets, weights = random_family(seed)
        value, _ = covering_lp(sets, weights)
        elements = sorted(weights)
        reference = linprog(
            [weights[element] for element in elements],
            A_ub=[
                [-1.0 if element in group else 0.0 for element in elements]
                for group in sets
            ],
            b_ub=[-1.0] * len(sets),
            bounds=[(0, None)] * len(elements),
            method="highs",
        )
        assert reference.success, seed
        assert value == pytest.approx(reference.fun, abs=1e-7), seed
