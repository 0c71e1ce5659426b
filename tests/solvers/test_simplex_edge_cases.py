"""Edge-case and robustness tests for the exact covering LP."""

from fractions import Fraction

import pytest

from repro.solvers.simplex import covering_lp


class TestInputChecks:
    def test_empty_family(self):
        assert covering_lp([]) == (0.0, {})

    def test_empty_family_with_weights(self):
        assert covering_lp([], {"a": 2.0}) == (0.0, {})

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty set"):
            covering_lp([{0, 1}, set()])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative weight"):
            covering_lp([{0, 1}], {0: 1.0, 1: -0.5})


class TestDegenerateCases:
    def test_zero_weight_element_absorbs_everything(self):
        # The slack basis is degenerate at the start (w_0 = 0).
        value, x = covering_lp([{0, 1}, {0, 2}, {0, 3}], {0: 0.0})
        assert value == 0.0
        assert x[0] == 1
        assert x[1] == x[2] == x[3] == 0

    def test_all_zero_weights(self):
        value, x = covering_lp([{0, 1}, {1, 2}], {0: 0, 1: 0, 2: 0})
        assert value == 0.0
        assert all(sum(x[e] for e in group) >= 1 for group in ({0, 1}, {1, 2}))

    def test_singleton_sets_force_their_element(self):
        value, x = covering_lp([{0}, {1}, {0, 1, 2}], {0: 2.0, 1: 3.0, 2: 1.0})
        assert value == 5.0
        assert x[0] == x[1] == 1
        assert x[2] == 0

    def test_duplicate_sets_terminate(self):
        # Identical columns tie in every ratio test; Bland's rule must not cycle.
        sets = [{0, 1, 2}] * 6 + [{1, 2, 3}] * 4
        value, x = covering_lp(sets)
        assert value == 1.0
        assert all(sum(x[e] for e in group) >= 1 for group in sets)

    def test_nested_and_degenerate_sets_terminate(self):
        sets = [{0, 1}, {0, 1, 2}, {0, 1, 2, 3}, {1}, {1, 2}, {2, 3}, {3}]
        value, x = covering_lp(sets)
        assert value == 2.0
        assert x[1] == x[3] == 1

    def test_many_singletons_of_one_element(self):
        value, x = covering_lp([{0}] * 19)
        assert value == 1.0
        assert x == {0: 1}

    def test_large_weight_spread(self):
        value, x = covering_lp([{0, 1}], {0: 1e-3, 1: 1e3})
        assert value == 1e-3
        assert x == {0: 1, 1: 0}

    def test_weight_spread_exact_against_fractions(self):
        weights = {0: 1e-3, 1: 1e3, 2: 0.1, 3: 7.0}
        sets = [{0, 1}, {1, 2}, {2, 3}, {0, 3}, {0, 1, 2}]
        value, x = covering_lp(sets, weights)
        exact = sum(Fraction(weights[e]) * x[e] for e in x)
        assert value == float(exact)
        assert value == pytest.approx(0.101)

    def test_mixed_element_types(self):
        # Elements are ordered by repr, so mutually unorderable types mix.
        value, x = covering_lp([{"b", 1}, {1, ("t", 2)}, {"b", ("t", 2)}])
        assert value == 1.5
        assert set(x.values()) == {Fraction(1, 2)}
