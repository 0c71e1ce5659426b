"""ComponentValueCache bounding: LRU eviction, live components, warm entries.

Regression suite for the wholesale-clear bug: crossing *max_entries*
mid-sweep used to drop every hot entry (and the identity-keyed measure
instances with them), so the very next measurement point re-solved every
live component.  Eviction is now LRU, and a session's live components
carry their own values, so eviction never costs them a re-solve.
"""

from __future__ import annotations

from repro.constraints import FunctionalDependency
from repro.measures import make_measures
from repro.measures.base import (
    ComponentValueCache,
    ComponentwiseMeasure,
    warm_cache_token,
)
from repro.relational import Database, Fact, Schema
from repro.session import MeasurementSession


class _CountingMeasure(ComponentwiseMeasure):
    name = "I_count"

    def __init__(self) -> None:
        self.calls = 0

    def component_value(self, constraints, database, component) -> float:
        self.calls += 1
        return 1.0


def _probe(cache: ComponentValueCache, measure, key) -> float:
    return cache.component_value(measure, [], None, None, key=key)


class TestLruEviction:
    def test_bound_evicts_stalest_first(self):
        cache = ComponentValueCache(max_entries=8)
        measure = _CountingMeasure()
        for k in range(8):
            _probe(cache, measure, ("key", k))
        # Refresh key 0: it becomes the youngest entry.
        _probe(cache, measure, ("key", 0))
        assert cache.hits == 1
        # Crossing the bound evicts from the stale end (keys 1, 2, ...),
        # not wholesale.
        _probe(cache, measure, ("key", 8))
        assert len(cache) <= 8
        assert cache.evictions > 0
        hits = cache.hits
        _probe(cache, measure, ("key", 0))  # survived (recently used)
        assert cache.hits == hits + 1
        misses = cache.misses
        _probe(cache, measure, ("key", 1))  # evicted (stalest)
        assert cache.misses == misses + 1

    def test_sweep_crossing_the_bound_keeps_its_hit_rate(self):
        """The end-to-end regression: a session sweep over more components
        than *max_entries* allows must keep serving live components from
        cache — wholesale clearing made every point past the bound re-solve
        everything."""
        schema = Schema.from_dict({"R": ["A", "B", "C"]})
        facts = [
            Fact("R", (k, source, 0))
            for k in range(24)
            for source in ("x", "y")
        ]
        database = Database.from_facts(schema, facts)
        constraints = [FunctionalDependency("R", {"A"}, {"B"})]
        measures = make_measures(("I_MI", "I_P", "I_R", "I_lin_R"))
        with MeasurementSession(constraints, database) as session:
            session.component_cache.max_entries = 16
            components = len(session.index().components())
            assert components > 16  # the sweep genuinely crosses the bound
            session.measure_all(measures)
            # Re-measuring an unchanged state must be all hits: every live
            # component stayed cached even though the bound was crossed.
            session.component_cache.misses = 0
            session.measure_all(measures)
            assert session.component_cache.misses == 0


class TestComponentValues:
    def test_fresh_measure_instances_stay_bounded(self):
        """Callers that build a fresh measure per read grow one unchanged
        component's values by one entry each; 64 entries is the cap."""
        schema = Schema.from_dict({"R": ["A", "B"]})
        database = Database.from_rows(schema, "R", [(1, "x"), (1, "y")])
        constraints = [FunctionalDependency("R", {"A"}, {"B"})]
        with MeasurementSession(constraints, database) as session:
            (component,) = session.topology.components()
            for _ in range(100):
                (measure,) = make_measures(("I_MI",))
                assert session.measure(measure) == 1.0
                assert session.topology.components() == [component]
                assert component.values[measure] == 1.0
                assert len(component.values) <= 64


class TestWarmTokens:
    def test_plain_config_measures_have_tokens(self):
        for measure in make_measures(("I_MI", "I_P", "I_MC", "I_R", "I_lin_R")):
            token = warm_cache_token(measure)
            assert token is not None
            assert token == warm_cache_token(type(measure)())

    def test_divergent_config_divides_tokens(self):
        from repro.measures.mc import MaximalConsistentMeasure

        assert warm_cache_token(
            MaximalConsistentMeasure(enumeration_limit=10)
        ) != warm_cache_token(MaximalConsistentMeasure(enumeration_limit=20))

    def test_opaque_config_gets_no_token(self):
        from repro.measures.minimal_repair import MinimumRepairMeasure

        measure = MinimumRepairMeasure(cost_function=lambda db, i: 1.0)
        assert warm_cache_token(measure) is None

    def test_nested_opaque_config_gets_no_token(self):
        """A container attribute hiding mutable/opaque data must disqualify
        the measure: the token has to be hashable and picklable."""
        measure = _CountingMeasure()
        measure.weights = (1, [2, 3])
        assert warm_cache_token(measure) is None
        measure.weights = (1, (2, frozenset({3})))
        assert warm_cache_token(measure) is not None

    def test_malformed_warm_entries_are_dropped_not_raised(self):
        cache = ComponentValueCache()
        cache.absorb_warm([((1, [2]), ("key", 1), 7.0)])  # unhashable token
        assert not cache._warm

    def test_absorbed_entries_count_as_hits(self):
        cache = ComponentValueCache()
        donor = _CountingMeasure()
        cache.absorb_warm([(warm_cache_token(donor), ("key", 1), 7.0)])
        adopter = _CountingMeasure()
        assert _probe(cache, adopter, ("key", 1)) == 7.0
        assert cache.hits == 1 and cache.misses == 0
        assert adopter.calls == 0
