"""ComponentTopology: incrementally maintained minimization + components.

The anchor invariant: after *any* delta stream — inserts, deletes that
split components, updates that merge them — the session's live topology is
content-identical to ``build_violation_index(Σ, D).components()`` computed
from scratch, and the assembled ``mi_sets`` list is bit-identical to the
from-scratch minimization.  On top of that, unaffected components must keep
*object identity* across deltas (what speculative scoring relies on), and
the generation counter must advance exactly when a flush changed some
witness.
"""

from __future__ import annotations

import pytest

from repro.constraints import FunctionalDependency, parse_dc
from repro.relational import Database, Fact, Schema
from repro.session import MeasurementSession
from repro.violations import build_violation_index
from repro.violations.topology import split_minimized

from ..session.test_session import (
    _constraint_suites,
    _random_fact,
    _random_mutation,
)


@pytest.fixture
def schema() -> Schema:
    return Schema.from_dict({"R": ["A", "B", "C"]})


def _assert_matches_scratch(session: MeasurementSession, constraints, database):
    """The full topology-vs-from-scratch content comparison."""
    full = build_violation_index(constraints, database)
    index = session.index()
    assert index.mi_sets == full.mi_sets
    live = index.components()
    scratch = full.components()
    assert [c.mi_sets for c in live] == [c.mi_sets for c in scratch]
    assert [c.problematic for c in live] == [c.problematic for c in scratch]
    assert [
        {(v.fact_ids, v.constraint.name) for v in c.per_constraint}
        for c in live
    ] == [
        {(v.fact_ids, v.constraint.name) for v in c.per_constraint}
        for c in scratch
    ]
    topology = session.topology
    assert set(topology.problematic()) == full.problematic
    for component in topology.components():
        assert component.facts == set().union(*component.index.mi_sets)
        assert component.minimum == min(component.facts)
        for fact in component.facts:
            assert topology.component_of(fact) is component


class TestRandomizedEquivalence:
    @pytest.mark.slow
    @pytest.mark.parametrize("suite", ["binary", "wide"])
    @pytest.mark.parametrize("case", [0, 1, 2])
    def test_delta_streams_match_scratch_split(self, schema, suite, case, case_rng):
        rng = case_rng
        database = Database.from_facts(
            schema, [_random_fact(rng) for _ in range(22)]
        )
        constraints = _constraint_suites()[suite]
        with MeasurementSession(constraints, database) as session:
            _assert_matches_scratch(session, constraints, database)
            for _ in range(90):
                _random_mutation(rng, database)
                _assert_matches_scratch(session, constraints, database)

    @pytest.mark.parametrize("case", [0, 1])
    def test_batched_deltas_match_scratch_split(self, schema, case, case_rng):
        """Many pending mutations fold into one regional rebuild."""
        rng = case_rng
        database = Database.from_facts(
            schema, [_random_fact(rng) for _ in range(20)]
        )
        constraints = _constraint_suites()["binary"]
        with MeasurementSession(constraints, database) as session:
            for _ in range(12):
                for _ in range(rng.randint(2, 8)):
                    _random_mutation(rng, database)
                _assert_matches_scratch(session, constraints, database)


class TestStructuralDeltas:
    """Engineered splits and merges along a five-fact conflict path."""

    #: Two FDs chain conflicts across A-groups (via FD A→B) and C-groups
    #: (via FD C→B): f0—f1—f2—f3—f4 is a path with f2 as cut vertex.
    PATH_ROWS = [
        (1, "x", 7),  # f0 — FD1 conflict with f1 (A=1, B differs)
        (1, "y", 8),  # f1 — FD2 conflict with f2 (C=8, B differs)
        (2, "z", 8),  # f2 — FD1 conflict with f3 (A=2, B differs)
        (2, "w", 9),  # f3 — FD2 conflict with f4 (C=9, B differs)
        (3, "v", 9),  # f4
    ]

    @staticmethod
    def _constraints():
        return [
            FunctionalDependency("R", {"A"}, {"B"}),
            FunctionalDependency("R", {"C"}, {"B"}),
        ]

    def test_delete_splits_component(self, schema):
        database = Database.from_rows(schema, "R", self.PATH_ROWS)
        constraints = self._constraints()
        with MeasurementSession(constraints, database) as session:
            assert len(session.index().components()) == 1
            database.delete(2)  # the cut vertex
            components = session.index().components()
            assert [c.problematic for c in components] == [{0, 1}, {3, 4}]
            _assert_matches_scratch(session, constraints, database)

    def test_update_merges_components(self, schema):
        rows = list(self.PATH_ROWS)
        rows[2] = (9, "z", 1)  # f2 starts disconnected
        database = Database.from_rows(schema, "R", rows)
        constraints = self._constraints()
        with MeasurementSession(constraints, database) as session:
            assert [c.problematic for c in session.index().components()] == [
                {0, 1},
                {3, 4},
            ]
            database.update(2, "A", 2)  # FD1 edge to f3
            database.update(2, "C", 8)  # FD2 edge to f1 — bridges both
            components = session.index().components()
            assert [c.problematic for c in components] == [{0, 1, 2, 3, 4}]
            _assert_matches_scratch(session, constraints, database)

    def test_untouched_components_keep_identity(self, schema):
        database = Database.from_rows(
            schema,
            "R",
            [(1, "x", 0), (1, "y", 0), (2, "p", 1), (2, "q", 1)],
        )
        constraints = [FunctionalDependency("R", {"A"}, {"B"})]
        with MeasurementSession(constraints, database) as session:
            before = session.topology.components()
            assert len(before) == 2
            untouched = before[1]
            database.update(0, "B", "y2")  # perturbs component {0, 1} only
            session.index()
            after = session.topology.components()
            assert after[1] is untouched  # object identity ⇒ cached values ok
            assert after[0] is not before[0]
            _assert_matches_scratch(session, constraints, database)


class TestGenerationSemantics:
    def test_no_witness_delta_keeps_generation(self, schema):
        database = Database.from_rows(
            schema, "R", [(1, "x", 0), (1, "y", 0), (5, "q", 9)]
        )
        constraints = [FunctionalDependency("R", {"A"}, {"B"})]
        with MeasurementSession(constraints, database) as session:
            session.index()
            generation = session.topology.generation
            database.update(2, "C", 3)  # fact 2 binds no witness
            session.index()
            assert session.topology.generation == generation
            database.update(0, "B", "z")  # retract + re-insert the conflict
            session.index()
            assert session.topology.generation > generation

    def test_refresh_resets_the_topology(self, schema):
        database = Database.from_rows(schema, "R", [(1, "x", 5), (1, "y", 5)])
        constraints = [FunctionalDependency("R", {"A"}, {"B"})]
        session = MeasurementSession(constraints, database)
        session.close()
        database.insert(Fact("R", (2, "x", 0)))
        database.insert(Fact("R", (2, "y", 0)))
        index = session.refresh()
        assert len(index.components()) == 2
        _assert_matches_scratch(session, constraints, database)


def _previewed_components(topology, minimized, region) -> list[list]:
    """The component split a preview describes: base components outside
    *region* whole, plus the split of the regional family."""
    pieces = [
        (component.minimum, component.index.mi_sets)
        for component in topology.components()
        if component not in region
    ]
    pieces += [
        (minimum, index.mi_sets) for minimum, index in split_minimized(minimized)
    ]
    return [mi_sets for _, mi_sets in sorted(pieces, key=lambda piece: piece[0])]


class TestPreviewDeletion:
    """``preview_deletion(F)`` is ``preview(gone_F, ∅)`` without the work."""

    @staticmethod
    def _suites():
        suites = _constraint_suites()
        return {
            # Binary FD-shaped DCs only.
            "fd": suites["binary"][:1] + suites["binary"][2:],
            # Singleton self-inconsistent facts next to pairs: widths {1, 2}.
            "widths_1_2": suites["binary"],
            # Width-3 witnesses left non-minimal by a pair or by a
            # self-inconsistent fact: a same-B pair {x, y} dominates the
            # wide3 witness {x, y, z}, while z (another B) can sit in a
            # different component.
            "width_3": suites["wide"][1:]
            + [
                parse_dc(
                    "not(t.A = t2.A, t.B = t2.B, t.C > t2.C)", "R", name="same_b"
                ),
                parse_dc("not(t.A > t.C)", "R", name="order"),
            ],
        }

    @pytest.mark.parametrize("suite", ["fd", "widths_1_2", "width_3"])
    @pytest.mark.parametrize("case", [0, 1, 2])
    def test_matches_full_preview_and_scratch(self, schema, suite, case, case_rng):
        rng = case_rng
        constraints = self._suites()[suite]
        database = Database.from_facts(
            schema,
            [
                Fact("R", (rng.randint(0, 3), rng.choice("xyz"), rng.randint(0, 6)))
                for _ in range(18)
            ],
        )
        with MeasurementSession(constraints, database) as session:
            for _ in range(25):
                session.index()
                topology = session.topology
                ids = database.ids()
                facts = set(rng.sample(ids, rng.randint(1, 3)))
                gone = {
                    witness
                    for fact in facts
                    for _, witness in session._touching.get(fact, ())
                }
                generation = topology.generation
                minimized, region = topology.preview_deletion(facts)
                full_minimized, full_region = topology.preview(gone, set())
                assert topology.generation == generation
                # The full preview also seeds the components of non-minimal
                # witnesses through F; those keep their content, so the
                # fast region is a subset and the families agree on it.
                assert region <= full_region
                owned = set().union(*(c.facts for c in region))
                assert minimized == [
                    witness for witness in full_minimized if witness <= owned
                ]
                assert all(facts.isdisjoint(witness) for witness in minimized)
                split = _previewed_components(topology, minimized, region)
                assert split == _previewed_components(
                    topology, full_minimized, full_region
                )
                scratch = build_violation_index(
                    constraints, database.subset(set(ids) - facts)
                )
                assert split == [c.mi_sets for c in scratch.components()]
                _random_mutation(rng, database)
