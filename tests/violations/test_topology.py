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
from repro.measures import make_measure
from repro.relational import Database, Fact, Schema
from repro.repairs.operations import UpdateOperation
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

    # ------------------------------------------------------------------
    # The three status rules, each previewed and then committed.
    # ------------------------------------------------------------------
    @staticmethod
    def _status_constraints():
        """A pair DC inside the width-3 ``wide3`` DC: a same-B pair
        ``{x, y}`` dominates every wide3 witness holding both."""
        return [
            parse_dc(
                "not(t.A = t2.A, t.B = t2.B, t.C > t2.C)", "R", name="same_b"
            ),
            _constraint_suites()["wide"][1],
        ]

    @staticmethod
    def _update(session, constraints, database, identifier, attribute, value):
        """Score the update through the read-only preview, commit it, and
        check the preview, the live topology and the untouched last
        component against the committed state and a scratch split."""
        measures = [make_measure("I_MI"), make_measure("I_P")]
        untouched = session.topology.components()[-1]
        previewed = session.speculate(
            [UpdateOperation(identifier, attribute, value)], measures
        )
        database.update(identifier, attribute, value)
        assert previewed == {
            measure.name: measure.value(constraints, database)
            for measure in measures
        }
        _assert_matches_scratch(session, constraints, database)
        assert session.topology.components()[-1] is untouched

    def test_fresh_pair_demotes_minimal_wide_witness(self, schema):
        database = Database.from_rows(
            schema,
            "R",
            [
                (1, "p", 3), (1, "q", 2), (1, "r", 1),  # wide3 {0, 1, 2}
                (5, "s", 3), (5, "t", 2), (5, "u", 1),  # wide3 {3, 4, 5}
            ],
        )
        constraints = self._status_constraints()
        with MeasurementSession(constraints, database) as session:
            assert session.index().mi_sets == [
                frozenset({0, 1, 2}), frozenset({3, 4, 5})
            ]
            # f1 takes f0's B: the fresh pair {0, 1} demotes {0, 1, 2}.
            self._update(session, constraints, database, 1, "B", "p")
            assert [c.problematic for c in session.index().components()] == [
                {0, 1},
                {3, 4, 5},
            ]

    def test_broken_pair_promotes_wide_witness_across_components(self, schema):
        database = Database.from_rows(
            schema,
            "R",
            [
                (1, "p", 3), (1, "p", 2),  # pair {0, 1}
                (1, "r", 1), (1, "r", 0),  # pair {2, 3}
                (7, "s", 3), (7, "s", 2),  # pair {4, 5}
            ],
        )
        constraints = self._status_constraints()
        with MeasurementSession(constraints, database) as session:
            assert [c.problematic for c in session.index().components()] == [
                {0, 1},
                {2, 3},
                {4, 5},
            ]
            # Breaking {0, 1} promotes the wide3 witnesses {0, 1, 2} and
            # {0, 1, 3}, whose third fact lies in the {2, 3} component.
            self._update(session, constraints, database, 1, "B", "q")
            index = session.index()
            assert frozenset({0, 1, 2}) in index.mi_sets
            assert [c.problematic for c in index.components()] == [
                {0, 1, 2, 3},
                {4, 5},
            ]

    def test_fixed_hub_promotes_pairs_into_several_components(self, schema):
        database = Database.from_rows(
            schema,
            "R",
            [
                (9, "bad", 0),  # f0: the self-inconsistent hub
                (9, "a", 50), (2, "c", 50),  # {1, 2}; {0, 1} under A → B
                (0, "b", 0), (0, "d", 7),  # {3, 4}; {0, 3} under C → B
                (20, "u", 30), (20, "v", 31),  # {5, 6}
            ],
        )
        constraints = [
            FunctionalDependency("R", {"A"}, {"B"}),
            FunctionalDependency("R", {"C"}, {"B"}),
            parse_dc("not(t.B = 'bad')", "R", name="bad_b"),
        ]
        with MeasurementSession(constraints, database) as session:
            assert [c.problematic for c in session.index().components()] == [
                {0},
                {1, 2},
                {3, 4},
                {5, 6},
            ]
            # Fixing the hub retires {0} and promotes the pairs it
            # dominated, which merge its neighbours' components.
            self._update(session, constraints, database, 0, "B", "ok")
            assert [c.problematic for c in session.index().components()] == [
                {0, 1, 2, 3, 4},
                {5, 6},
            ]


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
    """``preview_deletion(F)`` is ``preview(F, ∅)`` without the work."""

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
                generation = topology.generation
                minimized, region = topology.preview_deletion(facts)
                # The filter is the full preview of the deletion exactly:
                # same family, same order, same region.
                assert topology.preview(facts, set()) == (minimized, region)
                assert topology.generation == generation
                assert all(facts.isdisjoint(witness) for witness in minimized)
                split = _previewed_components(topology, minimized, region)
                scratch = build_violation_index(
                    constraints, database.subset(set(ids) - facts)
                )
                assert split == [c.mi_sets for c in scratch.components()]
                _random_mutation(rng, database)
