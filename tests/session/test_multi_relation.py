"""Multi-relation sessions against the from-scratch path.

A session owns one maintained state over every DC, whatever relations
they mention.  Over randomized multi-relation schemas, DC sets (including
cross-relation DCs) and interleaved insert/delete/update/speculate
histories, ``measure_all``, ``index()`` and ``problematic_facts()`` must
equal ``build_violation_index`` plus ``measure.value`` on the same
database, and every ``speculate_batch`` score must equal
copy-apply-rebuild — the randomized-history style of black-box checking
used for snapshot-isolation conformance.
"""

from __future__ import annotations

import random

import pytest

from repro.constraints import FunctionalDependency, parse_dc
from repro.constraints.base import ComparisonOp
from repro.constraints.dc import DenialConstraint, Predicate, Term
from repro.measures import TABLE2_MEASURES, available_measures, make_measure
from repro.relational import Database, Fact, Schema
from repro.repairs.operations import (
    DeleteOperation,
    InsertOperation,
    UpdateOperation,
    apply_sequence,
)
from repro.session import MeasurementSession, make_session
from repro.session import columnar
from repro.violations import build_violation_index, lower_constraints


def _cross_dc(left: str, right: str) -> DenialConstraint:
    """An FD-like DC linking two relations on A."""
    return DenialConstraint(
        [("x", left), ("y", right)],
        [
            Predicate(Term.col("x", "A"), ComparisonOp.EQ, Term.col("y", "A")),
            Predicate(Term.col("x", "B"), ComparisonOp.NE, Term.col("y", "B")),
        ],
        name=f"cross_{left}_{right}",
    )


def _random_setup(rng: random.Random) -> tuple[Schema, list]:
    """A random multi-relation schema with a random DC set."""
    relations = [f"R{k}" for k in range(rng.randint(2, 4))]
    schema = Schema.from_dict(
        {relation: ["A", "B", "C"] for relation in relations}
    )
    constraints: list = []
    for relation in relations:
        constraints.append(FunctionalDependency(relation, {"A"}, {"B"}))
        if rng.random() < 0.5:
            constraints.append(
                parse_dc("not(t.A > t.C)", relation, name=f"ord_{relation}")
            )
    if len(relations) >= 2 and rng.random() < 0.6:
        left, right = rng.sample(relations, 2)
        constraints.append(_cross_dc(left, right))
    return schema, constraints


def _random_fact(rng: random.Random, relation: str) -> Fact:
    return Fact(
        relation, (rng.randint(0, 4), rng.choice("xyz"), rng.randint(0, 8))
    )


def _random_mutation(rng: random.Random, database: Database, relations) -> None:
    identifiers = database.ids()
    roll = rng.random()
    if roll < 0.5 and identifiers:
        attribute = rng.choice(["A", "B", "C"])
        value = rng.randint(0, 6) if rng.random() < 0.7 else rng.choice("xyz")
        database.update(rng.choice(identifiers), attribute, value)
    elif roll < 0.75 or not identifiers:
        database.insert(_random_fact(rng, rng.choice(relations)))
    else:
        database.delete(rng.choice(identifiers))


def _random_candidates(
    rng: random.Random, database: Database, relations, count: int
) -> list[list]:
    candidates = []
    for _ in range(count):
        operations = []
        for _ in range(rng.randint(1, 3)):
            identifiers = database.ids()
            roll = rng.random()
            if roll < 0.4 and identifiers:
                operations.append(DeleteOperation(rng.choice(identifiers)))
            elif roll < 0.8 and identifiers:
                operations.append(
                    UpdateOperation(
                        rng.choice(identifiers),
                        rng.choice(["A", "B", "C"]),
                        rng.randint(0, 6),
                    )
                )
            else:
                operations.append(
                    InsertOperation(_random_fact(rng, rng.choice(relations)))
                )
        candidates.append(operations)
    return candidates


def _scratch_values(constraints, database, measures) -> dict[str, float]:
    index = build_violation_index(constraints, database)
    return {
        measure.name: measure.value(constraints, database, index)
        for measure in measures
    }


def _copy_values(constraints, database, candidates, measures) -> list[dict]:
    """Copy-apply-rebuild scores of every candidate."""
    return [
        {
            measure.name: measure.value(
                constraints, apply_sequence(database, operations)
            )
            for measure in measures
        }
        for operations in candidates
    ]


def _assert_index_matches_scratch(session: MeasurementSession) -> None:
    fi = build_violation_index(session.constraints, session.database)
    si = session.index()
    assert fi.mi_sets == si.mi_sets
    assert [
        (violation.fact_ids, violation.constraint.name)
        for violation in fi.per_constraint
    ] == [
        (violation.fact_ids, violation.constraint.name)
        for violation in si.per_constraint
    ]
    assert [c.mi_sets for c in fi.components()] == [
        c.mi_sets for c in si.components()
    ]
    assert [
        {(v.fact_ids, v.constraint.name) for v in c.per_constraint}
        for c in fi.components()
    ] == [
        {(v.fact_ids, v.constraint.name) for v in c.per_constraint}
        for c in si.components()
    ]


class TestRandomizedConformance:
    @pytest.mark.slow
    @pytest.mark.parametrize("case", [0, 1, 2, 3])
    def test_interleaved_histories_bit_identical(self, case, case_rng):
        """measure_all, index() and speculate_batch over mixed histories."""
        rng = case_rng
        schema, constraints = _random_setup(rng)
        relations = schema.relation_names()
        database = Database.from_facts(
            schema,
            [
                _random_fact(rng, rng.choice(relations))
                for _ in range(rng.randint(20, 35))
            ],
        )
        measures = [make_measure(name) for name in TABLE2_MEASURES]
        with MeasurementSession(constraints, database) as session:
            for step in range(60):
                _random_mutation(rng, database, relations)
                if step % 3 == 0:
                    assert session.measure_all(measures) == _scratch_values(
                        constraints, database, measures
                    ), step
                    _assert_index_matches_scratch(session)
                    full = build_violation_index(constraints, database)
                    assert session.problematic_facts() == full.problematic, step
                    assert session.is_consistent() == full.is_consistent()
                if step % 10 == 0:
                    candidates = _random_candidates(rng, database, relations, 4)
                    assert session.speculate_batch(
                        candidates, measures
                    ) == _copy_values(
                        constraints, database, candidates, measures
                    ), step

    @pytest.mark.slow
    @pytest.mark.parametrize("case", [0, 1])
    def test_full_registry_speculation(self, case, case_rng):
        """``I_R_upd`` sends every candidate through its savepoint; still
        equal to copy-apply-rebuild, batched or one at a time.

        Small database: the registry includes the exact update-repair
        measure, which is exponential in the problematic-fact count.
        """
        rng = case_rng
        schema, constraints = _random_setup(rng)
        relations = schema.relation_names()
        database = Database.from_facts(
            schema,
            [_random_fact(rng, rng.choice(relations)) for _ in range(8)],
        )
        registry = [make_measure(name) for name in available_measures()]
        with MeasurementSession(constraints, database) as session:
            for _ in range(3):
                candidates = _random_candidates(rng, database, relations, 2)
                batch = session.speculate_batch(candidates, registry)
                assert batch == _copy_values(
                    constraints, database, candidates, registry
                )
                assert [
                    session.speculate(operations, registry)
                    for operations in candidates
                ] == batch
                # Keep the database small: the update-repair measure is
                # exponential, and random growth would make the runtime
                # seed-dependent.
                if len(database) >= 8:
                    database.delete(rng.choice(database.ids()))
                else:
                    _random_mutation(rng, database, relations)

    def test_short_history_fast_lane(self, case_rng):
        """A trimmed conformance pass that stays in CI's fast lane."""
        rng = case_rng
        schema, constraints = _random_setup(rng)
        relations = schema.relation_names()
        database = Database.from_facts(
            schema,
            [_random_fact(rng, rng.choice(relations)) for _ in range(18)],
        )
        measures = [make_measure(name) for name in ("I_MI", "I_P", "I_MC")]
        with MeasurementSession(constraints, database) as session:
            for step in range(12):
                _random_mutation(rng, database, relations)
                assert session.measure_all(measures) == _scratch_values(
                    constraints, database, measures
                ), step
            _assert_index_matches_scratch(session)
            candidates = _random_candidates(rng, database, relations, 3)
            assert session.speculate_batch(candidates, measures) == _copy_values(
                constraints, database, candidates, measures
            )

    def test_session_attached_mid_history(self, case_rng):
        """A session built over a mid-stream state conforms."""
        rng = case_rng
        schema, constraints = _random_setup(rng)
        relations = schema.relation_names()
        database = Database.from_facts(
            schema,
            [_random_fact(rng, rng.choice(relations)) for _ in range(15)],
        )
        for _ in range(10):
            _random_mutation(rng, database, relations)
        with MeasurementSession(constraints, database) as session:
            for _ in range(10):
                _random_mutation(rng, database, relations)
            _assert_index_matches_scratch(session)


class TestMakeSession:
    def test_make_session_builds_the_one_session_class(self):
        schema = Schema.from_dict(
            {name: ["A", "B", "C"] for name in ("R0", "R1")}
        )
        constraints = [
            FunctionalDependency("R0", {"A"}, {"B"}),
            FunctionalDependency("R1", {"A"}, {"B"}),
        ]
        database = Database(schema)
        with make_session(constraints, database) as session:
            assert type(session) is MeasurementSession
            assert not hasattr(session, "shards")
        with pytest.raises(ValueError, match="only 'auto'"):
            make_session(constraints, database, shards=[("R0", "R1")])


class TestOneMaintainedState:
    """Every DC, whatever relations it binds, is maintained by the one
    state: one witness store per lowered DC in global order, and
    components that span relations exactly where a DC links them."""

    def _linked(self, link: bool):
        schema = Schema.from_dict(
            {name: ["A", "B", "C"] for name in ("R", "S", "U")}
        )
        constraints = [
            FunctionalDependency("R", {"A"}, {"B"}),
            FunctionalDependency("S", {"A"}, {"B"}),
        ]
        if link:
            constraints.append(_cross_dc("R", "S"))
        database = Database.from_facts(
            schema,
            [
                Fact("R", (1, "x", 0)),
                Fact("R", (1, "y", 0)),
                Fact("S", (1, "x", 0)),
                Fact("S", (1, "x", 1)),
                Fact("U", (1, "z", 0)),
            ],
        )
        return constraints, database

    @staticmethod
    def _relations_of(session, component) -> set[str]:
        return {
            session.database[identifier].relation
            for identifier in component.facts
        }

    def test_witness_stores_follow_the_lowered_dc_order(self, case_rng):
        schema, constraints = _random_setup(case_rng)
        database = Database(schema)
        lowered = lower_constraints(constraints, schema)
        with MeasurementSession(constraints, database) as session:
            assert [store.dc for store in session._witnesses] == session.dcs
            assert [dc.name for dc in session.dcs] == [
                dc.name for dc in lowered
            ]

    def test_cross_relation_dc_joins_relations_in_one_component(self):
        constraints, database = self._linked(link=True)
        with MeasurementSession(constraints, database) as session:
            (component,) = session.topology.components()
            assert self._relations_of(session, component) == {"R", "S"}
            assert component.facts == {0, 1, 2, 3}
            assert session.index().mi_sets == build_violation_index(
                constraints, database
            ).mi_sets

    def test_single_relation_dcs_keep_components_within_a_relation(self):
        constraints, database = self._linked(link=False)
        with MeasurementSession(constraints, database) as session:
            # S's two facts now disagree on B: a conflict of its own.
            database.update(3, "B", "w")
            session.index()  # flush the pending delta
            relations = [
                self._relations_of(session, component)
                for component in session.topology.components()
            ]
            assert relations == [{"R"}, {"S"}]

    def test_component_splits_when_the_cross_link_goes(self):
        constraints, database = self._linked(link=True)
        with MeasurementSession(constraints, database) as session:
            assert len(session.topology.components()) == 1
            database.update(2, "A", 5)  # S fact 2 leaves the A=1 group
            database.update(3, "A", 6)  # and so does S fact 3
            session.index()
            components = session.topology.components()
            assert [
                self._relations_of(session, component)
                for component in components
            ] == [{"R"}]
            database.update(3, "A", 1)  # S fact 3 relinks to R on A
            session.index()
            (component,) = session.topology.components()
            assert component.facts == {0, 1, 3}
            assert session.index().mi_sets == build_violation_index(
                constraints, database
            ).mi_sets

    def test_column_store_holds_only_constrained_relations(self):
        constraints, database = self._linked(link=True)
        with MeasurementSession(constraints, database) as session:
            store = session._columns
            for relation in ("R", "S"):
                assert store.live_count(relation) == 2
            with pytest.raises(KeyError):
                store.relation("U")

    def test_single_relation_session_matches_scratch(self, case_rng):
        rng = case_rng
        schema = Schema.from_dict({"R0": ["A", "B", "C"]})
        constraints = [
            FunctionalDependency("R0", {"A"}, {"B"}),
            parse_dc("not(t.A > t.C)", "R0", name="ord_R0"),
        ]
        database = Database.from_facts(
            schema, [_random_fact(rng, "R0") for _ in range(15)]
        )
        measures = [make_measure(name) for name in ("I_MI", "I_P", "I_R")]
        with MeasurementSession(constraints, database) as session:
            for step in range(30):
                _random_mutation(rng, database, ["R0"])
                if step % 5 == 0:
                    assert session.index().mi_sets == build_violation_index(
                        constraints, database
                    ).mi_sets, step
                    assert session.measure_all(measures) == {
                        measure.name: measure.value(constraints, database)
                        for measure in measures
                    }, step


class TestUnconstrainedRelations:
    def _session(self):
        schema = Schema.from_dict(
            {name: ["A", "B", "C"] for name in ("R0", "R1", "R2")}
        )
        constraints = [
            FunctionalDependency(name, {"A"}, {"B"})
            for name in ("R0", "R1")
        ]
        database = Database.from_facts(
            schema,
            [
                Fact("R0", (1, "x", 0)),
                Fact("R0", (1, "y", 0)),
                Fact("R1", (2, "p", 0)),
                Fact("R1", (2, "q", 0)),
                Fact("R2", (9, "z", 0)),
            ],
        )
        return database, MeasurementSession(constraints, database)

    def test_unconstrained_relation_events_are_dropped(self):
        database, session = self._session()
        with session:
            session.index()
            database.update(4, "A", 7)  # the R2 fact — no DC mentions R2
            assert session.pending_deltas == 0
            assert len(session.index().mi_sets) == 2

    def test_untouched_component_values_are_not_reprobed(self):
        """An untouched component serves its own value."""
        database, session = self._session()
        with session:
            measure = make_measure("I_MI")
            assert session.measure(measure) == 2.0
            hits, misses = (
                session.component_cache.hits,
                session.component_cache.misses,
            )
            database.update(0, "B", "y")  # resolves the R0 conflict
            assert session.measure(measure) == 1.0
            # The R1 component kept its identity and so its own value: no
            # cache probe (hit or miss) happened for it at all, and the R0
            # conflict vanished, so nothing was solved.
            assert session.component_cache.misses == misses
            assert session.component_cache.hits == hits

    def test_empty_constraint_set(self):
        schema = Schema.from_dict({"R0": ["A"]})
        database = Database.from_facts(schema, [Fact("R0", (1,))])
        with MeasurementSession([], database) as session:
            assert session.topology.components() == []
            assert session.is_consistent()
            assert session.index().mi_sets == []
            assert session.measure(make_measure("I_MI")) == 0.0
            assert session.measure(make_measure("I_MC")) == 0.0
            assert session.problematic_facts() == set()
            database.update(0, "A", 2)
            assert session.pending_deltas == 0


class TestDeltaCounters:
    def test_update_on_one_relation_runs_no_delta_for_the_other(self):
        """A DC that binds only S is not counted as a delta run when only
        R changed; the DCs binding R are."""
        schema = Schema.from_dict({"R": ["A", "B"], "S": ["A", "B"]})
        database = Database.from_facts(
            schema,
            [
                Fact("R", (1, "x")),
                Fact("R", (1, "y")),
                Fact("S", (2, "p")),
                Fact("S", (2, "q")),
            ],
        )
        constraints = [
            FunctionalDependency("R", {"A"}, {"B"}),
            FunctionalDependency("S", {"A"}, {"B"}),
            _cross_dc("R", "S"),
        ]
        with MeasurementSession(constraints, database) as session:
            session.index()
            database.update(0, "B", "y")  # an R fact
            session.index()
            runs = [
                record["delta_runs"] for record in session.stats()["constraints"]
            ]
            assert runs == [1, 0, 1]
            assert session.index().mi_sets == build_violation_index(
                constraints, database
            ).mi_sets


class TestAgainstScratch:
    def test_index_matches_build_violation_index(self, case_rng):
        rng = case_rng
        schema, constraints = _random_setup(rng)
        relations = schema.relation_names()
        database = Database.from_facts(
            schema,
            [_random_fact(rng, rng.choice(relations)) for _ in range(25)],
        )
        with MeasurementSession(constraints, database) as session:
            for _ in range(15):
                _random_mutation(rng, database, relations)
            full = build_violation_index(constraints, database)
            index = session.index()
            assert index.mi_sets == full.mi_sets
            assert {
                (v.fact_ids, v.constraint.name) for v in index.per_constraint
            } == {
                (v.fact_ids, v.constraint.name) for v in full.per_constraint
            }
            assert [c.mi_sets for c in index.components()] == [
                c.mi_sets for c in full.components()
            ]

    def test_refresh_recovers_from_untracked_state(self, case_rng):
        rng = case_rng
        schema, constraints = _random_setup(rng)
        relations = schema.relation_names()
        database = Database.from_facts(
            schema,
            [_random_fact(rng, rng.choice(relations)) for _ in range(12)],
        )
        session = MeasurementSession(constraints, database)
        session.close()
        for _ in range(8):
            _random_mutation(rng, database, relations)
        full = build_violation_index(constraints, database)
        assert session.refresh().mi_sets == full.mi_sets


class TestRefreshInvalidation:
    def test_refresh_then_measure_matches_fresh_session(self, case_rng):
        """refresh() + measure_all must be bit-identical to a fresh session.

        The cross-check: the components' own values and the assembled
        index derive from the retired topology and must not survive the
        rebuild.
        """
        rng = case_rng
        schema, constraints = _random_setup(rng)
        relations = schema.relation_names()
        database = Database.from_facts(
            schema,
            [_random_fact(rng, rng.choice(relations)) for _ in range(18)],
        )
        measures = [
            make_measure(name) for name in ("I_MI", "I_P", "I_MC", "I'_MC")
        ]
        with MeasurementSession(constraints, database) as session:
            for _ in range(6):
                _random_mutation(rng, database, relations)
            session.measure_all(measures)  # populate every memoized stream
            session.index()
            session.speculate_batch(
                _random_candidates(rng, database, relations, 2), measures
            )
            session.refresh()
            assert not any(
                component.values for component in session.topology.components()
            )
            with MeasurementSession(constraints, database) as fresh:
                assert session.measure_all(measures) == fresh.measure_all(
                    measures
                )
                assert session.index().mi_sets == fresh.index().mi_sets
                # ... and the session keeps tracking correctly afterwards.
                for _ in range(4):
                    _random_mutation(rng, database, relations)
                    assert session.measure_all(measures) == fresh.measure_all(
                        measures
                    )

    def test_refresh_rebuilds_equality_index_after_untracked_deltas(self):
        """Untracked mutations must not leave stale hash buckets behind.

        Without rebuilding the equality-column index, a post-refresh delta
        re-enumeration would probe buckets that never saw the untracked
        facts and silently miss witnesses joining with them.
        """
        schema = Schema.from_dict({"R": ["A", "B", "C"]})
        database = Database.from_rows(schema, "R", [(1, "x", 0), (2, "x", 0)])
        constraints = [FunctionalDependency("R", {"A"}, {"B"})]
        session = MeasurementSession(constraints, database)
        assert session.index().mi_sets == []
        # Simulate an untracked stretch: detach the feed, mutate, reattach.
        database.unsubscribe(session._on_change)
        untracked = database.insert(Fact("R", (3, "x", 0)))
        database.subscribe(session._on_change)
        assert session.refresh().mi_sets == []
        # A tracked delta must now join against the untracked fact.
        tracked = database.insert(Fact("R", (3, "y", 0)))
        full = build_violation_index(constraints, database)
        assert full.mi_sets == [frozenset({untracked, tracked})]
        assert session.index().mi_sets == full.mi_sets


class TestMixedMeasureSpeculation:
    def test_mixed_list_keeps_component_fast_path(self, monkeypatch):
        """Across relations, ``I_d`` is scored by deletion previews; only
        ``I_R_upd`` reaches the whole-database helper."""
        schema = Schema.from_dict(
            {"T0": ["A", "B", "C"], "T1": ["A", "B", "C"]}
        )
        database = Database.from_facts(
            schema,
            [
                Fact("T0", (1, "x", 0)),
                Fact("T0", (1, "y", 0)),
                Fact("T1", (2, "x", 0)),
                Fact("T1", (2, "y", 0)),
            ],
        )
        constraints = [
            FunctionalDependency(relation, {"A"}, {"B"})
            for relation in ("T0", "T1")
        ]
        mixed = [make_measure(name) for name in ("I_MI", "I_d", "I_R")]
        whole_lists: list[list[str]] = []
        import repro.session.session as session_module

        original = session_module._whole_database_values

        def spy(constraints, database, measures):
            whole_lists.append([measure.name for measure in measures])
            return original(constraints, database, measures)

        monkeypatch.setattr(session_module, "_whole_database_values", spy)
        deletions = [[DeleteOperation(0)], [DeleteOperation(2)]]
        with MeasurementSession(constraints, database) as session:
            values = session.speculate(deletions[0], mixed)
            batch = session.speculate_batch(deletions, mixed)
            assert whole_lists == []
            assert session.stats()["speculation"] == {
                "deletion_previews": 3,
                "savepoint_previews": 0,
            }
            with_upd = mixed + [make_measure("I_R_upd")]
            upd_batch = session.speculate_batch(deletions, with_upd)
            assert whole_lists == [["I_R_upd"], ["I_R_upd"]]
            assert session.stats()["speculation"] == {
                "deletion_previews": 3,
                "savepoint_previews": 2,
            }
        for operations, scored in zip(deletions, upd_batch):
            assert scored == {
                measure.name: measure.value(
                    constraints, apply_sequence(database, operations)
                )
                for measure in with_upd
            }
        assert values == batch[0] == {
            name: upd_batch[0][name] for name in ("I_MI", "I_d", "I_R")
        }

    def test_mixed_list_value_identity_randomized(self, case_rng):
        """Batched == one at a time == copy-apply-rebuild for mixed
        measure lists."""
        rng = case_rng
        schema, constraints = _random_setup(rng)
        relations = schema.relation_names()
        database = Database.from_facts(
            schema,
            [_random_fact(rng, rng.choice(relations)) for _ in range(10)],
        )
        mixed = [make_measure(name) for name in ("I_MI", "I_d", "I_P", "I_MC")]
        with MeasurementSession(constraints, database) as session:
            for _ in range(3):
                candidates = _random_candidates(rng, database, relations, 2)
                batch = session.speculate_batch(candidates, mixed)
                assert batch == _copy_values(
                    constraints, database, candidates, mixed
                )
                for operations, values in zip(candidates, batch):
                    assert session.speculate(operations, mixed) == values
                _random_mutation(rng, database, relations)


class TestStatsBackend:
    """The session's one column store runs on the process's backend, and
    stats() reports it."""

    def test_stats_report_the_backend(self):
        schema = Schema.from_dict({"R": ["A", "B", "C"], "S": ["A", "B", "C"]})
        database = Database.from_facts(
            schema,
            [Fact(relation, (k, k, k)) for relation in ("R", "S") for k in range(3)],
        )
        constraints = [
            FunctionalDependency("R", {"A"}, {"B"}),
            FunctionalDependency("S", {"A"}, {"B"}),
        ]
        session = MeasurementSession(constraints, database)
        assert session._columns.backend == columnar.VECTOR_BACKEND
        assert session.stats()["vector_backend"] == columnar.VECTOR_BACKEND
