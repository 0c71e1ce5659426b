"""Partition conformance, constraint routing, and fan-out.

The anchor invariant is differential: over randomized multi-relation
schemas, DC sets (including cross-relation DCs that force merged shards)
and interleaved insert/delete/update/speculate histories, a session
partitioned ``"auto"`` (one shard per hypergraph component — the k-way
merge read path) must return **bit-identical** ``measure_all`` values,
``index()`` content and ``speculate_batch`` scores to a session built
under :func:`repro.testing.layout.one_group`, which holds every
constrained relation in one group (one shard — the no-merge read path),
on the same database — the same randomized-history style black-box
checking used for snapshot-isolation conformance, applied to the
partition-equivalence contract.
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
from repro.session import MeasurementSession, make_session, relation_groups
from repro.testing.layout import one_group
from repro.violations import build_violation_index, lower_constraints


def _cross_dc(left: str, right: str) -> DenialConstraint:
    """An FD-like DC linking two relations on A (forces a merged shard)."""
    return DenialConstraint(
        [("x", left), ("y", right)],
        [
            Predicate(Term.col("x", "A"), ComparisonOp.EQ, Term.col("y", "A")),
            Predicate(Term.col("x", "B"), ComparisonOp.NE, Term.col("y", "B")),
        ],
        name=f"cross_{left}_{right}",
    )


def _one_group(database: Database, constraints) -> MeasurementSession:
    """A one-shard session: every constrained relation in one group."""
    with one_group():
        return MeasurementSession(constraints, database)


def _random_setup(rng: random.Random) -> tuple[Schema, list]:
    """A random multi-relation schema with a random (routable) DC set."""
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


def _assert_index_identical(single: MeasurementSession, sharded) -> None:
    fi, si = single.index(), sharded.index()
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
        with _one_group(database, constraints) as single:
            with MeasurementSession(constraints, database) as sharded:
                for step in range(60):
                    _random_mutation(rng, database, relations)
                    if step % 3 == 0:
                        assert single.measure_all(measures) == sharded.measure_all(
                            measures
                        ), step
                        _assert_index_identical(single, sharded)
                        assert (
                            set(single.problematic_facts())
                            == sharded.problematic_facts()
                        ), step
                        assert single.is_consistent() == sharded.is_consistent()
                    if step % 10 == 0:
                        candidates = _random_candidates(
                            rng, database, relations, 4
                        )
                        batch = sharded.speculate_batch(candidates, measures)
                        assert batch == single.speculate_batch(
                            candidates, measures
                        ), step
                        # Spot-check one candidate against copy-apply-rebuild.
                        expected = {
                            measure.name: measure.value(
                                constraints,
                                apply_sequence(database, candidates[0]),
                            )
                            for measure in measures
                        }
                        assert batch[0] == expected, step

    @pytest.mark.slow
    @pytest.mark.parametrize("case", [0, 1])
    def test_full_registry_speculation(self, case, case_rng):
        """Whole-database measures force the generic fallback; still equal.

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
        with _one_group(database, constraints) as single:
            with MeasurementSession(constraints, database) as sharded:
                for _ in range(3):
                    candidates = _random_candidates(rng, database, relations, 2)
                    assert sharded.speculate_batch(
                        candidates, registry
                    ) == single.speculate_batch(candidates, registry)
                    assert [
                        sharded.speculate(operations, registry)
                        for operations in candidates
                    ] == [
                        single.speculate(operations, registry)
                        for operations in candidates
                    ]
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
        with _one_group(database, constraints) as single:
            with MeasurementSession(constraints, database) as sharded:
                for step in range(12):
                    _random_mutation(rng, database, relations)
                    assert single.measure_all(measures) == sharded.measure_all(
                        measures
                    ), step
                _assert_index_identical(single, sharded)
                candidates = _random_candidates(rng, database, relations, 3)
                assert sharded.speculate_batch(
                    candidates, measures
                ) == single.speculate_batch(candidates, measures)

    def test_sharded_session_attached_mid_history(self, case_rng):
        """A sharded session built over a dirty mid-stream state conforms."""
        rng = case_rng
        schema, constraints = _random_setup(rng)
        relations = schema.relation_names()
        database = Database.from_facts(
            schema,
            [_random_fact(rng, rng.choice(relations)) for _ in range(15)],
        )
        with _one_group(database, constraints) as single:
            for _ in range(10):
                _random_mutation(rng, database, relations)
            with MeasurementSession(constraints, database) as sharded:
                for _ in range(10):
                    _random_mutation(rng, database, relations)
                _assert_index_identical(single, sharded)


class TestRouting:
    def _schema(self) -> Schema:
        return Schema.from_dict(
            {name: ["A", "B", "C"] for name in ("R0", "R1", "R2", "R3")}
        )

    def test_single_relation_dcs_get_singleton_shards(self):
        schema = self._schema()
        constraints = [
            FunctionalDependency("R0", {"A"}, {"B"}),
            FunctionalDependency("R1", {"A"}, {"B"}),
            FunctionalDependency("R2", {"A"}, {"B"}),
        ]
        dcs = lower_constraints(constraints, schema)
        assert relation_groups(dcs, schema) == [("R0",), ("R1",), ("R2",)]

    def test_cross_relation_dc_merges_shards(self):
        schema = self._schema()
        constraints = [
            FunctionalDependency("R0", {"A"}, {"B"}),
            FunctionalDependency("R1", {"A"}, {"B"}),
            FunctionalDependency("R2", {"A"}, {"B"}),
            _cross_dc("R0", "R2"),
        ]
        dcs = lower_constraints(constraints, schema)
        assert relation_groups(dcs, schema) == [("R0", "R2"), ("R1",)]

    def test_unconstrained_relations_get_no_shard(self):
        schema = self._schema()
        dcs = lower_constraints(
            [FunctionalDependency("R1", {"A"}, {"B"})], schema
        )
        assert relation_groups(dcs, schema) == [("R1",)]

    def test_every_dc_routes_to_exactly_one_shard(self):
        schema = self._schema()
        constraints = [
            FunctionalDependency("R0", {"A"}, {"B"}),
            _cross_dc("R1", "R3"),
            FunctionalDependency("R3", {"A"}, {"B"}),
        ]
        database = Database(schema)
        with MeasurementSession(constraints, database) as session:
            assert session.relation_groups == [("R0",), ("R1", "R3")]
            owned = {id(dc) for shard in session.shards for dc in shard.dcs}
            assert owned == {id(dc) for dc in session.dcs}
            assert len(owned) == len(session.dcs)

    def test_make_session_builds_the_one_session_class(self):
        schema = self._schema()
        constraints = [
            FunctionalDependency("R0", {"A"}, {"B"}),
            FunctionalDependency("R1", {"A"}, {"B"}),
        ]
        database = Database(schema)
        with make_session(constraints, database) as session:
            assert type(session) is MeasurementSession
            assert session.relation_groups == [("R0",), ("R1",)]
        with pytest.raises(ValueError, match="only 'auto'"):
            make_session(constraints, database, shards=[("R0", "R1")])
        with one_group(), make_session(constraints, database) as grouped:
            assert grouped.relation_groups == [("R0", "R1")]
            assert len(grouped.shards) == 1

    def test_single_relation_is_one_shard(self):
        schema = self._schema()
        constraints = [FunctionalDependency("R0", {"A"}, {"B"})]
        with MeasurementSession(constraints, Database(schema)) as session:
            assert session.relation_groups == [("R0",)]
            assert len(session.shards) == 1


class TestFanOut:
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

    def test_events_reach_only_the_owning_shard(self):
        database, session = self._session()
        with session:
            session.index()
            database.update(0, "B", "y")  # an R0 fact
            shard_r0 = session.shards[session._shard_number["R0"]]
            shard_r1 = session.shards[session._shard_number["R1"]]
            assert shard_r0._dirty == {0}
            assert shard_r1._dirty == set()
            generation_r1 = shard_r1.topology.generation
            session.index()
            assert shard_r1.topology.generation == generation_r1

    def test_unconstrained_relation_events_are_dropped(self):
        database, session = self._session()
        with session:
            session.index()
            database.update(4, "A", 7)  # the R2 fact — no shard indexes R2
            assert session.pending_deltas == 0
            assert len(session.index().mi_sets) == 2

    def test_untouched_shard_parts_are_not_reprobed(self):
        """The per-shard part streams are memoized on shard generation."""
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
            # The R1 shard's stream was served from the generation-keyed
            # memo: no cache probe (hit or miss) happened for it at all,
            # and the R0 shard's conflict vanished, so nothing was solved.
            assert session.component_cache.misses == misses
            assert session.component_cache.hits == hits

    def test_empty_constraint_set(self):
        schema = Schema.from_dict({"R0": ["A"]})
        database = Database.from_facts(schema, [Fact("R0", (1,))])
        with MeasurementSession([], database) as session:
            assert session.shards == []
            assert session.is_consistent()
            assert session.index().mi_sets == []
            assert session.measure(make_measure("I_MI")) == 0.0
            assert session.measure(make_measure("I_MC")) == 0.0
            assert session.problematic_facts() == set()


class TestShardedAgainstScratch:
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

        The cross-check: the coordinator's memoized per-shard part streams,
        pseudo index and assembly keys all derive from the retired
        topologies and must not survive the rebuild.
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
            assert all(not memo for memo in session._parts)
            assert session._pseudo is None and session._pseudo_key is None
            assert session._spec_base is None
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
        """Only the whole-database stragglers go through the generic path."""
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
        generic_lists: list[list[str]] = []
        import repro.session.session as session_module

        original = session_module._generic_values

        def spy(session, measures):
            generic_lists.append([measure.name for measure in measures])
            return original(session, measures)

        # Every generic read funnels through the session module's
        # _generic_values.
        monkeypatch.setattr(session_module, "_generic_values", spy)
        with MeasurementSession(constraints, database) as session:
            values = session.speculate([DeleteOperation(0)], mixed)
            batch = session.speculate_batch(
                [[DeleteOperation(0)], [DeleteOperation(2)]], mixed
            )
        assert generic_lists and all(
            names == ["I_d"] for names in generic_lists
        ), generic_lists
        reference = {
            measure.name: measure.value(
                constraints, apply_sequence(database, [DeleteOperation(0)])
            )
            for measure in mixed
        }
        assert values == reference
        assert batch[0] == reference

    def test_mixed_list_value_identity_randomized(self, case_rng):
        """Auto == one group == copy-apply-rebuild for mixed measure lists."""
        rng = case_rng
        schema, constraints = _random_setup(rng)
        relations = schema.relation_names()
        database = Database.from_facts(
            schema,
            [_random_fact(rng, rng.choice(relations)) for _ in range(10)],
        )
        mixed = [make_measure(name) for name in ("I_MI", "I_d", "I_P", "I_MC")]
        with _one_group(database, constraints) as single:
            with MeasurementSession(constraints, database) as sharded:
                for _ in range(3):
                    candidates = _random_candidates(
                        rng, database, relations, 2
                    )
                    single_batch = single.speculate_batch(candidates, mixed)
                    assert (
                        sharded.speculate_batch(candidates, mixed)
                        == single_batch
                    )
                    for operations, values in zip(candidates, single_batch):
                        assert sharded.speculate(operations, mixed) == values
                        assert values == {
                            measure.name: measure.value(
                                constraints,
                                apply_sequence(database, operations),
                            )
                            for measure in mixed
                        }
                    _random_mutation(rng, database, relations)


class TestStatsBackendMerge:
    """Every shard owns a column store on the session's one backend, so
    the merged report is that backend."""

    def test_agreeing_shards_report_the_backend(self):
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
        assert len(session.shards) == 2
        backends = {shard._columns.backend for shard in session.shards}
        assert len(backends) == 1
        assert session.stats()["vector_backend"] == backends.pop()
