"""Streaming-ingest pipeline: coalescing, backpressure, staleness, parity.

The anchor invariant is differential: a drained
:class:`~repro.session.ingest.IngestPipeline` must leave the database —
facts, identifier allocator, fingerprint — and the session's maintained
state **bit-identical** to applying every submission eagerly, one event
at a time, whatever the interleaving.  On top of that the suite pins the
coalescing rules (insert→update→delete nets out, last-writer-wins
images, identifier reuse), the bounded-buffer backpressure contract, the
read-staleness/watermark contract with generation-tagged reads, the
flush-residue audit (a coalesced insert+delete leaves nothing behind in
the topology's fact → witness map, the column store's key groups or the
equality-index buckets) and generation stability (a
net-empty flush advances nothing and keeps the live components).
"""

from __future__ import annotations

import random

import pytest

from repro.constraints import FunctionalDependency
from repro.constraints.base import ComparisonOp
from repro.constraints.dc import DenialConstraint, Predicate, Term
from repro.measures import make_measures
from repro.relational import Database, Fact, Schema
from repro.session import (
    IngestError,
    IngestPipeline,
    IngestRead,
    MeasurementSession,
    database_fingerprint,
    make_session,
)

from .test_setbased import assert_matches_reference, fresh_reference
from .test_speculation import key_groups

MEASURES = make_measures(["I_MI", "I_P", "I_d"])


def _schema() -> Schema:
    # R and S each carry their own FD; T is mentioned by no constraint,
    # so its events reach the database but not the session.
    return Schema.from_dict({"R": ("A", "B"), "S": ("K", "V"), "T": ("X", "Y")})


def _constraints():
    return [
        FunctionalDependency("R", {"A"}, {"B"}),
        FunctionalDependency("S", {"K"}, {"V"}),
    ]


def _seeded(n: int = 12) -> Database:
    database = Database(_schema())
    for k in range(n):
        database.insert(Fact("R", (f"a{k % 4}", f"b{k % 3}")))
        database.insert(Fact("S", (k % 3, k % 2)))
    return database


def _residue_constraints():
    """The FDs plus a DC on R joined by an equality and a cross step.

    Every DC reads the column store's key groups; the extra DC's plans also
    cross R's live rows, so a residue left in the store would surface in
    its witnesses.
    """
    cross_join = DenialConstraint(
        [("t", "R"), ("t2", "R"), ("t3", "R")],
        [
            Predicate(Term.col("t", "A"), ComparisonOp.EQ, Term.col("t2", "A")),
            Predicate(Term.col("t3", "B"), ComparisonOp.LT, Term.col("t", "B")),
        ],
        name="cross_join",
    )
    return _constraints() + [cross_join]


def _assert_unindexed(session, identifier: int) -> None:
    """*identifier* sits in no key group."""
    groups = key_groups(session)
    assert groups
    for column in groups.values():
        for ids in column.values():
            assert identifier not in ids


def _mirror(reference: Database) -> tuple[Database, MeasurementSession]:
    """A per-event-flushed twin built with the same insertion order."""
    database = Database(_schema())
    for _, fact in reference.items():
        database.insert(fact)
    session = MeasurementSession(_constraints(), database)
    return database, session


def _assert_identical(session_a, database_a, session_b, database_b):
    index_a, index_b = session_a.index(), session_b.index()
    assert index_a.mi_sets == index_b.mi_sets
    assert index_a.per_constraint == index_b.per_constraint
    assert database_fingerprint(database_a) == database_fingerprint(database_b)
    assert session_a.measure_all(MEASURES) == session_b.measure_all(MEASURES)


class TestCoalescing:
    def test_insert_update_delete_nets_out(self, session_backend):
        database = _seeded()
        session = MeasurementSession(_constraints(), database)
        pipe = session.ingest()
        before = database_fingerprint(database)
        identifier = pipe.submit("insert", Fact("R", ("a0", "zzz")))
        assert pipe.submit("update", identifier, "B", "www") is True
        assert pipe.submit("delete", identifier) is True
        assert pipe.pending == 0
        assert pipe.flush() == 0
        assert database_fingerprint(database) == before

    def test_last_writer_wins_single_net_event(self):
        database = _seeded()
        session = MeasurementSession(_constraints(), database)
        pipe = session.ingest()
        for value in ("v1", "v2", "v3"):
            assert pipe.submit("update", 0, "B", value) is True
        assert pipe.pending == 1
        assert pipe.flush() == 1
        assert database[0] == Fact("R", ("a0", "v3"))
        counters = pipe.counters()
        assert counters["events_submitted"] == 3
        assert counters["events_coalesced"] == 2
        assert counters["events_flushed"] == 1

    def test_update_back_to_base_emits_nothing(self):
        database = _seeded()
        session = MeasurementSession(_constraints(), database)
        pipe = session.ingest()
        original = database[0].values[1]
        assert pipe.submit("update", 0, "B", "elsewhere") is True
        assert pipe.submit("update", 0, "B", original) is True
        assert pipe.pending == 0
        generation = session.topology.generation
        pipe.flush()
        assert session.topology.generation == generation

    def test_delete_then_reuse_same_relation(self):
        database = _seeded(4)
        session = MeasurementSession(_constraints(), database)
        pipe = session.ingest()
        mirror_db, mirror_sess = _mirror(database)

        assert pipe.submit("delete", 0) is True
        reused = pipe.submit("insert", Fact("R", ("fresh", "f")))
        assert reused == 0  # minimal free id, per the paper's convention
        assert pipe.pending == 1  # one net replacement, not two events
        pipe.flush()

        mirror_db.delete(0)
        assert mirror_db.insert(Fact("R", ("fresh", "f"))) == 0
        mirror_sess.index()
        _assert_identical(session, database, mirror_sess, mirror_db)

    def test_delete_then_reuse_across_relations(self):
        database = _seeded(4)
        session = MeasurementSession(_constraints(), database)
        pipe = session.ingest()
        mirror_db, mirror_sess = _mirror(database)

        assert pipe.submit("delete", 0) is True  # an R fact
        assert pipe.submit("insert", Fact("S", (7, 7))) == 0
        pipe.flush()

        mirror_db.delete(0)
        assert mirror_db.insert(Fact("S", (7, 7))) == 0
        mirror_sess.index()
        _assert_identical(session, database, mirror_sess, mirror_db)

    def test_inapplicable_submissions_match_eager_semantics(self):
        database = _seeded(4)
        session = MeasurementSession(_constraints(), database)
        pipe = session.ingest()
        absent = 10_000
        assert pipe.submit("delete", absent) is False
        assert pipe.submit("update", absent, "B", "x") is False
        assert pipe.submit("update", 0, "Nope", "x") is False
        assert pipe.submit("delete", 0) is True
        # The pending view already deleted 0: updates are inapplicable,
        # a second delete reports False — exactly like the eager database.
        assert pipe.submit("update", 0, "B", "x") is False
        assert pipe.submit("delete", 0) is False
        assert pipe.pending == 1

    def test_unknown_kind_rejected(self):
        session = MeasurementSession(_constraints(), _seeded(2))
        pipe = session.ingest()
        with pytest.raises(ValueError, match="unknown submission kind"):
            pipe.submit("upsert", 0)

    def test_convenience_methods_mirror_submit(self):
        database = _seeded(2)
        session = MeasurementSession(_constraints(), database)
        pipe = session.ingest()
        identifier = pipe.insert(Fact("S", (9, 9)))
        assert pipe.update(identifier, "V", 5) is True
        assert pipe.delete(identifier) is True
        assert pipe.pending == 0


class TestAllocatorFidelity:
    def test_reserved_ids_match_eager_allocation(self):
        database = _seeded(3)
        session = MeasurementSession(_constraints(), database)
        pipe = session.ingest()
        mirror_db, mirror_sess = _mirror(database)

        steps = [
            ("insert", Fact("T", (1, 1))),
            ("delete", 2),
            ("insert", Fact("T", (2, 2))),  # reuses the freed slot
            ("insert", Fact("T", (3, 3))),
            ("delete", 4),
            ("insert", Fact("S", (8, 8))),
        ]
        for kind, arg in steps:
            if kind == "insert":
                assert pipe.submit(kind, arg) == mirror_db.insert(arg)
            else:
                assert pipe.submit(kind, arg) == mirror_db.delete(arg)
            mirror_sess.index()
        pipe.flush()
        _assert_identical(session, database, mirror_sess, mirror_db)

    def test_out_of_band_mutations_resync_between_drains(self):
        database = _seeded(3)
        session = MeasurementSession(_constraints(), database)
        pipe = session.ingest()
        pipe.submit("insert", Fact("T", (1, 1)))
        pipe.flush()
        # With nothing pending, direct database writes are allowed; the
        # next submission picks the allocator back up from the live state.
        database.delete(0)
        reused = pipe.submit("insert", Fact("R", ("back", "b")))
        assert reused == 0
        pipe.flush()
        assert database[0] == Fact("R", ("back", "b"))

    def test_stolen_reservation_is_an_ingest_error(self):
        database = _seeded(3)
        session = MeasurementSession(_constraints(), database)
        pipe = session.ingest()
        reserved = pipe.submit("insert", Fact("T", (1, 1)))
        # Violating the single-writer contract: an out-of-band insert
        # takes the reserved identifier while the event is pending.
        database.delete(reserved - 1) if reserved - 1 in database else None
        database._next_id = reserved
        database.insert(Fact("T", (9, 9)))
        with pytest.raises(IngestError, match="already taken"):
            pipe.flush()


class TestBackpressure:
    def test_try_submit_refuses_at_capacity(self):
        database = _seeded(0)
        session = MeasurementSession(_constraints(), database)
        pipe = session.ingest(capacity=3)
        ids = [pipe.try_submit("insert", Fact("T", (k, k))) for k in range(3)]
        assert all(identifier is not None for identifier in ids)
        refused = pipe.try_submit("insert", Fact("T", (99, 99)))
        assert refused is None
        assert pipe.pending == 3  # nothing buffered, nothing half-mirrored
        # Coalescing submissions never grow the buffer, so they are
        # admitted even at capacity.
        assert pipe.try_submit("update", ids[0], "X", 123) is True
        assert pipe.try_submit("delete", ids[1]) is True
        assert pipe.pending == 2

    def test_submit_blocks_by_draining(self):
        database = _seeded(0)
        session = MeasurementSession(_constraints(), database)
        pipe = session.ingest(capacity=2)
        for k in range(7):
            pipe.submit("insert", Fact("T", (k, k)))
        counters = pipe.counters()
        assert counters["backpressure_flushes"] >= 2
        assert counters["max_pending"] <= 2
        pipe.flush()
        assert len(database) == 7

    def test_capacity_validated(self):
        session = MeasurementSession(_constraints(), _seeded(1))
        with pytest.raises(ValueError, match="capacity"):
            session.ingest(capacity=0)


class TestStalenessReads:
    def test_read_within_bound_skips_flush(self):
        database = _seeded()
        session = MeasurementSession(_constraints(), database)
        pipe = session.ingest()
        generation = session.topology.generation
        for k in range(5):
            pipe.submit("insert", Fact("R", (f"a{k}", "dup")))
        read = pipe.read(MEASURES, max_staleness_events=5)
        assert isinstance(read, IngestRead)
        assert read.flushed is False
        assert read.staleness == 5
        assert read.generation == generation
        assert pipe.counters()["flushes"] == 0

    def test_read_over_bound_forces_flush(self):
        database = _seeded()
        session = MeasurementSession(_constraints(), database)
        pipe = session.ingest()
        for k in range(5):
            pipe.submit("insert", Fact("R", ("a0", f"conflict{k}")))
        read = pipe.read(MEASURES, max_staleness_events=2)
        assert read.flushed is True
        assert read.staleness <= 2
        # The values are served post-drain: identical to a fresh session.
        with MeasurementSession(_constraints(), database) as fresh:
            assert read.values == fresh.measure_all(MEASURES)

    def test_read_rejects_negative_bound(self):
        session = MeasurementSession(_constraints(), _seeded(1))
        pipe = session.ingest()
        with pytest.raises(ValueError, match="max_staleness_events"):
            pipe.read((), max_staleness_events=-1)

    def test_drains_only_the_most_backlogged_relation(self):
        """A bounded read drains R (4 pending) and leaves S's event
        unapplied; the drained read equals the from-scratch value of the
        database at that state."""
        database = _seeded()
        session = MeasurementSession(_constraints(), database)
        pipe = session.ingest()
        for k in range(4):
            pipe.submit("insert", Fact("R", ("a0", f"c{k}")))
        pending_s = pipe.submit("insert", Fact("S", (0, 99)))
        assert pipe.pending_per_relation() == [4, 1, 0]
        size = len(database)
        read = pipe.read(MEASURES, max_staleness_events=1)
        assert read.flushed is True
        assert read.staleness == 1
        assert pipe.pending_per_relation() == [0, 1, 0]
        assert len(database) == size + 4
        assert pending_s not in database
        assert read.values == {
            measure.name: measure.value(_constraints(), database)
            for measure in MEASURES
        }
        pipe.flush()
        assert database[pending_s] == Fact("S", (0, 99))

    def test_generation_is_the_topology_generation(self):
        session = MeasurementSession(_constraints(), _seeded())
        pipe = session.ingest()
        assert pipe.read(()).generation == session.topology.generation
        pipe.submit("insert", Fact("R", ("a0", "fresh")))
        read = pipe.read(())
        assert isinstance(read.generation, int)
        assert read.generation == session.topology.generation


class TestFlushResidue:
    """Satellite: a coalesced insert+delete must leave zero residue."""

    def test_insert_delete_leaves_no_touching_or_bucket_residue(
        self, session_backend
    ):
        database = _seeded()
        session = MeasurementSession(_residue_constraints(), database)
        session.index()
        pipe = session.ingest()
        identifier = pipe.submit("insert", Fact("R", ("a0", "hot")))
        assert pipe.submit("delete", identifier) is True
        pipe.flush()
        session.index()
        assert identifier not in session.topology._binding
        _assert_unindexed(session, identifier)
        for store in session._witnesses:
            for violation in store.ordered():
                assert identifier not in violation.fact_ids
        assert_matches_reference(session)

    def test_session_level_insert_then_delete_before_flush(self):
        # The raw-session flavor of the same hazard: _on_change applies
        # column updates eagerly but witness retraction waits for the
        # flush — the dirty id must fold away completely.
        database = _seeded()
        session = MeasurementSession(_residue_constraints(), database)
        session.index()
        generation = session.topology.generation
        identifier = database.insert(Fact("R", ("a0", "hot")))
        database.delete(identifier)
        session.index()
        assert ("R", "A") in key_groups(session)  # the equality join's group
        assert identifier not in session.topology._binding
        _assert_unindexed(session, identifier)
        assert session.topology.generation == generation
        assert_matches_reference(session)

    def test_bound_fact_updated_then_deleted(self):
        database = _seeded(0)
        session = MeasurementSession(_residue_constraints(), database)
        pipe = session.ingest()
        a = database.insert(Fact("R", ("k", "v1")))
        b = database.insert(Fact("R", ("k", "v2")))  # conflicts with a
        session.index()
        assert a in session.topology._binding
        assert b in session.topology._binding
        assert pipe.submit("update", b, "B", "v3") is True
        assert pipe.submit("delete", b) is True
        pipe.flush()
        session.index()
        assert b not in session.topology._binding
        assert a not in session.topology._binding  # its only witness retracted
        _assert_unindexed(session, b)
        with fresh_reference(session) as fresh:
            expected = fresh.index().mi_sets
        assert session.index().mi_sets == expected


class TestGenerationStability:
    """Satellite: net-empty flushes advance nothing, keep the components."""

    def test_netted_batch_preserves_generation_and_components(
        self, session_backend
    ):
        database = _seeded()
        session = MeasurementSession(_constraints(), database)
        base = session.topology.components()
        pipe = session.ingest()
        original = database[0].values[1]
        pipe.submit("update", 0, "B", "detour")
        pipe.submit("update", 0, "B", original)  # nets back to base
        identifier = pipe.submit("insert", Fact("S", (50, 50)))
        pipe.submit("delete", identifier)  # nets out
        assert pipe.flush() == 0
        assert session.topology.components() is base

    def test_net_events_with_empty_witness_delta_keep_generation(self):
        database = _seeded()
        session = MeasurementSession(_constraints(), database)
        base = session.topology.components()
        generation = session.topology.generation
        pipe = session.ingest()
        # T is mentioned by no constraint: real net events, empty delta.
        pipe.submit("insert", Fact("T", (123, 456)))
        assert pipe.flush() == 1
        assert session.topology.generation == generation
        assert session.topology.components() is base


class TestObservability:
    def test_stats_surface_ingest_counters(self, session_backend):
        database = _seeded()
        session = MeasurementSession(_constraints(), database)
        assert "ingest" not in session.stats()
        pipe = session.ingest(capacity=16)
        pipe.submit("update", 0, "B", "x")
        pipe.submit("update", 0, "B", "y")
        pipe.flush()
        counters = session.stats()["ingest"]
        assert counters["capacity"] == 16
        assert counters["events_submitted"] == 2
        assert counters["events_coalesced"] == 1
        assert counters["flushes"] == 1
        assert counters["max_pending"] == 1
        assert counters["flush_p50"] is not None
        assert counters["flush_p99"] >= counters["flush_p50"]
        pipe.close()
        assert "ingest" not in session.stats()

    def test_close_drains_and_context_manager(self):
        database = _seeded(2)
        session = MeasurementSession(_constraints(), database)
        with session.ingest() as pipe:
            pipe.submit("insert", Fact("T", (5, 5)))
        assert pipe.pending == 0
        assert any(fact == Fact("T", (5, 5)) for fact in database.facts())
        assert "ingest" not in session.stats()


def _random_stream_step(rng: random.Random, pipe, mirror_db, mirror_sess):
    """One lockstep submission on the pipeline and the eager mirror."""
    roll = rng.random()
    if roll < 0.35:
        relation = rng.choice(("R", "S", "T"))
        if relation == "R":
            fact = Fact("R", (f"a{rng.randrange(6)}", f"b{rng.randrange(4)}"))
        elif relation == "S":
            fact = Fact("S", (rng.randrange(5), rng.randrange(4)))
        else:
            fact = Fact("T", (rng.randrange(30), rng.randrange(30)))
        assert pipe.submit("insert", fact) == mirror_db.insert(fact)
    elif roll < 0.65:
        identifier = rng.randrange(0, 60)
        attribute = None
        target = mirror_db.get(identifier)
        if target is not None:
            attribute = {"R": "B", "S": "V", "T": "Y"}[target.relation]
            value = (
                f"b{rng.randrange(4)}"
                if target.relation == "R"
                else rng.randrange(6)
            )
        else:
            attribute, value = "B", "b0"
        assert pipe.submit(
            "update", identifier, attribute, value
        ) == mirror_db.update(identifier, attribute, value)
    else:
        identifier = rng.randrange(0, 60)
        assert pipe.submit("delete", identifier) == mirror_db.delete(identifier)
    mirror_sess.index()  # the eager twin flushes after every event


class TestLockstepConformance:
    """Randomized coalesced == per-event parity over interleaved histories."""

    def test_lockstep_parity(self, session_backend, case_rng):
        database = _seeded()
        session = MeasurementSession(_constraints(), database)
        mirror_db, mirror_sess = _mirror(database)
        pipe = session.ingest(capacity=32)
        for step in range(160):
            _random_stream_step(case_rng, pipe, mirror_db, mirror_sess)
            if case_rng.random() < 0.15:
                bound = case_rng.choice([0, 3, 10])
                read = pipe.read((), max_staleness_events=bound)
                assert read.staleness <= bound
            if step % 40 == 39:
                pipe.flush()
                _assert_identical(session, database, mirror_sess, mirror_db)
        pipe.flush()
        _assert_identical(session, database, mirror_sess, mirror_db)

    @pytest.mark.slow
    @pytest.mark.parametrize("round_", range(4))
    def test_lockstep_parity_soak(self, session_backend, round_, case_rng):
        database = _seeded(20)
        session = MeasurementSession(_constraints(), database)
        mirror_db, mirror_sess = _mirror(database)
        pipe = session.ingest(capacity=64)
        for step in range(600):
            _random_stream_step(case_rng, pipe, mirror_db, mirror_sess)
            if case_rng.random() < 0.08:
                bound = case_rng.choice([0, 5, 25])
                read = pipe.read(MEASURES, max_staleness_events=bound)
                assert read.staleness <= bound
            if step % 150 == 149:
                pipe.flush()
                _assert_identical(session, database, mirror_sess, mirror_db)
        pipe.flush()
        _assert_identical(session, database, mirror_sess, mirror_db)


class TestSpeculateBatchDirtyMarks:
    """Satellite regression: batch rollback marks vs outside mutations."""

    def test_out_of_band_marks_survive_batch(self):
        from repro.repairs.operations import UpdateOperation

        database = _seeded()
        session = MeasurementSession(_constraints(), database)
        session.index()
        candidates = [
            [UpdateOperation(0, "B", "x")],
            [UpdateOperation(1, "V", 3)],
        ]
        original_savepoint = session.savepoint
        calls = {"n": 0}

        def savepoint_with_interleaved_commit():
            calls["n"] += 1
            if calls["n"] == 2:
                # A concurrent producer commits between candidates: its
                # dirty mark is outside the batch's balanced pairs.
                database.insert(Fact("R", ("a0", "intruder")))
            return original_savepoint()

        session.savepoint = savepoint_with_interleaved_commit
        session.speculate_batch(candidates, MEASURES[:1])
        session.savepoint = original_savepoint
        # Post-batch, the committed out-of-band delta must still flush:
        # the index is bit-identical to a from-scratch build.
        with MeasurementSession(_constraints(), database) as fresh:
            assert session.index().mi_sets == fresh.index().mi_sets
            assert session.index().per_constraint == fresh.index().per_constraint
            assert session.measure_all(MEASURES) == fresh.measure_all(MEASURES)

    def test_out_of_band_marks_on_another_relation_survive_batch(self):
        from repro.repairs.operations import UpdateOperation

        database = _seeded()
        session = MeasurementSession(_constraints(), database)
        session.index()
        # Candidates touch only relation R; the out-of-band commit lands
        # on relation S, which a wholesale clear would silently wipe.
        candidates = [
            [UpdateOperation(0, "B", "x")],
            [UpdateOperation(0, "B", "y")],
        ]
        original_savepoint = session.savepoint
        calls = {"n": 0}

        def savepoint_with_interleaved_commit():
            calls["n"] += 1
            if calls["n"] == 2:
                database.insert(Fact("S", (0, 77)))
            return original_savepoint()

        session.savepoint = savepoint_with_interleaved_commit
        session.speculate_batch(candidates, MEASURES[:1])
        session.savepoint = original_savepoint
        with MeasurementSession(_constraints(), database) as fresh:
            assert session.index().mi_sets == fresh.index().mi_sets
            assert session.index().per_constraint == fresh.index().per_constraint
            assert session.measure_all(MEASURES) == fresh.measure_all(MEASURES)
