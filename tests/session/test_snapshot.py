"""Warm-start snapshots: round-trip bit-identity and fallback semantics.

The anchor invariant is differential, in the style of the multi-relation
conformance suite: a session restored from a snapshot of state S must be
**bit-identical** — ``index()`` content, ``measure_all`` floats,
``speculate_batch`` scores — to a session built from scratch over S, and a
snapshot that no longer matches the database or constraints must fall back
to the cold build rather than restore anything (never a wrong answer).
"""

from __future__ import annotations

import dataclasses
import io

import pytest

from repro.constraints import FunctionalDependency
from repro.measures import TABLE2_MEASURES, make_measures
from repro.relational import Database, Fact
from repro.session import (
    SNAPSHOT_VERSION,
    MeasurementSession,
    SessionSnapshot,
    SnapshotError,
    dump_snapshot,
    load_snapshot,
    load_snapshot_bytes,
    save_snapshot,
)
from repro.violations import build_violation_index

from .test_multi_relation import (
    _random_candidates,
    _random_mutation,
    _random_setup,
)


def _roundtrip(snapshot):
    """Force every snapshot through the versioned byte format."""
    return load_snapshot_bytes(dump_snapshot(snapshot))


def _assert_sessions_identical(restored, control) -> None:
    ri, ci = restored.index(), control.index()
    assert ri.mi_sets == ci.mi_sets
    assert [
        (violation.fact_ids, violation.constraint.name)
        for violation in ri.per_constraint
    ] == [
        (violation.fact_ids, violation.constraint.name)
        for violation in ci.per_constraint
    ]
    assert [c.mi_sets for c in ri.components()] == [
        c.mi_sets for c in ci.components()
    ]


class TestRoundTrip:
    @pytest.mark.parametrize("case", [0, 1, 2])
    def test_round_trip_bit_identical(self, case, case_rng):
        rng = case_rng
        schema, constraints = _random_setup(rng)
        relations = schema.relation_names()
        database = Database.from_facts(
            schema,
            [
                Fact(
                    rng.choice(relations),
                    (rng.randint(0, 4), rng.choice("xyz"), rng.randint(0, 8)),
                )
                for _ in range(20)
            ],
        )
        measures = make_measures(TABLE2_MEASURES)
        with MeasurementSession(constraints, database) as session:
            for _ in range(10):
                _random_mutation(rng, database, relations)
            session.measure_all(measures)
            snap = _roundtrip(session.snapshot())
            # Post-snapshot speculation (apply + rollback) must not leak
            # into the captured state or the restored session.
            candidates = _random_candidates(rng, database, relations, 3)
            session.speculate_batch(candidates, measures)
        restored = MeasurementSession(constraints, database, warm_start=snap)
        with restored, MeasurementSession(constraints, database) as control:
            assert restored.warm_started
            _assert_sessions_identical(restored, control)
            assert restored.measure_all(measures) == control.measure_all(
                measures
            )
            candidates = _random_candidates(rng, database, relations, 4)
            assert restored.speculate_batch(
                candidates, measures
            ) == control.speculate_batch(candidates, measures)
            # And the maintained state stays in lockstep under new deltas.
            for _ in range(5):
                _random_mutation(rng, database, relations)
                assert restored.measure_all(measures) == control.measure_all(
                    measures
                )
                _assert_sessions_identical(restored, control)

    @pytest.mark.parametrize("case", [0, 1])
    def test_round_trip_after_close_bit_identical(self, case, case_rng):
        rng = case_rng
        schema, constraints = _random_setup(rng)
        relations = schema.relation_names()
        database = Database.from_facts(
            schema,
            [
                Fact(
                    rng.choice(relations),
                    (rng.randint(0, 4), rng.choice("xyz"), rng.randint(0, 8)),
                )
                for _ in range(20)
            ],
        )
        measures = make_measures(TABLE2_MEASURES)
        with MeasurementSession(constraints, database) as session:
            for _ in range(8):
                _random_mutation(rng, database, relations)
            session.measure_all(measures)
            snap = _roundtrip(session.snapshot())
        restored = MeasurementSession(constraints, database, warm_start=snap)
        control = MeasurementSession(constraints, database)
        with restored, control:
            assert restored.warm_started
            _assert_sessions_identical(restored, control)
            assert restored.measure_all(measures) == control.measure_all(
                measures
            )
            candidates = _random_candidates(rng, database, relations, 4)
            assert restored.speculate_batch(
                candidates, measures
            ) == control.speculate_batch(candidates, measures)

    def test_disk_round_trip(self, tmp_path, simple_schema):
        database = Database.from_rows(
            simple_schema, "R", [(1, "x", 5), (1, "y", 5), (2, "x", 1)]
        )
        constraints = [FunctionalDependency("R", {"A"}, {"B"})]
        path = tmp_path / "state.snap"
        with MeasurementSession(constraints, database) as session:
            session.measure_all(make_measures(("I_MI", "I_R")))
            save_snapshot(session.snapshot(), path)
        with MeasurementSession(
            constraints, database, warm_start=load_snapshot(path)
        ) as restored:
            assert restored.warm_started
            full = build_violation_index(constraints, database)
            assert restored.index().mi_sets == full.mi_sets

    def test_warm_cache_entries_adopted(self, simple_schema):
        database = Database.from_rows(
            simple_schema,
            "R",
            [(1, "x", 5), (1, "y", 5), (2, "x", 1), (2, "z", 1), (7, "q", 0)],
        )
        constraints = [FunctionalDependency("R", {"A"}, {"B"})]
        with MeasurementSession(constraints, database) as session:
            session.measure_all(make_measures(TABLE2_MEASURES))
            snap = _roundtrip(session.snapshot())
        with MeasurementSession(
            constraints, database, warm_start=snap
        ) as restored:
            # Fresh measure instances — the cross-process case: every live
            # component's value must come from the snapshot, not a solver.
            restored.measure_all(make_measures(TABLE2_MEASURES))
            assert restored.component_cache.misses == 0
            assert restored.component_cache.hits > 0

    def test_evicted_live_entries_still_warm_the_restore(self, simple_schema):
        """The snapshot exports the live components' own values, so cache
        entries evicted before it was taken still warm every component."""
        database = Database.from_rows(
            simple_schema,
            "R",
            [(k, source, k) for k in range(6) for source in ("x", "y")],
        )
        constraints = [FunctionalDependency("R", {"A"}, {"B"})]
        with MeasurementSession(constraints, database) as session:
            session.component_cache.max_entries = 4
            session.measure_all(make_measures(TABLE2_MEASURES))
            assert session.component_cache.evictions > 0
            snap = _roundtrip(session.snapshot())
        with MeasurementSession(
            constraints, database, warm_start=snap
        ) as restored:
            assert restored.warm_started
            restored.measure_all(make_measures(TABLE2_MEASURES))
            assert restored.component_cache.misses == 0
            assert restored.component_cache.hits > 0


class TestFallback:
    def _setup(self, schema):
        database = Database.from_rows(
            schema, "R", [(1, "x", 5), (1, "y", 5), (2, "x", 1)]
        )
        constraints = [FunctionalDependency("R", {"A"}, {"B"})]
        return database, constraints

    def test_stale_fingerprint_falls_back(self, simple_schema):
        database, constraints = self._setup(simple_schema)
        with MeasurementSession(constraints, database) as session:
            snap = _roundtrip(session.snapshot())
        database.update(0, "B", "z")  # committed change: snapshot is stale
        with MeasurementSession(
            constraints, database, warm_start=snap
        ) as restored:
            assert not restored.warm_started
            full = build_violation_index(constraints, database)
            assert restored.index().mi_sets == full.mi_sets

    def test_allocator_drift_falls_back(self, simple_schema):
        database, constraints = self._setup(simple_schema)
        with MeasurementSession(constraints, database) as session:
            snap = _roundtrip(session.snapshot())
        # Same facts, different allocator state (delete rewinds the
        # allocator, restore does not advance it back): the snapshot must
        # not restore against a drifted allocator.
        fact = database[0]
        database.delete(0)
        database.restore(0, fact)
        assert database._next_id != snap.fingerprint.next_id
        with MeasurementSession(
            constraints, database, warm_start=snap
        ) as restored:
            assert not restored.warm_started

    def test_changed_constraints_fall_back(self, simple_schema):
        database, constraints = self._setup(simple_schema)
        with MeasurementSession(constraints, database) as session:
            snap = _roundtrip(session.snapshot())
        other = [FunctionalDependency("R", {"A"}, {"C"})]
        with MeasurementSession(other, database, warm_start=snap) as restored:
            assert not restored.warm_started
            full = build_violation_index(other, database)
            assert restored.index().mi_sets == full.mi_sets

    def test_malformed_fields_fall_back_not_crash(self, simple_schema):
        """A snapshot that deserialized but carries bogus fields (bit rot,
        a hand-crafted file) must cold-build, not raise."""
        database, constraints = self._setup(simple_schema)
        with MeasurementSession(constraints, database) as session:
            good = session.snapshot()
        bad_fingerprint = _roundtrip(good)
        bad_fingerprint.fingerprint = frozenset()
        bad_topology = _roundtrip(good)
        bad_topology.topology = {}
        bad_stores = _roundtrip(good)
        bad_stores.stores = [object()]
        bad_cache = _roundtrip(good)
        bad_cache.cache = [object()]
        bogus = SessionSnapshot(
            version=SNAPSHOT_VERSION,
            fingerprint=frozenset(),
            constraints=(),
        )
        for snap in (bad_fingerprint, bad_topology, bad_stores, bad_cache, bogus):
            with MeasurementSession(
                constraints, database, warm_start=snap
            ) as restored:
                assert not restored.warm_started
                full = build_violation_index(constraints, database)
                assert restored.index().mi_sets == full.mi_sets

    def test_version_drift_falls_back(self, simple_schema):
        database, constraints = self._setup(simple_schema)
        with MeasurementSession(constraints, database) as session:
            snap = session.snapshot()
        snap.version = 999
        with MeasurementSession(
            constraints, database, warm_start=snap
        ) as restored:
            assert not restored.warm_started

    def test_foreign_bytes_rejected(self, tmp_path):
        path = tmp_path / "not-a-snapshot"
        path.write_bytes(b"something else entirely")
        with pytest.raises(SnapshotError):
            load_snapshot(path)
        with pytest.raises(SnapshotError):
            load_snapshot_bytes(b"REPRO-SNAPSHOT\ngarbage after the magic")

    def test_hostile_pickle_rejected_not_executed(self, tmp_path):
        """The loader must not be an arbitrary-code-execution vector: a
        pickle smuggling a callable behind the magic header raises
        SnapshotError before anything runs."""
        import pickle

        flag = tmp_path / "pwned"

        class Evil:
            def __reduce__(self):
                return (flag.write_text, ("executed",))

        hostile = b"REPRO-SNAPSHOT\n" + pickle.dumps((1, Evil()))
        with pytest.raises(SnapshotError):
            load_snapshot_bytes(hostile)
        assert not flag.exists()

    def test_truncated_file_rejected_at_every_length(
        self, tmp_path, simple_schema
    ):
        """A partially written snapshot file (power loss, full disk) must
        raise SnapshotError — at any truncation point — never restore a
        partial state."""
        database, constraints = self._setup(simple_schema)
        path = tmp_path / "state.snap"
        with MeasurementSession(constraints, database) as session:
            session.measure_all(make_measures(("I_MI", "I_R")))
            save_snapshot(session.snapshot(), path)
        payload = path.read_bytes()
        # Mid-magic, just past the magic, mid-digest, and mid-payload.
        for cut in (4, 15, 30, 60, len(payload) // 2, len(payload) - 1):
            path.write_bytes(payload[:cut])
            with pytest.raises(SnapshotError):
                load_snapshot(path)

    def test_flipped_bytes_past_magic_rejected(self, tmp_path, simple_schema):
        """Bit rot anywhere past the magic header — the digest, the
        version, a pickled cached value — must be a deterministic
        SnapshotError, never a plausibly-restored snapshot carrying a
        silently wrong value."""
        database, constraints = self._setup(simple_schema)
        path = tmp_path / "state.snap"
        with MeasurementSession(constraints, database) as session:
            session.measure_all(make_measures(("I_MI", "I_R")))
            save_snapshot(session.snapshot(), path)
        payload = bytearray(path.read_bytes())
        magic_len = len(b"REPRO-SNAPSHOT\n")
        step = max(1, (len(payload) - magic_len) // 16)
        for position in range(magic_len, len(payload), step):
            corrupted = bytearray(payload)
            corrupted[position] ^= 0x40
            path.write_bytes(bytes(corrupted))
            with pytest.raises(SnapshotError):
                load_snapshot(path)

    def test_mid_write_crash_never_corrupts_the_target(
        self, tmp_path, simple_schema
    ):
        """The crash-mid-write drill at the file level: the target is left
        absent (fresh path) or bit-identical (existing path), and the next
        save goes through; see also tests/session/test_faults.py."""
        from repro.testing import faults
        from repro.testing.faults import FaultInjected

        database, constraints = self._setup(simple_schema)
        path = tmp_path / "state.snap"
        with MeasurementSession(constraints, database) as session:
            snapshot = session.snapshot()
        with faults.inject("snapshot.write"):
            with pytest.raises(FaultInjected):
                save_snapshot(snapshot, path)
        assert not path.exists() and list(tmp_path.iterdir()) == []
        save_snapshot(snapshot, path)
        good = path.read_bytes()
        with faults.inject("snapshot.write"):
            with pytest.raises(FaultInjected):
                save_snapshot(snapshot, path)
        assert path.read_bytes() == good
        with MeasurementSession(
            constraints, database, warm_start=load_snapshot(path)
        ) as restored:
            assert restored.warm_started

    def test_v3_snapshot_rejected_and_cold_builds(
        self, tmp_path, simple_schema
    ):
        """Formats 3 (one payload per relation shard) and 4 (a topology
        with a dominator oracle and per-component raw sets) are refused: a
        file raises SnapshotError on load, and a snapshot value still
        tagged with the old version cold-builds instead of restoring."""
        import hashlib
        import pickle

        database, constraints = self._setup(simple_schema)
        with MeasurementSession(constraints, database) as session:
            current = session.snapshot()
        assert current.version == SNAPSHOT_VERSION == 5
        for old_version in (3, 4):
            body = pickle.dumps((old_version, current))
            path = tmp_path / f"state{old_version}.snap"
            path.write_bytes(
                b"REPRO-SNAPSHOT\n" + hashlib.sha256(body).digest() + body
            )
            with pytest.raises(SnapshotError, match=f"version {old_version}"):
                load_snapshot(path)
            stale = dataclasses.replace(current, version=old_version)
            with MeasurementSession(
                constraints, database, warm_start=stale
            ) as restored:
                assert not restored.warm_started
                full = build_violation_index(constraints, database)
                assert restored.index().mi_sets == full.mi_sets

    def test_v2_snapshot_file_rejected_and_cold_builds(
        self, tmp_path, simple_schema
    ):
        """Format 2 (flat or sharded layout) is refused outright: loading
        raises SnapshotError, and the CLI cold-builds and rewrites the file
        in the current format."""
        import hashlib
        import pickle

        from repro.cli import run

        database, constraints = self._setup(simple_schema)
        with MeasurementSession(constraints, database) as session:
            current = session.snapshot()
        body = pickle.dumps((2, current))
        path = tmp_path / "state.snap"
        path.write_bytes(b"REPRO-SNAPSHOT\n" + hashlib.sha256(body).digest() + body)
        with pytest.raises(SnapshotError, match="version 2"):
            load_snapshot(path)

        csv_file = tmp_path / "data.csv"
        csv_file.write_text("Name,Country\nParis,FR\nParis,DE\n", encoding="utf-8")
        argv = [
            str(csv_file),
            "--relation",
            "R",
            "--fd",
            "R: Name -> Country",
            "--warm-start",
            str(path),
        ]
        out = io.StringIO()
        assert run(argv, out=out) == 0
        assert "warm start: cold build" in out.getvalue()
        assert isinstance(load_snapshot(path), SessionSnapshot)
        out = io.StringIO()
        assert run(argv, out=out) == 0
        assert "warm start: restored" in out.getvalue()
