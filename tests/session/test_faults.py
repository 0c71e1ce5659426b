"""Graceful-degradation drills: every injected failure lands defined.

The anytime runtime's robustness promises (docstring of
:mod:`repro.testing.faults`) are exercised here point by point: a solver
missing its deadline degrades to TIMEOUT bounds, a crashing backend
answers from FALLBACK bounds, a snapshot interrupted mid-write never
corrupts the target file, and a session whose change-feed handler raised
rebuilds cold.  After every drill the session must measure **bit-identical** to a
from-scratch session over the same database — degradation may cost work,
never correctness.
"""

from __future__ import annotations

import random

import pytest

from repro.constraints import FunctionalDependency, parse_dc
from repro.measures import TABLE2_MEASURES, make_measures
from repro.measures.mc import MaximalConsistentMeasure
from repro.relational import Database, Fact, Schema
from repro.session import (
    MeasurementSession,
    load_snapshot,
    make_session,
    save_snapshot,
)
from repro.session.session import FAULT_FANOUT
from repro.session.snapshot import FAULT_WRITE
from repro.solvers.anytime import (
    FALLBACK,
    FAULT_BACKEND,
    FAULT_DEADLINE,
    OPTIMAL,
    TIMEOUT,
    status_of,
)
from repro.solvers.cliques import EnumerationBudgetExceeded
from repro.testing import faults
from repro.testing.faults import FaultInjected


def _workload(n: int = 14):
    """Two relations, one path-shaped conflict component each."""
    schema = Schema.from_dict({"R": ["A", "B", "C"], "S": ["A", "B", "C"]})
    database = Database.from_facts(
        schema,
        [
            Fact(relation, (i // 2, i, (i + 1) // 2))
            for relation in ("R", "S")
            for i in range(n)
        ],
    )
    constraints = [
        FunctionalDependency(relation, column, {"B"})
        for relation in ("R", "S")
        for column in ({"A"}, {"C"})
    ]
    return constraints, database


def _fresh_values(constraints, database, measures):
    with MeasurementSession(constraints, database) as fresh:
        return fresh.measure_all(measures)


class TestFaultPlanMechanics:
    def test_targeted_arm_fires_selected_occurrences(self):
        with faults.inject("test.p", after=1, times=2) as plan:
            assert [faults.fires("test.p") for _ in range(5)] == [
                False,
                True,
                True,
                False,
                False,
            ]
            assert plan.fired["test.p"] == 2

    def test_trip_raises_the_armed_error(self):
        with faults.inject("test.p", error=lambda point: KeyError(point)):
            with pytest.raises(KeyError):
                faults.trip("test.p")
            faults.trip("test.p")  # times=1: second occurrence is quiet

    def test_seeded_rates_are_deterministic(self):
        def draw():
            with faults.fault_plan(7, rates={"test.p": 0.5}):
                return [faults.fires("test.p") for _ in range(32)]

        first, second = draw(), draw()
        assert first == second
        assert any(first) and not all(first)

    def test_plans_do_not_nest(self):
        with faults.fault_plan(0):
            with pytest.raises(RuntimeError):
                with faults.fault_plan(1):
                    pass

    def test_disarmed_points_are_quiet(self):
        assert not faults.fires("test.p")
        faults.trip("test.p")


class TestSolverDeadlineDrill:
    def test_forced_deadline_degrades_to_timeout(self):
        constraints, database = _workload()
        mc = MaximalConsistentMeasure()
        with MeasurementSession(constraints, database) as session:
            with faults.inject(FAULT_DEADLINE, times=None):
                value = session.measure(mc, budget=60.0)
            assert status_of(value) == TIMEOUT
            after = session.measure(mc)
        assert after == _fresh_values(constraints, database, [mc])[mc.name]
        assert status_of(after) == OPTIMAL

    def test_unbudgeted_calls_ignore_deadline_faults(self):
        # Without a budget scope no chain runs, so the forced expiry has
        # nothing to act on — the exact path stays exact.
        constraints, database = _workload()
        mc = MaximalConsistentMeasure()
        with MeasurementSession(constraints, database) as session:
            with faults.inject(FAULT_DEADLINE, times=None):
                value = session.measure(mc)
            assert status_of(value) == OPTIMAL


class TestSolverBackendDrill:
    def test_crashed_backend_falls_through_to_bounds(self):
        constraints, database = _workload()
        names = ("I_MC", "I'_MC", "I_R")
        measures = make_measures(names)
        exact = _fresh_values(constraints, database, measures)
        with MeasurementSession(constraints, database) as session:
            with faults.inject(FAULT_BACKEND, times=None):
                values = session.measure_all(measures, budget=60.0)
            for name in names:
                assert status_of(values[name]) == FALLBACK
                assert values[name].lower <= exact[name] <= values[name].upper
            after = session.measure_all(measures)
        assert after == exact

    def test_meeting_bounds_stay_fallback_and_uncached(self):
        # Only self-inconsistent facts: every component has no MI set of
        # two or more facts, so I_MC's bounds meet at the exact count.
        schema = Schema.from_dict({"R": ["A", "B"]})
        database = Database.from_facts(
            schema, [Fact("R", (i + 1, i)) for i in range(3)]
        )
        constraints = [parse_dc("not(t.A > t.B)", "R")]
        names = ("I_MC", "I'_MC")
        measures = make_measures(names)
        exact = _fresh_values(constraints, database, measures)
        with MeasurementSession(constraints, database) as session:
            with faults.inject(FAULT_BACKEND, times=None):
                values = session.measure_all(measures, budget=60.0)
            for name in names:
                assert status_of(values[name]) == FALLBACK
                assert values[name].lower == exact[name] == values[name].upper
            assert len(session.component_cache) == 0
            after = session.measure_all(measures)
            assert len(session.component_cache) > 0
        assert after == exact
        assert all(status_of(value) == OPTIMAL for value in after.values())


class TestSnapshotWriteDrill:
    def _snapshot(self):
        constraints, database = _workload(6)
        with MeasurementSession(constraints, database) as session:
            session.measure_all(make_measures(("I_MI",)))
            return constraints, database, session.snapshot()

    def test_crash_on_fresh_path_leaves_no_file(self, tmp_path):
        _, _, snapshot = self._snapshot()
        target = tmp_path / "state.snap"
        with faults.inject(FAULT_WRITE):
            with pytest.raises(FaultInjected):
                save_snapshot(snapshot, target)
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []  # no temp litter either

    def test_crash_preserves_previous_content_bit_identically(self, tmp_path):
        constraints, database, snapshot = self._snapshot()
        target = tmp_path / "state.snap"
        save_snapshot(snapshot, target)
        good_bytes = target.read_bytes()
        with faults.inject(FAULT_WRITE):
            with pytest.raises(FaultInjected):
                save_snapshot(snapshot, target)
        assert target.read_bytes() == good_bytes
        with MeasurementSession(
            constraints, database, warm_start=load_snapshot(target)
        ) as restored:
            assert restored.warm_started

    def test_save_succeeds_after_the_drill(self, tmp_path):
        _, _, snapshot = self._snapshot()
        target = tmp_path / "state.snap"
        with faults.inject(FAULT_WRITE):
            with pytest.raises(FaultInjected):
                save_snapshot(snapshot, target)
        save_snapshot(snapshot, target)
        load_snapshot(target)


class TestFanoutDrill:
    def test_degraded_session_rebuilds_cold(self):
        constraints, database = _workload()
        measures = make_measures(("I_MI", "I_P", "I_R"))
        with MeasurementSession(constraints, database) as session:
            session.measure_all(measures)
            with faults.inject(FAULT_FANOUT):
                with pytest.raises(FaultInjected):
                    database.insert(Fact("R", (0, 99, 0)))
            # The fact is committed but the session never saw the event;
            # the next read must rebuild, not serve a stale answer.
            values = session.measure_all(measures)
            assert values == _fresh_values(constraints, database, measures)
            # And the recovered session keeps tracking subsequent deltas.
            database.insert(Fact("S", (0, 99, 0)))
            assert session.measure_all(measures) == _fresh_values(
                constraints, database, measures
            )

    def test_repeated_fanout_faults_keep_recovering(self):
        constraints, database = _workload(8)
        measures = make_measures(("I_MI", "I_d"))
        with MeasurementSession(constraints, database) as session:
            with faults.inject(FAULT_FANOUT, times=None):
                for i in range(3):
                    with pytest.raises(FaultInjected):
                        database.insert(Fact("R", (0, 100 + i, 0)))
            assert session.measure_all(measures) == _fresh_values(
                constraints, database, measures
            )

    def test_single_relation_session_has_a_fanout_point(self):
        """A one-relation session has the same drill point: a raising
        event degrades it to a cold rebuild."""
        schema = Schema.from_dict({"R": ["A", "B", "C"]})
        database = Database.from_facts(
            schema, [Fact("R", (i // 2, i, (i + 1) // 2)) for i in range(10)]
        )
        constraints = [
            FunctionalDependency("R", column, {"B"})
            for column in ({"A"}, {"C"})
        ]
        measures = make_measures(("I_MI", "I_P", "I_MC", "I_R"))
        with MeasurementSession(constraints, database) as session:
            session.measure_all(measures)
            with faults.inject(FAULT_FANOUT):
                with pytest.raises(FaultInjected):
                    database.update(0, "B", 99)
            assert session.measure_all(measures) == _fresh_values(
                constraints, database, measures
            )


class TestEnumerationLimitExceptionSafety:
    """The unbudgeted ``enumeration_limit`` raise must leave every session
    measuring bit-identically to a fresh session (satellite of the
    anytime work: no half-resolved memo may survive the raise)."""

    def _measures(self):
        return [
            *make_measures(("I_MI", "I_R")),
            MaximalConsistentMeasure(enumeration_limit=3),
        ]

    def test_measure_all_raise_is_exception_safe(self, session_backend):
        constraints, database = _workload()
        exact = make_measures(TABLE2_MEASURES)
        with make_session(constraints, database) as session:
            with pytest.raises(EnumerationBudgetExceeded):
                session.measure_all(self._measures())
            assert session.measure_all(exact) == _fresh_values(
                constraints, database, exact
            )
            # ...and under subsequent deltas, too.
            database.insert(Fact("R", (0, 77, 0)))
            assert session.measure_all(exact) == _fresh_values(
                constraints, database, exact
            )

    def test_speculate_batch_raise_is_exception_safe(self, session_backend):
        constraints, database = _workload()
        exact = make_measures(TABLE2_MEASURES)
        from repro.repairs.operations import DeleteOperation

        identifiers = sorted(
            identifier for identifier, _ in database.items()
        )[:3]
        candidates = [[DeleteOperation(i)] for i in identifiers]
        with make_session(constraints, database) as session:
            with pytest.raises(EnumerationBudgetExceeded):
                session.speculate_batch(candidates, self._measures())
            fresh_scores = None
            with make_session(constraints, database) as fresh:
                fresh_scores = fresh.speculate_batch(candidates, exact)
            assert session.speculate_batch(candidates, exact) == fresh_scores
            assert session.measure_all(exact) == _fresh_values(
                constraints, database, exact
            )


class TestRandomizedDegradationDrill:
    """Seed-driven rates over every point while a session works; after the
    plan deactivates the session must be bit-identical to from-scratch."""

    def test_drill_lands_in_defined_state(self, session_backend, case_rng):
        rng = case_rng
        constraints, database = _workload(10)
        measures = make_measures(("I_MI", "I_MC", "I_R"))
        with make_session(constraints, database) as session:
            with faults.fault_plan(
                rng.randint(0, 2**31),
                rates={
                    FAULT_DEADLINE: 0.4,
                    FAULT_BACKEND: 0.4,
                    FAULT_FANOUT: 0.3,
                },
            ):
                for step in range(12):
                    try:
                        if rng.random() < 0.5:
                            database.insert(
                                Fact(
                                    rng.choice(("R", "S")),
                                    (rng.randint(0, 3), 200 + step, 0),
                                )
                            )
                        else:
                            session.measure_all(measures, budget=60.0)
                    except FaultInjected:
                        pass
            assert session.measure_all(measures) == _fresh_values(
                constraints, database, measures
            )


class TestIngestFlushFault:
    """``ingest.flush`` drills: a tripped drain is a clean refusal.

    The pipeline trips before any pending event applies, so the pending
    buffer, the database and the session must be left bit-identical —
    the producer handles the error and simply retries the drain.
    """

    def test_tripped_drain_leaves_everything_intact_and_retries(self):
        from repro.session.ingest import FAULT_FLUSH

        constraints, database = _workload(8)
        measures = make_measures(("I_MI", "I_d"))
        with MeasurementSession(constraints, database) as session:
            pipe = session.ingest()
            pipe.submit("insert", Fact("R", (0, 99, 0)))
            pipe.submit("update", 0, "B", 99)
            pending_before = pipe.pending
            facts_before = dict(database.items())
            flushes_before = pipe.counters()["flushes"]
            with faults.inject(FAULT_FLUSH):
                with pytest.raises(FaultInjected):
                    pipe.read(measures, max_staleness_events=0)
            assert pipe.pending == pending_before
            assert dict(database.items()) == facts_before
            assert pipe.counters()["flushes"] == flushes_before
            # The retry drains bit-identically to never having faulted.
            read = pipe.read(measures, max_staleness_events=0)
            assert read.staleness == 0
            assert read.values == _fresh_values(constraints, database, measures)

    def test_seed_driven_flush_faults_with_retry_converge(self, case_rng):
        from repro.session.ingest import FAULT_FLUSH

        constraints, database = _workload(8)
        measures = make_measures(("I_MI", "I_d"))
        with MeasurementSession(constraints, database) as session:
            pipe = session.ingest()
            with faults.fault_plan(
                case_rng.randrange(2**31), rates={FAULT_FLUSH: 0.4}
            ) as plan:
                for step in range(40):
                    relation = "R" if step % 2 else "S"
                    pipe.submit(
                        "insert", Fact(relation, (step // 3, 200 + step, 0))
                    )
                    if step % 5 == 4:
                        for _ in range(10):  # retry until the drain lands
                            try:
                                pipe.read((), max_staleness_events=2)
                                break
                            except FaultInjected:
                                continue
                while True:
                    try:
                        pipe.flush()
                        break
                    except FaultInjected:
                        continue
            assert pipe.pending == 0
            assert session.measure_all(measures) == _fresh_values(
                constraints, database, measures
            )
