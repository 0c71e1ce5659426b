"""Deterministic fault injection for graceful-degradation drills.

The anytime solver runtime promises that every hard failure mode lands in a
*defined* state: a solver missing its deadline degrades to bounds with an
honest status, a solver backend crashing mid-solve answers from bounds,
a snapshot interrupted mid-write never corrupts the target file, a
session whose change-feed handler raised self-heals with a rebuild on the
next read.  Those
promises are only worth anything if the paths actually run, so production
code marks each of them with a **named injection point** and the drill
suite arms the points deterministically.

Injection points are free when disarmed: :func:`fires` / :func:`trip` check
one module-level reference and return immediately when no plan is active
(the common case — production runs never arm anything).

Two arming styles:

* **Targeted** — ``with inject("solver.backend"):`` arms one point so its
  next occurrence fires (``after=``/``times=`` select later or repeated
  occurrences); deterministic by construction.
* **Seed-driven** — ``with fault_plan(seed, rates={"solver.deadline": 0.3})``
  draws an independent, seeded decision stream *per point*, so a randomized
  drill fires each point on a reproducible subset of its occurrences and a
  red run is one seed away from a local repro.

Points currently wired into production code:

``solver.deadline``
    Forces the anytime runtime's deadline check to report expiry — the
    "solver budget exceeded" degradation without having to burn wall-clock.
``solver.backend``
    Raises at the entry of a hard measure's budgeted exact solve — the
    "backend crashed mid-solve" degradation; the measure's bounds must
    answer, tagged ``FALLBACK``.
``snapshot.write``
    Fires inside :func:`~repro.session.snapshot.save_snapshot` after a
    truncated prefix of the payload has been written to the *temporary*
    file — the "crash mid-write" drill; the target path must be left
    either absent or with its previous bit-identical content.
``shard.fanout``
    Raises in the session's change-feed handler, before the event marks
    its fact dirty or reaches the column store (the name predates the
    single maintained state) — the session marks itself degraded and
    rebuilds cold on the next read instead of serving a stale answer.
``ingest.flush``
    Raises at the head of an :class:`~repro.session.ingest.IngestPipeline`
    drain, before any pending event applies — the pending buffer, the
    database and the session must be left bit-identical, so the producer
    simply retries the drain.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Callable, Iterator, Mapping


#: The closed registry of injection points wired into production code.
#: The ``fault-registry`` lint rule (``python -m repro.analysis``) checks
#: both directions against this set: every ``trip``/``fires`` argument and
#: ``FAULT_*`` constant in ``src/`` must be registered here, and every
#: entry here must be wired into production code and referenced by a test.
#: Points prefixed ``test.`` are exempt from registration — they exist for
#: exercising this framework itself.
REGISTERED_POINTS = frozenset(
    {
        "solver.deadline",
        "solver.backend",
        "snapshot.write",
        "shard.fanout",
        "ingest.flush",
    }
)

#: Escape hatch for the framework's own unit drills.
_TEST_PREFIX = "test."


def _check_registered(point: str) -> None:
    if point not in REGISTERED_POINTS and not point.startswith(_TEST_PREFIX):
        raise ValueError(
            f"unregistered fault point {point!r}; add it to "
            f"repro.testing.faults.REGISTERED_POINTS (or prefix it with "
            f"{_TEST_PREFIX!r} for framework self-tests)"
        )


class FaultInjected(RuntimeError):
    """The default error raised by an armed hard injection point."""


class _Arm:
    """One armed point: skip the first *after* occurrences, fire *times*."""

    __slots__ = ("after", "times", "error", "seen", "fired")

    def __init__(
        self,
        after: int,
        times: int | None,
        error: Callable[[str], BaseException] | None,
    ) -> None:
        self.after = after
        self.times = times
        self.error = error
        self.seen = 0
        self.fired = 0

    def should_fire(self) -> bool:
        occurrence = self.seen
        self.seen += 1
        if occurrence < self.after:
            return False
        if self.times is not None and self.fired >= self.times:
            return False
        self.fired += 1
        return True


class FaultPlan:
    """Which injection points fire, and on which occurrences.

    Combines targeted arms (:meth:`arm`) with seed-driven rates: each point
    named in *rates* gets its own ``random.Random`` stream derived from
    ``(seed, point)``, so adding or reordering *other* points never changes
    a point's firing pattern.
    """

    def __init__(
        self,
        seed: int = 0,
        rates: Mapping[str, float] | None = None,
    ) -> None:
        self.seed = seed
        self._arms: dict[str, _Arm] = {}
        self._rates = dict(rates or {})
        for rate_point in self._rates:
            _check_registered(rate_point)
        self._streams: dict[str, random.Random] = {}
        #: point → occurrences that actually fired (drill assertions).
        self.fired: dict[str, int] = {}

    def arm(
        self,
        point: str,
        *,
        after: int = 0,
        times: int | None = 1,
        error: Callable[[str], BaseException] | None = None,
    ) -> None:
        """Arm *point*: skip *after* occurrences, then fire *times* times.

        ``times=None`` fires on every occurrence past *after*.  *error*
        builds the exception hard points raise (default
        :class:`FaultInjected`).  Arming a point outside
        :data:`REGISTERED_POINTS` raises — a drill against a point that no
        production code fires would silently test nothing.
        """
        _check_registered(point)
        self._arms[point] = _Arm(after, times, error)

    def decide(self, point: str) -> bool:
        """Whether this occurrence of *point* fires (advances the streams)."""
        arm = self._arms.get(point)
        if arm is not None and arm.should_fire():
            self.fired[point] = self.fired.get(point, 0) + 1
            return True
        rate = self._rates.get(point)
        if rate:
            stream = self._streams.get(point)
            if stream is None:
                stream = random.Random(f"{self.seed}:{point}")
                self._streams[point] = stream
            if stream.random() < rate:
                self.fired[point] = self.fired.get(point, 0) + 1
                return True
        return False

    def error_for(self, point: str) -> BaseException:
        arm = self._arms.get(point)
        if arm is not None and arm.error is not None:
            return arm.error(point)
        return FaultInjected(f"injected fault at {point!r}")


#: The active plan, or None (the production state — zero-cost checks).
_ACTIVE: FaultPlan | None = None


def active_plan() -> FaultPlan | None:
    """The currently armed :class:`FaultPlan`, if any."""
    return _ACTIVE


def fires(point: str) -> bool:
    """Whether the armed plan fires this occurrence of a *soft* point.

    Soft points degrade by flag — e.g. the deadline check treats a firing
    as "budget exhausted" — rather than by raising.
    """
    plan = _ACTIVE
    return plan is not None and plan.decide(point)


def trip(point: str) -> None:
    """Raise the armed error at a *hard* point when the plan fires."""
    plan = _ACTIVE
    if plan is not None and plan.decide(point):
        raise plan.error_for(point)


@contextmanager
def fault_plan(
    seed: int = 0, rates: Mapping[str, float] | None = None
) -> Iterator[FaultPlan]:
    """Activate a seed-driven :class:`FaultPlan` for the ``with`` body.

    Plans do not nest (a drill owns the process-wide failure model);
    activating inside an active plan raises.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a fault plan is already active")
    plan = FaultPlan(seed, rates)
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = None


@contextmanager
def inject(
    point: str,
    *,
    after: int = 0,
    times: int | None = 1,
    error: Callable[[str], BaseException] | None = None,
) -> Iterator[FaultPlan]:
    """Arm a single point for the ``with`` body (targeted drill form)."""
    with fault_plan() as plan:
        plan.arm(point, after=after, times=times, error=error)
        yield plan
