"""Shared fixtures: small schemas, databases, constraints — and seeds.

Randomized suites draw their entropy from one session-scoped
``--repro-seed`` option: every test case derives its own seed from the
session seed and its node id, so a whole run is reproduced by a single
number, yet no two cases (or parametrizations) share a stream.  On
failure the seeds are echoed in the report, so a red randomized run is
one ``--repro-seed N`` away from a local repro.

Every test also runs under a wall-clock ceiling (``REPRO_TEST_TIMEOUT``
seconds, default 300): a hung solver fails one test with a timeout instead
of wedging the whole run.  When ``pytest-timeout`` is installed (the CI
configuration, see the ``timeout`` extra in setup.py) its ceiling is armed;
otherwise a SIGALRM-based fallback covers the main thread on platforms
that have it.
"""

from __future__ import annotations

import importlib.util
import os
import random
import signal
import zlib

import pytest

#: Per-test wall-clock ceiling in seconds (0 disables it).
_TEST_TIMEOUT = int(os.environ.get("REPRO_TEST_TIMEOUT", "300"))

from repro.constraints import FunctionalDependency, parse_dc
from repro.datasets.example1 import (
    airport_constraints,
    clean_database,
    noisy_database_d1,
    noisy_database_d2,
)
from repro.relational import Database, Schema
from repro.testing.layout import column_backend

#: Default session seed — fixed so plain ``pytest`` runs are stable; CI or
#: soak runs vary it via ``--repro-seed`` / ``REPRO_SEED``.
_DEFAULT_SEED = 0


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--repro-seed",
        action="store",
        type=int,
        default=None,
        help=(
            "session seed for the randomized suites; per-case seeds derive "
            "from it and the test node id (default: REPRO_SEED env var or "
            f"{_DEFAULT_SEED})"
        ),
    )


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers",
        "slow: long randomized/e2e suites (CI's fast lane runs -m 'not slow')",
    )
    seed = config.getoption("--repro-seed")
    if seed is None:
        seed = int(os.environ.get("REPRO_SEED", _DEFAULT_SEED))
    config._repro_session_seed = seed
    if config.pluginmanager.hasplugin("timeout"):
        # pytest-timeout installed: arm its per-test ceiling unless the
        # invocation already chose one (--timeout wins over the default).
        if _TEST_TIMEOUT and not getattr(config.option, "timeout", None):
            config.option.timeout = _TEST_TIMEOUT
    else:
        # Register the marker pytest-timeout would own, so per-test
        # overrides stay valid (and honored by the fallback below).
        config.addinivalue_line(
            "markers",
            "timeout(seconds): per-test wall-clock ceiling "
            "(SIGALRM fallback when pytest-timeout is not installed)",
        )


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """SIGALRM per-test ceiling when pytest-timeout is not installed.

    Main-thread only (SIGALRM's scope) and unix-only — exactly the hang
    class the anytime-solver suites can produce.  ``timeout(0)`` markers
    opt a test out; integer alarms round the ceiling up to a whole second.
    """
    if item.config.pluginmanager.hasplugin("timeout") or not hasattr(
        signal, "SIGALRM"
    ):
        return (yield)
    marker = item.get_closest_marker("timeout")
    ceiling = marker.args[0] if marker and marker.args else _TEST_TIMEOUT
    if not ceiling:
        return (yield)

    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded the {ceiling}s per-test wall-clock ceiling "
            "(REPRO_TEST_TIMEOUT overrides it)"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(max(1, int(ceiling)))
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def derive_case_seed(session_seed: int, node_id: str) -> int:
    """The per-case seed: stable hash of the session seed and node id."""
    return zlib.crc32(f"{session_seed}:{node_id}".encode("utf-8"))


@pytest.fixture(scope="session")
def repro_session_seed(request) -> int:
    """The session-scoped ``--repro-seed`` value."""
    return request.config._repro_session_seed


@pytest.fixture
def case_seed(request, repro_session_seed) -> int:
    """This test case's derived seed (echoed on failure)."""
    seed = derive_case_seed(repro_session_seed, request.node.nodeid)
    request.node._repro_seeds = (repro_session_seed, seed)
    return seed


@pytest.fixture
def case_rng(case_seed) -> random.Random:
    """A ``random.Random`` seeded with this case's derived seed."""
    return random.Random(case_seed)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    seeds = getattr(item, "_repro_seeds", None)
    if seeds is not None and report.when == "call" and report.failed:
        session_seed, seed = seeds
        report.sections.append(
            (
                "repro seed",
                f"randomized case seed {seed}; reproduce this run with "
                f"--repro-seed {session_seed}",
            )
        )
    return report


#: Column backends this process can build sessions on ("list" always can).
COLUMN_BACKENDS = ["list"] + (
    ["numpy"] if importlib.util.find_spec("numpy") else []
)


@pytest.fixture(params=COLUMN_BACKENDS)
def session_backend(request) -> str:
    """Run the test once per column backend.

    Every session the test builds, rebuilds or recovers lives inside the
    backend's :func:`~repro.testing.layout.column_backend` block, so a
    fault-recovery rebuild stays on the same backend as the cold build.
    """
    with column_backend(request.param):
        yield request.param


@pytest.fixture
def simple_schema() -> Schema:
    return Schema.from_dict({"R": ["A", "B", "C"]})


@pytest.fixture
def simple_db(simple_schema) -> Database:
    return Database.from_rows(
        simple_schema,
        "R",
        [(1, "x", 10), (1, "y", 20), (2, "x", 30), (3, "z", 10)],
    )


@pytest.fixture
def fd_a_b() -> FunctionalDependency:
    return FunctionalDependency("R", {"A"}, {"B"})


@pytest.fixture
def airport_example():
    """(constraints, D0, D1, D2) of the running example."""
    return (
        airport_constraints(),
        clean_database(),
        noisy_database_d1(),
        noisy_database_d2(),
    )


@pytest.fixture
def order_dc():
    """A single-tuple order DC over R(A, B, C): ¬(A > B)."""
    return parse_dc("not(t.A > t.B)", "R")
