"""The fault-registry rule: both directions of the registry cross-check."""

from __future__ import annotations

from repro.analysis.rules import FaultRegistryRule

from .util import findings_of, make_module

REGISTRY = "repro.testing.faults"


def registry_module(*points: str):
    listing = ", ".join(f'"{point}"' for point in points)
    return make_module(
        REGISTRY,
        f"REGISTERED_POINTS = frozenset({{{listing}}})\n",
    )


def rule() -> FaultRegistryRule:
    return FaultRegistryRule(registry_module=REGISTRY)


def drill_test(*points: str):
    body = "\n".join(f'    assert "{point}"' for point in points) or "    pass"
    return make_module(
        "test_drills",
        f"def test_drills():\n{body}\n",
        realm="tests",
        path="tests/test_drills.py",
    )


class TestRegistryDirections:
    def test_consistent_registry_is_clean(self):
        registry = registry_module("solver.deadline")
        user = make_module(
            "repro.solvers.anytime",
            """
            from repro.testing import faults

            def check():
                faults.trip("solver.deadline")
            """,
        )
        assert not findings_of(
            rule(), registry, user, drill_test("solver.deadline")
        )

    def test_unregistered_point_fires(self):
        registry = registry_module("solver.deadline")
        user = make_module(
            "repro.solvers.anytime",
            """
            from repro.testing import faults

            def check():
                faults.trip("solver.unknown")
            """,
        )
        findings = findings_of(rule(), registry, user)
        assert any(
            "'solver.unknown' is used but not registered" in finding.message
            for finding in findings
        )

    def test_stale_registry_entry_fires(self):
        registry = registry_module("solver.deadline", "ghost.point")
        user = make_module(
            "repro.solvers.anytime",
            'from repro.testing import faults\n\n'
            'def check():\n    faults.trip("solver.deadline")\n',
        )
        findings = findings_of(
            rule(), registry, user, drill_test("solver.deadline")
        )
        assert any("stale registry entry" in f.message for f in findings)

    def test_undrilled_point_fires(self):
        registry = registry_module("solver.deadline")
        user = make_module(
            "repro.solvers.anytime",
            'from repro.testing import faults\n\n'
            'def check():\n    faults.trip("solver.deadline")\n',
        )
        findings = findings_of(rule(), registry, user, drill_test())
        assert any(
            "referenced by no test" in finding.message for finding in findings
        )

    def test_missing_registry_constant_fires(self):
        registry = make_module(REGISTRY, "REGISTRY = {}\n")
        (finding,) = findings_of(rule(), registry)
        assert "no REGISTERED_POINTS" in finding.message


class TestConstantResolution:
    def test_local_constant_resolves(self):
        registry = registry_module("shard.fanout")
        user = make_module(
            "repro.session.session",
            """
            from repro.testing import faults

            FAULT_FANOUT = "shard.fanout"

            def forward():
                faults.trip(FAULT_FANOUT)
            """,
        )
        assert not findings_of(
            rule(), registry, user, drill_test("shard.fanout")
        )

    def test_constant_name_reference_counts_as_drill(self):
        registry = registry_module("shard.fanout")
        user = make_module(
            "repro.session.session",
            'from repro.testing import faults\n\n'
            'FAULT_FANOUT = "shard.fanout"\n\n'
            "def forward():\n    faults.trip(FAULT_FANOUT)\n",
        )
        # The test references the constant, not the literal string.
        drill = make_module(
            "test_drills",
            "from repro.session.session import FAULT_FANOUT\n\n"
            "def test_drill():\n    assert FAULT_FANOUT\n",
            realm="tests",
            path="tests/test_drills.py",
        )
        assert not findings_of(rule(), registry, user, drill)

    def test_unregistered_constant_fires(self):
        registry = registry_module("shard.fanout")
        user = make_module(
            "repro.session.session",
            'FAULT_OTHER = "shard.other"\n',
        )
        findings = findings_of(rule(), registry, user)
        assert any("FAULT_OTHER" in finding.message for finding in findings)

    def test_dynamic_point_argument_fires(self):
        registry = registry_module("shard.fanout")
        user = make_module(
            "repro.session.session",
            """
            from repro.testing import faults

            def forward(point):
                faults.trip(point + ".suffix")
            """,
        )
        findings = findings_of(rule(), registry, user)
        assert any(
            "statically resolvable" in finding.message for finding in findings
        )


class TestRuntimeRegistry:
    def test_real_registry_rejects_unregistered_arm(self):
        import pytest

        from repro.testing import faults

        with pytest.raises(ValueError, match="unregistered fault point"):
            with faults.inject("no.such.point"):
                pass

    def test_real_registry_rejects_unregistered_rate(self):
        import pytest

        from repro.testing import faults

        with pytest.raises(ValueError, match="unregistered fault point"):
            with faults.fault_plan(1, rates={"no.such.point": 0.5}):
                pass

    def test_test_prefix_is_exempt(self):
        from repro.testing import faults

        with faults.inject("test.anything"):
            assert not faults.fires("test.other")
