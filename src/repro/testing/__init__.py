"""Test-support utilities shipped with the package.

:mod:`repro.testing.faults` is the deterministic fault-injection layer the
degradation drills build on; it lives in the package (not under ``tests/``)
because the injection *points* are calls inside production modules and the
arming API must be importable wherever the code under test runs.
:mod:`repro.testing.layout` holds the seam that fixes a session's column
backend for a block, shared by the tests and the benches for the same
reason.
"""

from .faults import (
    FaultInjected,
    active_plan,
    fault_plan,
    fires,
    inject,
    trip,
)

__all__ = [
    "FaultInjected",
    "active_plan",
    "fault_plan",
    "fires",
    "inject",
    "trip",
]
