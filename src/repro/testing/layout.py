"""Test seam for the one layout decision a session makes itself.

A :class:`~repro.session.session.MeasurementSession` derives its column
backend (:data:`repro.session.columnar.VECTOR_BACKEND`: numpy whenever it
imports); it is not an option, and every read is bit-identical whatever
it is.  The differential suites and benches still compare the numpy and
list backends, so the decision has one seam here: a context manager that
patches the value the session reads, for the length of the block.

:func:`column_backend` — the backend is read whenever a session (re)builds
its column store: at construction, warm-start restore, ``refresh`` and
fault recovery.  A session must therefore live inside the block that
shapes it.

Blocks nest; leaving one restores the value that was in force when it was
entered.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

__all__ = ["column_backend"]


@contextmanager
def column_backend(name: str) -> Iterator[None]:
    """Build column stores on backend *name* (``"numpy"`` or ``"list"``)."""
    import pytest  # a test-support seam: only tests and benches enter it

    from ..session import columnar

    if name not in ("numpy", "list"):
        raise ValueError(f"unknown column backend {name!r}")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(columnar, "VECTOR_BACKEND", name)
        yield
