"""Test seams for the two layout decisions a session makes itself.

A :class:`~repro.session.session.MeasurementSession` derives its column
backend (:data:`repro.session.columnar.VECTOR_BACKEND`: numpy whenever it
imports) and its relation partition
(:func:`repro.session.shard.relation_groups`); neither is an option, and
every read is bit-identical whatever they are.  The differential suites
and benches still compare the numpy and list backends, and the one-group
and derived partitions, so each decision has exactly one seam here: a
context manager that patches the value the session reads, for the length
of the block.

* :func:`column_backend` — the backend is read whenever a shard
  (re)builds its column store: at construction, warm-start restore,
  ``refresh`` and fault recovery.  A session must therefore live inside
  the block that shapes it.
* :func:`one_group` — the partition is read once, at construction: a
  session built inside the block keeps every relation a constraint
  mentions in one shard (the no-merge read path) for its whole life.

Blocks nest; leaving one restores the value that was in force when it was
entered.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

__all__ = ["column_backend", "one_group"]


@contextmanager
def _patched(owner, name: str, value) -> Iterator[None]:
    import pytest  # a test-support seam: only tests and benches enter it

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(owner, name, value)
        yield


@contextmanager
def column_backend(name: str) -> Iterator[None]:
    """Build column stores on backend *name* (``"numpy"`` or ``"list"``)."""
    from ..session import columnar

    if name not in ("numpy", "list"):
        raise ValueError(f"unknown column backend {name!r}")
    with _patched(columnar, "VECTOR_BACKEND", name):
        yield


def _merged_groups(dcs, schema) -> list[tuple[str, ...]]:
    """The derived groups merged into one, in schema order."""
    from ..session.shard import relation_groups

    members = {name for group in relation_groups(dcs, schema) for name in group}
    merged = tuple(name for name in schema.relation_names() if name in members)
    return [merged] if merged else []


@contextmanager
def one_group() -> Iterator[None]:
    """Build sessions with every constrained relation in one shard."""
    from ..session import session as session_module

    with _patched(session_module, "relation_groups", _merged_groups):
        yield
