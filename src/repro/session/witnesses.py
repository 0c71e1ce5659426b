"""Maintained witness state: one :class:`WitnessStore` per DC.

A store keeps one DC's live witness set in fact-id order; the owning
session adds and discards witnesses as :mod:`repro.session.enumeration` finds them
and the change feed retracts them.
"""

from __future__ import annotations

import bisect
from typing import Iterable

from ..constraints.dc import DenialConstraint
from ..violations.minimal import MinimalViolation


class WitnessStore:
    """One DC's live witness set with a maintained sorted view.

    Index assembly used to re-sort every store with ``key=sorted`` on every
    call — recomputing each witness's sort key from scratch even when
    nothing changed since the last assembly.  The store computes the key
    (the sorted fact-id tuple) once per witness and keeps a ``(key,
    violation)`` list *incrementally sorted* under adds and discards
    (bisect insert/delete — O(delta) maintained order instead of an
    O(n log n) re-sort per assembly).  Keys are unique per store (a key
    reconstructs its witness), so bisection never has to compare the
    violations.
    """

    __slots__ = ("dc", "_violations", "_keys", "_pairs", "_ordered")

    def __init__(self, dc: DenialConstraint) -> None:
        self.dc = dc
        self._violations: dict[frozenset[int], MinimalViolation] = {}
        self._keys: dict[frozenset[int], tuple[int, ...]] = {}
        self._pairs: list[tuple[tuple[int, ...], MinimalViolation]] = []
        self._ordered: list[MinimalViolation] | None = []

    def __contains__(self, witness: frozenset[int]) -> bool:
        return witness in self._violations

    def __len__(self) -> int:
        return len(self._violations)

    def __iter__(self):
        return iter(self._violations)

    def add(self, witness: frozenset[int]) -> bool:
        """Store *witness*; False when it was already present."""
        if witness in self._violations:
            return False
        violation = MinimalViolation(witness, self.dc)
        self._violations[witness] = violation
        key = tuple(sorted(witness))
        self._keys[witness] = key
        bisect.insort(self._pairs, (key, violation))
        self._ordered = None
        return True

    def discard(self, witness: frozenset[int]) -> bool:
        """Drop *witness*; False when it was not present."""
        if self._violations.pop(witness, None) is None:
            return False
        key = self._keys.pop(witness)
        # (key,) sorts immediately before (key, violation).
        position = bisect.bisect_left(self._pairs, (key,))
        del self._pairs[position]
        self._ordered = None
        return True

    def ordered(self) -> list[MinimalViolation]:
        """Violations sorted by witness fact ids (cached between changes)."""
        if self._ordered is None:
            self._ordered = [violation for _, violation in self._pairs]
        return self._ordered

    def capture(self) -> list[tuple[int, ...]]:
        """The maintained sorted key view, as plain data (snapshot payload)."""
        return [key for key, _ in self._pairs]

    @classmethod
    def restore(
        cls, dc: DenialConstraint, keys: Iterable[tuple[int, ...]]
    ) -> "WitnessStore":
        """Rebuild a store from a :meth:`capture` payload — O(witnesses).

        *keys* must already be in sorted key order (capture emits them that
        way), so the pair list is filled by append instead of bisect and no
        witness enumeration runs at all — the warm-start restore path.
        """
        store = cls(dc)
        for key in keys:
            key = tuple(key)
            witness = frozenset(key)
            violation = MinimalViolation(witness, dc)
            store._violations[witness] = violation
            store._keys[witness] = key
            store._pairs.append((key, violation))
        store._ordered = None
        return store
