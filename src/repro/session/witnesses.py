"""Maintained witness state: per-DC witness stores and the probe's equality index.

:class:`WitnessStore` keeps one DC's live witness set in fact-id order.
:class:`EqualityColumnIndex` maps the values of equality-predicate columns
to fact identifiers; the compiled probe plans of
:mod:`repro.session.enumeration` hash-probe it instead of scanning a
relation, and the owning shard maintains it under the change feed.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Sequence

from ..constraints.base import ComparisonOp
from ..constraints.dc import DenialConstraint
from ..relational.database import ChangeEvent, Database, Fact
from ..relational.schema import Schema
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


def equality_columns(dcs: Sequence[DenialConstraint]) -> set[tuple[str, str]]:
    """The ``(relation, attribute)`` columns usable as hash-lookup keys.

    A column qualifies when it appears on either side of an equality
    predicate of some DC — those are the columns a probe plan may probe.
    """
    columns: set[tuple[str, str]] = set()
    for dc in dcs:
        for predicate in dc.predicates:
            if predicate.op is not ComparisonOp.EQ:
                continue
            for term in (predicate.left, predicate.right):
                if not term.is_constant:
                    columns.add((dc.relation_of(term.variable), term.attribute))
    return columns


class EqualityColumnIndex:
    """Hash indexes ``value → fact ids`` for equality-join columns.

    Built by :func:`~repro.session.enumeration.build_enumerators` for the
    probe-served DCs' equality columns and maintained by its owner under
    :class:`~repro.relational.database.ChangeEvent` deltas, so every probe
    reads current state without rescanning relations.
    """

    def __init__(self, schema: Schema, columns: Iterable[tuple[str, str]]) -> None:
        self.schema = schema
        self._maps: dict[tuple[str, str], dict[object, set[int]]] = {
            column: {} for column in columns
        }
        # Per relation: [(attribute, positional index)] of indexed columns.
        self._by_relation: dict[str, list[tuple[str, int]]] = {}
        for relation, attribute in self._maps:
            signature = schema.signature(relation)
            self._by_relation.setdefault(relation, []).append(
                (attribute, signature.index_of(attribute))
            )

    def build(self, database: Database) -> None:
        for identifier, fact in database.items():
            self._account(identifier, fact, +1)

    def apply(self, event: ChangeEvent) -> None:
        """Maintain the indexes after one committed database mutation."""
        if event.old is not None:
            self._account(event.identifier, event.old, -1)
        if event.new is not None:
            self._account(event.identifier, event.new, +1)

    def buckets(self, relation: str, attribute: str) -> dict[object, set[int]]:
        """The live ``value → fact ids`` map of one covered column."""
        return self._maps[(relation, attribute)]

    def _account(self, identifier: int, fact: Fact, sign: int) -> None:
        for attribute, position in self._by_relation.get(fact.relation, ()):
            buckets = self._maps[(fact.relation, attribute)]
            value = fact.values[position]
            if sign > 0:
                buckets.setdefault(value, set()).add(identifier)
            else:
                bucket = buckets.get(value)
                if bucket is not None:
                    bucket.discard(identifier)
                    if not bucket:
                        del buckets[value]
