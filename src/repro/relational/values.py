"""Value domain utilities for the relational substrate.

The paper treats attribute values as opaque constants drawn from a countably
infinite domain ``Val``.  In practice the datasets mix strings, integers and
floats, and denial constraints compare values with ``<``/``>`` as well as
equality.  This module centralizes value typing, ordering and the notion of
an *active domain* (the set of values appearing in a column), which the noise
generators and the HoloClean substitute both sample from.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

#: Types a cell may carry.  ``None`` encodes SQL NULL; comparisons against
#: NULL are always false, matching the semantics the paper's SQL queries
#: would exhibit.
Value = Any


def is_null(value: Value) -> bool:
    """Return True when *value* encodes a missing cell."""
    return value is None


def values_comparable(left: Value, right: Value) -> bool:
    """Return True when ``left < right`` is a meaningful comparison.

    Mixed numeric types (int/float) are comparable; a number and a string are
    not.  NULLs are never comparable.
    """
    if is_null(left) or is_null(right):
        return False
    left_numeric = isinstance(left, (int, float)) and not isinstance(left, bool)
    right_numeric = isinstance(right, (int, float)) and not isinstance(right, bool)
    if left_numeric and right_numeric:
        return True
    return type(left) is type(right)


def coerce_value(text: str) -> Value:
    """Parse a CSV cell into the narrowest natural Python type.

    Empty strings become NULL.  Integer-looking strings become ``int``,
    float-looking ones become ``float``; everything else stays ``str``.
    """
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def render_value(value: Value) -> str:
    """Inverse of :func:`coerce_value` for CSV output."""
    if value is None:
        return ""
    return str(value)


class ActiveDomain:
    """Multiset of values observed in one column of a database.

    Supports frequency-ranked access, which the Zipf-skewed RNoise generator
    and the cleaner's candidate generation both rely on.
    """

    def __init__(self, values: Iterable[Value] = ()) -> None:
        self._counts: dict[Value, int] = {}
        #: Whether ``_counts`` may also back another domain (see :meth:`share`).
        self._shared = False
        for value in values:
            self.add(value)

    def share(self) -> "ActiveDomain":
        """A copy that shares this domain's counts until either side changes.

        Whichever side mutates first clones the counts (``dict.copy``
        keeps insertion order), so a database copy costs nothing per column
        it never writes, and both sides keep their iteration order.
        """
        clone = ActiveDomain()
        clone._counts = self._counts
        clone._shared = self._shared = True
        return clone

    def _unshare(self) -> None:
        self._counts = self._counts.copy()
        self._shared = False

    def add(self, value: Value) -> None:
        """Record one occurrence of *value* (NULLs are ignored)."""
        if not is_null(value):
            if self._shared:
                self._unshare()
            counts = self._counts
            counts[value] = counts.get(value, 0) + 1

    def discard(self, value: Value) -> None:
        """Remove one occurrence of *value* if present."""
        if is_null(value):
            return
        count = self._counts.get(value, 0)
        if not count:
            return
        if self._shared:
            self._unshare()
        if count == 1:
            del self._counts[value]
        else:
            self._counts[value] = count - 1

    def __contains__(self, value: Value) -> bool:
        return value in self._counts

    def __len__(self) -> int:
        return len(self._counts)

    def __iter__(self):
        return iter(self._counts)

    def values_by_frequency(self) -> list[Value]:
        """Distinct values, most frequent first (ties broken by repr)."""
        return [
            value
            for value, _ in sorted(
                self._counts.items(), key=lambda item: (-item[1], repr(item[0]))
            )
        ]

    def frequency(self, value: Value) -> int:
        """Number of occurrences of *value*."""
        return self._counts.get(value, 0)

    def total(self) -> int:
        """Total number of (non-null) cells observed."""
        return sum(self._counts.values())


def active_domain(values: Sequence[Value]) -> ActiveDomain:
    """Build the active domain of a column."""
    return ActiveDomain(values)
