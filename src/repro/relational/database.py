"""Databases as mappings from record identifiers to facts.

The paper (Section 2) defines a database ``D`` over a schema ``S`` as a
mapping from a finite set ``ids(D)`` of record identifiers to facts.  The
identifier indirection matters: two identifiers may map to *equal* facts
(duplicates), and the subset relation compares ``D[i]`` per identifier.
Repair operations (deletion, insertion, attribute update) are defined on
identifiers, not on fact values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .schema import RelationSignature, Schema, SchemaError
from .values import ActiveDomain, Value


@dataclass(frozen=True)
class ChangeEvent:
    """One committed mutation of a database.

    ``action`` is ``"insert"``, ``"delete"`` or ``"update"``; ``old`` is the
    pre-image fact (None for inserts), ``new`` the post-image (None for
    deletes).  Subscribers (e.g. a measurement session maintaining a live
    violation index) receive events *after* the database state has changed.
    """

    action: str
    identifier: int
    old: "Fact | None"
    new: "Fact | None"


ChangeListener = Callable[[ChangeEvent], None]


class Savepoint:
    """A rollback journal over the change feed.

    Created by :meth:`Database.savepoint`, the journal records every
    :class:`ChangeEvent` committed while it is active.  :meth:`rollback`
    replays the *inverse* of each event, newest first, through the ordinary
    mutation primitives — so subscribers (e.g. a measurement session) observe
    the undo as a regular stream of deltas and restore their own state — and
    finally reinstates the identifier allocator, leaving the database
    bit-identical to its state at the savepoint.

    Used as a context manager the savepoint rolls back on exit (the
    speculative-evaluation semantics); call :meth:`release` inside the block
    to keep the changes instead.  Savepoints nest: an inner rollback is
    journaled by the outer savepoint as ordinary events, and undoing an undo
    is a no-op by composition.
    """

    def __init__(self, database: "Database") -> None:
        self._database = database
        self._events: list[ChangeEvent] = []
        self._saved_next_id = database._next_id
        self._active = True
        database.subscribe(self._record)

    def _record(self, event: ChangeEvent) -> None:
        self._events.append(event)

    @property
    def active(self) -> bool:
        """Whether the journal is still recording (not released/rolled back)."""
        return self._active

    @property
    def events(self) -> tuple[ChangeEvent, ...]:
        """The journaled events, oldest first (read-only view)."""
        return tuple(self._events)

    def release(self) -> None:
        """Stop journaling and keep all changes (idempotent)."""
        if self._active:
            self._database.unsubscribe(self._record)
            self._active = False
            self._events.clear()

    def rollback(self) -> None:
        """Undo every journaled event, newest first."""
        if not self._active:
            raise RuntimeError("savepoint already released or rolled back")
        self._database.unsubscribe(self._record)
        self._active = False
        database = self._database
        for event in reversed(self._events):
            if event.action == "insert":
                database.delete(event.identifier)
            elif event.action == "delete":
                database.restore(event.identifier, event.old)
            else:  # update
                database.replace(event.identifier, event.old)
        database._next_id = self._saved_next_id
        self._events.clear()

    def __enter__(self) -> "Savepoint":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._active:
            self.rollback()


@dataclass(frozen=True)
class Fact:
    """An expression ``R(c1, ..., ck)`` over the schema.

    Facts are immutable and hashable so they can appear in sets (minimal
    inconsistent subsets, repairs) directly.
    """

    relation: str
    values: tuple[Value, ...]

    def __getitem__(self, index: int) -> Value:
        return self.values[index]

    @property
    def arity(self) -> int:
        """Number of values carried by this fact."""
        return len(self.values)

    def get(self, signature: RelationSignature, attribute: str) -> Value:
        """Value of *attribute* according to *signature* (``f.A`` notation)."""
        return self.values[signature.index_of(attribute)]

    def with_value(
        self, signature: RelationSignature, attribute: str, value: Value
    ) -> "Fact":
        """A copy of this fact with *attribute* set to *value*."""
        index = signature.index_of(attribute)
        values = list(self.values)
        values[index] = value
        return Fact(self.relation, tuple(values))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(repr(value) for value in self.values)
        return f"{self.relation}({inner})"


class Database:
    """A finite map ``ids(D) -> facts`` over a fixed schema.

    Facts sit in a list indexed by identifier (``None`` marks a free one):
    identifiers are allocated minimal-free, so the list stays dense, and a
    copy costs one pointer per identifier.  Mutations (used by repair
    operations and noise generators) keep a running active-domain index for
    every column whose domain has been read, so the noise models and the
    cleaner can sample values without rescanning the data; columns nobody
    samples cost nothing per mutation or copy.
    """

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        #: Fact per identifier, ``None`` where free; never ends in ``None``.
        self._facts: list[Fact | None] = []
        self._size = 0
        self._next_id = 0
        self._domains: dict[tuple[str, str], ActiveDomain] = {}
        self._listeners: list[ChangeListener] = []

    # ------------------------------------------------------------------
    # Change notification
    # ------------------------------------------------------------------
    def subscribe(self, listener: ChangeListener) -> None:
        """Register *listener* to be called after every committed mutation.

        Listeners are not copied by :meth:`copy`/:meth:`subset`; a derived
        database starts with no subscribers.
        """
        self._listeners.append(listener)

    def unsubscribe(self, listener: ChangeListener) -> None:
        """Remove *listener*; missing listeners are ignored."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _notify(
        self, action: str, identifier: int, old: Fact | None, new: Fact | None
    ) -> None:
        if not self._listeners:
            return
        event = ChangeEvent(action, identifier, old, new)
        for listener in list(self._listeners):
            listener(event)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_facts(cls, schema: Schema, facts: Iterable[Fact]) -> "Database":
        """Build a database assigning fresh consecutive identifiers."""
        database = cls(schema)
        for fact in facts:
            database.insert(fact)
        return database

    @classmethod
    def from_rows(
        cls, schema: Schema, relation: str, rows: Iterable[Sequence[Value]]
    ) -> "Database":
        """Build a single-relation database from raw value rows."""
        signature = schema.signature(relation)
        database = cls(schema)
        for row in rows:
            if len(row) != signature.arity:
                raise SchemaError(
                    f"row of width {len(row)} does not match arity "
                    f"{signature.arity} of {relation!r}"
                )
            database.insert(Fact(relation, tuple(row)))
        return database

    # ------------------------------------------------------------------
    # Core mapping protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __contains__(self, identifier: int) -> bool:
        facts = self._facts
        return 0 <= identifier < len(facts) and facts[identifier] is not None

    def __getitem__(self, identifier: int) -> Fact:
        """``D[i]`` — the fact mapped to identifier *i*."""
        facts = self._facts
        if 0 <= identifier < len(facts):
            fact = facts[identifier]
            if fact is not None:
                return fact
        raise KeyError(identifier)

    def get(self, identifier: int) -> Fact | None:
        """The fact mapped to *identifier*, or ``None`` when absent.

        One lookup where ``in`` + ``[]`` would cost two — the delta
        enumeration paths group large dirty batches through this.
        """
        facts = self._facts
        return facts[identifier] if 0 <= identifier < len(facts) else None

    def ids(self) -> list[int]:
        """``ids(D)`` in ascending order (deterministic iteration)."""
        return [i for i, fact in enumerate(self._facts) if fact is not None]

    def items(self) -> Iterator[tuple[int, Fact]]:
        """(identifier, fact) pairs in ascending identifier order."""
        for identifier, fact in enumerate(self._facts):
            if fact is not None:
                yield identifier, fact

    def facts(self) -> list[Fact]:
        """All facts in ascending identifier order."""
        return [fact for fact in self._facts if fact is not None]

    def relation_ids(self, relation: str) -> list[int]:
        """Identifiers of facts belonging to *relation*."""
        return [
            identifier
            for identifier, fact in enumerate(self._facts)
            if fact is not None and fact.relation == relation
        ]

    # ------------------------------------------------------------------
    # Mutations (repairing operations use these primitives)
    # ------------------------------------------------------------------
    def insert(self, fact: Fact) -> int:
        """Insert *fact* under the minimal free identifier; return it.

        Mirrors the paper's tuple-insertion convention: the new identifier is
        the minimal integer not in ``ids(D)``.
        """
        signature = self.schema.signature(fact.relation)
        if fact.arity != signature.arity:
            raise SchemaError(
                f"fact arity {fact.arity} does not match signature arity "
                f"{signature.arity} of {fact.relation!r}"
            )
        identifier = self._allocate_id()
        self._put(identifier, fact)
        self._index_fact(fact, +1)
        self._notify("insert", identifier, None, fact)
        return identifier

    def delete(self, identifier: int) -> bool:
        """Delete the fact with *identifier*; return False if absent.

        Per the paper's convention, an inapplicable operation leaves the
        database intact (hence the boolean rather than an exception).
        """
        fact = self.get(identifier)
        if fact is None:
            return False
        facts = self._facts
        facts[identifier] = None
        while facts and facts[-1] is None:
            facts.pop()
        self._size -= 1
        self._index_fact(fact, -1)
        if identifier < self._next_id:
            self._next_id = min(self._next_id, identifier)
        self._notify("delete", identifier, fact, None)
        return True

    def update(self, identifier: int, attribute: str, value: Value) -> bool:
        """Set ``D[i].A = value``; return False when inapplicable."""
        fact = self.get(identifier)
        if fact is None:
            return False
        signature = self.schema.signature(fact.relation)
        if not signature.has_attribute(attribute):
            return False
        old_value = fact.get(signature, attribute)
        if old_value == value:
            return True
        new_fact = fact.with_value(signature, attribute, value)
        self._facts[identifier] = new_fact
        domain = self._domains.get((fact.relation, attribute))
        if domain is not None:
            domain.discard(old_value)
            domain.add(value)
        self._notify("update", identifier, fact, new_fact)
        return True

    def restore(self, identifier: int, fact: Fact) -> bool:
        """Insert *fact* under the specific free *identifier*.

        The savepoint rollback primitive (undoing a deletion must reinstate
        the original identifier, not the minimal free one); also the building
        block for replaying a known ``id → fact`` mapping, e.g. streaming a
        permutation of an existing database into a shadow session.  Returns
        False when *identifier* is already taken.
        """
        if identifier in self:
            return False
        signature = self.schema.signature(fact.relation)
        if fact.arity != signature.arity:
            raise SchemaError(
                f"fact arity {fact.arity} does not match signature arity "
                f"{signature.arity} of {fact.relation!r}"
            )
        self._put(identifier, fact)
        self._index_fact(fact, +1)
        self._notify("insert", identifier, None, fact)
        return True

    def replace(self, identifier: int, fact: Fact) -> bool:
        """Swap the whole fact stored under *identifier* for *fact*.

        A multi-attribute update in one committed event — the inverse of an
        update event, whose pre-image is a whole fact.  The relation must not
        change.  Returns False when *identifier* is absent.
        """
        old = self.get(identifier)
        if old is None:
            return False
        if fact.relation != old.relation or fact.arity != old.arity:
            raise SchemaError(
                f"replacement fact {fact!r} does not match the shape of "
                f"{old!r} under identifier {identifier}"
            )
        if old == fact:
            return True
        self._index_fact(old, -1)
        self._facts[identifier] = fact
        self._index_fact(fact, +1)
        self._notify("update", identifier, old, fact)
        return True

    def savepoint(self) -> Savepoint:
        """Open a rollback journal over subsequent mutations."""
        return Savepoint(self)

    def peek_next_id(self) -> int:
        """The identifier the next :meth:`insert` would allocate (no change)."""
        identifier = self._next_id
        while identifier in self:
            identifier += 1
        return identifier

    def get_cell(self, identifier: int, attribute: str) -> Value:
        """Value of ``D[i].A``."""
        fact = self[identifier]
        signature = self.schema.signature(fact.relation)
        return fact.get(signature, attribute)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def subset(self, identifiers: Iterable[int]) -> "Database":
        """The sub-database induced by *identifiers* (same ids, same facts)."""
        wanted = set(identifiers)
        missing = {identifier for identifier in wanted if identifier not in self}
        if missing:
            raise KeyError(f"identifiers not in database: {sorted(missing)}")
        result = Database(self.schema)
        for identifier in sorted(wanted):
            result._put(identifier, self._facts[identifier])
        result._next_id = 0
        return result

    def without(self, identifiers: Iterable[int]) -> "Database":
        """The sub-database obtained by removing *identifiers*."""
        removed = set(identifiers)
        return self.subset(set(self.ids()) - removed)

    def copy(self) -> "Database":
        """An independent deep-enough copy (facts are immutable).

        Active domains are copy-on-write: each column's counts are shared
        with this database until either side first changes that column.
        """
        result = Database(self.schema)
        result._facts = list(self._facts)
        result._size = self._size
        result._next_id = self._next_id
        for key, domain in self._domains.items():
            result._domains[key] = domain.share()
        return result

    def is_subset_of(self, other: "Database") -> bool:
        """``D ⊆ D'`` as defined in the paper (id-wise fact equality)."""
        for identifier, fact in self.items():
            if identifier not in other or other[identifier] != fact:
                return False
        return True

    def active_domain(self, relation: str, attribute: str) -> ActiveDomain:
        """Active domain of one column (live view, kept up to date).

        Built from the column's values in identifier order on the first
        request, then maintained under every mutation.
        """
        key = (relation, attribute)
        domain = self._domains.get(key)
        if domain is None:
            domain = ActiveDomain(self.column(relation, attribute))
            self._domains[key] = domain
        return domain

    def column(self, relation: str, attribute: str) -> list[Value]:
        """All values of one column, in identifier order."""
        signature = self.schema.signature(relation)
        index = signature.index_of(attribute)
        return [
            fact.values[index]
            for _, fact in self.items()
            if fact.relation == relation
        ]

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self._facts == other._facts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Database({self._size} facts over {self.schema.relation_names()})"

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _allocate_id(self) -> int:
        identifier = self.peek_next_id()
        self._next_id = identifier + 1
        return identifier

    def _put(self, identifier: int, fact: Fact) -> None:
        """Store *fact* under the free *identifier*."""
        if identifier < 0:
            raise ValueError(f"negative identifier {identifier}")
        facts = self._facts
        if identifier >= len(facts):
            facts.extend([None] * (identifier + 1 - len(facts)))
        facts[identifier] = fact
        self._size += 1

    def _index_fact(self, fact: Fact, sign: int) -> None:
        """Account *fact* in the active domains read so far."""
        if not self._domains:
            return
        signature = self.schema.signature(fact.relation)
        for attribute, value in zip(signature.attributes, fact.values):
            domain = self._domains.get((fact.relation, attribute))
            if domain is None:
                continue
            if sign > 0:
                domain.add(value)
            else:
                domain.discard(value)
