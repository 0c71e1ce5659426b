"""Warm-start snapshots: the live measurement state as a portable value.

The paper's experiments repeatedly measure inconsistency over the *same*
``(Σ, D)`` pair — noise sweeps, measure comparisons and repair trajectories
all restart from one identical base state, yet every fresh
:class:`~repro.session.session.MeasurementSession` pays the full
from-scratch witness enumeration, minimization and component split before
the first delta arrives.  A :class:`SessionSnapshot` captures everything
that cost produced — the per-constraint witness stores' sorted pair views,
the :class:`~repro.violations.topology.ComponentTopology` (witness tag
table, minimized MI family, generation) and the
content-addressed per-component measure values currently live — so a later
session over the same pair restores in time linear in the *state*, not in
the join work that derived it (the preprocess-once, maintain-under-updates
regime of dynamic query evaluation).

**Fingerprint rule.**  Restored state must be *bit-identical* to what a
cold build would compute, never merely plausible.  A snapshot therefore
embeds a :class:`DatabaseFingerprint` — the schema signature, a digest of
the exact ``id → fact`` mapping, and the identifier-allocator state (which
speculative inserts observe) — plus a canonical digest of the lowered
denial constraints.  ``warm_start=`` restoration verifies all of them
against the session's own ``(Σ, D)``; any mismatch (edited data, different
rules, a foreign or future snapshot format) silently falls back to the
ordinary cold build.  A warm start can be slower than hoped, but never a
wrong answer.

**On-disk format.**  :func:`save_snapshot` / :func:`load_snapshot` wrap the
pickled snapshot in a magic header, a SHA-256 payload digest and an
explicit format version; :func:`load_snapshot` raises
:class:`SnapshotError` on foreign bytes, a digest mismatch (truncation or
bit rot anywhere past the magic) or an unsupported version, and
restoration rejects version drift even when the unpickle itself succeeds.
:func:`save_snapshot` writes atomically (temp file + rename), so a crash
mid-write leaves the target absent or bit-identical to its previous
content — a half-written snapshot can never shadow a good one.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from ..constraints.dc import DenialConstraint
from ..relational.database import Database
from ..testing import faults

#: Fault-injection point: a crash mid-write inside :func:`save_snapshot`
#: (see :mod:`repro.testing.faults`).  Firing leaves a truncated prefix in
#: the *temporary* file only; the target path keeps its prior content.
FAULT_WRITE = "snapshot.write"

#: Bump on any change to the snapshot payload layout or framing.  Loading
#: rejects other versions outright — a stale format must fall back to a
#: cold build, never be reinterpreted.  (2 added the payload digest; 3
#: nested one payload per relation shard; 4 holds the session's one
#: maintained state directly; 5 reduces the topology to its tag table and
#: its flat MI family.)
SNAPSHOT_VERSION = 5

_MAGIC = b"REPRO-SNAPSHOT\n"

#: SHA-256 digest length — the digest sits between the magic and the
#: pickled payload, so truncation or bit rot anywhere past the magic is a
#: deterministic :class:`SnapshotError`, never a plausibly-unpickled
#: snapshot carrying a silently corrupted value.
_DIGEST_SIZE = hashlib.sha256().digest_size


class SnapshotError(ValueError):
    """Raised on foreign, corrupt or version-incompatible snapshot bytes."""


@dataclass(frozen=True)
class DatabaseFingerprint:
    """Everything the derived state depends on, as a comparable value.

    The witness family is a function of the exact ``id → fact`` mapping
    (identifiers appear in witnesses), the schema resolves attribute
    positions, and the allocator decides which identifier a speculative
    insert observes — so all three are part of the identity.
    """

    schema: tuple
    facts_digest: str
    fact_count: int
    next_id: int


def database_fingerprint(database: Database) -> DatabaseFingerprint:
    """Fingerprint the current database state (O(n) hash, no copy)."""
    schema_spec = tuple(
        (signature.name, signature.attributes)
        for signature in database.schema
    )
    digest = hashlib.sha256()
    for identifier, fact in database.items():
        digest.update(
            repr((identifier, fact.relation, fact.values)).encode("utf-8")
        )
        digest.update(b"\x00")
    return DatabaseFingerprint(
        schema=schema_spec,
        facts_digest=digest.hexdigest(),
        fact_count=len(database),
        next_id=database._next_id,
    )


def constraint_digest(dcs: Sequence[DenialConstraint]) -> tuple:
    """Canonical identity of a lowered DC list, order included.

    Witness stores and the topology's tag table are keyed by DC *position*,
    so the digest must pin the exact sequence, not just the set.
    """
    return tuple(
        (dc.name, dc.variables, tuple(str(p) for p in dc.predicates))
        for dc in dcs
    )


@dataclass
class SessionSnapshot:
    """The derived state of one session, behind its identity checks.

    ``stores`` holds, per lowered-DC position, the witness key tuples in
    the store's maintained sorted order; ``topology`` is the
    :meth:`~repro.violations.topology.ComponentTopology.capture` payload;
    ``cache`` carries ``(measure token, content key, value)`` triples: the
    values the components live at snapshot time carry themselves
    (``TopologyComponent.values``), adopted on restore by
    :meth:`~repro.measures.base.ComponentValueCache.absorb_warm`.
    """

    version: int
    fingerprint: DatabaseFingerprint
    constraints: tuple
    stores: list = field(default_factory=list)
    topology: dict = field(default_factory=dict)
    cache: list = field(default_factory=list)

    def verify(
        self, dcs: Sequence[DenialConstraint], database: Database
    ) -> DatabaseFingerprint | None:
        """The database's current fingerprint when restoring is bit-safe.

        Cheap identity checks run first, so rejecting a drifted or foreign
        snapshot costs O(constraints), not an O(n) hash.  Returns None on
        any mismatch.
        """
        if (
            self.version != SNAPSHOT_VERSION
            or self.constraints != constraint_digest(dcs)
            or len(self.stores) != len(self.constraints)
            or self.fingerprint.fact_count != len(database)
            or self.fingerprint.next_id != database._next_id
        ):
            return None
        current = database_fingerprint(database)
        return current if current == self.fingerprint else None

    def matches(
        self, dcs: Sequence[DenialConstraint], database: Database
    ) -> bool:
        """Whether restoring into a session over *dcs* and *database* is
        bit-safe."""
        return self.verify(dcs, database) is not None


#: The only classes a snapshot payload may reference.  Restricting the
#: unpickler to this table turns a hostile or foreign snapshot file into a
#: :class:`SnapshotError` (→ cold-build fallback) instead of the arbitrary
#: code execution a plain ``pickle.loads`` would hand it.  Databases whose
#: values are custom objects produce snapshots this loader rejects — that
#: degrades to a cold build, which is always safe.
_ALLOWED_CLASSES = {
    ("builtins", "frozenset"),
    ("builtins", "set"),
    ("repro.session.snapshot", "DatabaseFingerprint"),
    ("repro.session.snapshot", "SessionSnapshot"),
    ("repro.relational.database", "Fact"),
}


class _SnapshotUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str):
        if (module, name) not in _ALLOWED_CLASSES:
            raise SnapshotError(
                f"snapshot references disallowed type {module}.{name}"
            )
        return super().find_class(module, name)


def dump_snapshot(snapshot) -> bytes:
    """Serialize a snapshot (magic + payload digest + versioned pickle)."""
    payload = pickle.dumps(
        (SNAPSHOT_VERSION, snapshot), protocol=pickle.HIGHEST_PROTOCOL
    )
    return _MAGIC + hashlib.sha256(payload).digest() + payload


def load_snapshot_bytes(payload: bytes):
    """Deserialize snapshot bytes, rejecting foreign or drifted formats.

    The digest check rejects truncation and bit rot anywhere past the
    magic before anything is unpickled, and the unpickler is restricted to
    the snapshot's own data types, so bytes that merely carry the magic
    header cannot smuggle in executable payloads — they raise
    :class:`SnapshotError` like any other corrupt file, and every caller's
    fallback is the ordinary cold build.
    """
    if not payload.startswith(_MAGIC):
        raise SnapshotError("not a repro session snapshot")
    digest = payload[len(_MAGIC) : len(_MAGIC) + _DIGEST_SIZE]
    body = payload[len(_MAGIC) + _DIGEST_SIZE :]
    if hashlib.sha256(body).digest() != digest:
        raise SnapshotError(
            "snapshot payload digest mismatch (truncated or corrupt file)"
        )
    try:
        version, snapshot = _SnapshotUnpickler(io.BytesIO(body)).load()
    except SnapshotError:
        raise
    except Exception as error:
        raise SnapshotError(f"corrupt snapshot payload: {error}") from error
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot version {version} "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    return snapshot


def save_snapshot(snapshot, path) -> Path:
    """Atomically write a snapshot to *path*; returns the path.

    The payload goes to a sibling temporary file first and is renamed over
    the target only once fully written and flushed, so a crash at any point
    mid-write leaves *path* either absent or with its previous bit-identical
    content — a half-written snapshot can never shadow a good one.  (A
    truncated *temporary* file may survive a real crash; it fails the magic
    or unpickle check on load and falls back to a cold build.)
    """
    path = Path(path)
    payload = dump_snapshot(snapshot)
    temp = path.with_name(path.name + ".tmp")
    try:
        with open(temp, "wb") as handle:
            if faults.fires(FAULT_WRITE):
                handle.write(payload[: max(1, len(payload) // 2)])
                raise faults.active_plan().error_for(FAULT_WRITE)
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        try:
            temp.unlink()
        except OSError:
            pass
        raise
    return path


def load_snapshot(path):
    """Read a snapshot from *path* (raises :class:`SnapshotError`)."""
    return load_snapshot_bytes(Path(path).read_bytes())
