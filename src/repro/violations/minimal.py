"""Minimal inconsistent subsets (``MI_Σ(D)``) and per-constraint violations.

For a set Σ of anti-monotonic constraints, ``MI_Σ(D)`` is the family of
minimal subsets of ``D`` violating Σ (Section 3 of the paper).  Constraints
are lowered to denial constraints; a witness of a DC is a tuple-variable
assignment satisfying its body, and the family of witness fact-id sets,
minimized under ⊆, is exactly ``MI_Σ(D)``.

The one-shot entry points (:func:`build_violation_index`,
:func:`is_consistent`, :func:`find_first_violation`, :func:`violations_of`)
run one cold build of the measurement session's own enumerators
(:func:`repro.session.enumeration.cold_build`) over a throw-away column
store: every DC runs as its compiled batch join plans.  Their result is
therefore the session's ``index()`` list for list.
This module keeps only the definitions, the one-shot entry points and the
⊆-minimization (:func:`_minimize`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..constraints.base import Constraint
from ..constraints.dc import DenialConstraint
from ..relational.database import Database
from ..relational.schema import Schema


@dataclass
class MinimalViolation:
    """A minimal violation: the fact-id set and the constraint it violates.

    This is the ``(F, σ)`` notion discussed for update repairs in §5.3.
    """

    fact_ids: frozenset[int]
    constraint: DenialConstraint


def _connected_groups(
    groups: Sequence[frozenset[int]],
) -> list[tuple[set[int], list[frozenset[int]]]]:
    """Connected components of a set family, ordered by smallest member.

    Two groups are connected when they share a fact.  Returns ``(member
    facts, groups)`` pairs; within a component the groups keep their input
    order.  The single union-find behind :meth:`ViolationIndex.components`,
    the live topology's regional re-split and the speculative preview split
    — one implementation, one ordering contract.
    """
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for group in groups:
        anchor = None
        for fact in group:
            parent.setdefault(fact, fact)
            if anchor is None:
                anchor = fact
            else:
                ra, rb = find(anchor), find(fact)
                if ra != rb:
                    parent[rb] = ra
    members: dict[int, set[int]] = {}
    bucket: dict[int, list[frozenset[int]]] = {}
    for group in groups:
        root = find(next(iter(group)))
        bucket.setdefault(root, []).append(group)
    for fact in parent:
        members.setdefault(find(fact), set()).add(fact)
    return sorted(
        ((members[root], grouped) for root, grouped in bucket.items()),
        key=lambda piece: min(piece[0]),
    )


@dataclass
class ViolationIndex:
    """Everything the measures need, computed once per (Σ, D).

    * ``mi_sets`` — ``MI_Σ(D)`` as frozensets of fact identifiers;
    * ``per_constraint`` — all minimal violations, keyed by lowered DC;
    * ``problematic`` — ``∪ MI_Σ(D)``;
    * ``self_inconsistent`` — facts forming singleton MI sets (contradictory
      tuples in the sense of Parisi & Grant).
    """

    mi_sets: list[frozenset[int]] = field(default_factory=list)
    per_constraint: list[MinimalViolation] = field(default_factory=list)
    _components_cache: "tuple[tuple, list[ViolationIndex]] | None" = field(
        default=None, repr=False, compare=False
    )

    @property
    def problematic(self) -> set[int]:
        union: set[int] = set()
        for group in self.mi_sets:
            union |= group
        return union

    @property
    def self_inconsistent(self) -> set[int]:
        return {next(iter(group)) for group in self.mi_sets if len(group) == 1}

    @property
    def max_width(self) -> int:
        return max((len(group) for group in self.mi_sets), default=0)

    def is_consistent(self) -> bool:
        return not self.mi_sets

    def components(self) -> list["ViolationIndex"]:
        """Split into sub-indexes per connected component of ``MI_Σ(D)``.

        Two MI sets are connected when they share a fact; the conflict
        (hyper)graph decomposes along these components, and every measure
        built on the MI family alone decomposes with it (hitting sets and
        covering LPs split by additivity, MCS counts by multiplicativity).
        Components are ordered by their smallest fact identifier.  A raw
        per-constraint witness may span several components (its extra facts
        need not be problematic); it is attached to every component it
        intersects.

        The split is memoized: a batch of component-wise measures over one
        shared index pays for the union-find once.  The cache key tracks
        the identity and length of both backing lists, which covers how
        indexes are actually populated (list assignment and append).
        """
        key = (
            id(self.mi_sets),
            len(self.mi_sets),
            id(self.per_constraint),
            len(self.per_constraint),
        )
        if self._components_cache is not None and self._components_cache[0] == key:
            return self._components_cache[1]
        pieces = _connected_groups(self.mi_sets)
        component_of = {
            fact_id: position
            for position, (facts, _) in enumerate(pieces)
            for fact_id in facts
        }
        result = []
        for _, grouped in pieces:
            component = ViolationIndex()
            component.mi_sets = grouped
            result.append(component)
        for violation in self.per_constraint:
            touched = {
                component_of[fact_id]
                for fact_id in violation.fact_ids
                if fact_id in component_of
            }
            for position in touched:
                result[position].per_constraint.append(violation)
        self._components_cache = (key, result)
        return result

    def adopt_components(self, components: list["ViolationIndex"]) -> None:
        """Pre-seed the memoized component split with a maintained view.

        A live :class:`~repro.violations.topology.ComponentTopology` already
        holds the split this index would derive; adopting it makes
        :meth:`components` O(1) instead of an O(database) union-find.  The
        adopted list must be content-identical to what :meth:`components`
        would compute (the session-layer equivalence tests enforce this).
        """
        self._components_cache = (
            (
                id(self.mi_sets),
                len(self.mi_sets),
                id(self.per_constraint),
                len(self.per_constraint),
            ),
            list(components),
        )


def lower_constraints(
    constraints: Sequence[Constraint], schema: Schema
) -> list[DenialConstraint]:
    """Lower a mixed constraint set to denial constraints over *schema*.

    EGDs resolve positional variables to the actual attribute names of
    their relations.  Every lowered DC is checked against *schema* here,
    before any caller partitions or plans it: a relation or attribute the
    schema lacks raises :class:`~repro.relational.schema.SchemaError`.
    """
    from ..constraints.egd import EqualityGeneratingDependency
    from ..constraints.fd import FunctionalDependency

    lowered: list[DenialConstraint] = []
    for constraint in constraints:
        if isinstance(constraint, FunctionalDependency):
            lowered.extend(constraint.to_dcs())
        else:
            if isinstance(constraint, EqualityGeneratingDependency):
                constraint.bind_schema(schema)
            lowered.append(constraint.to_dc())
    for dc in lowered:
        signatures = {
            variable: schema.signature(relation)
            for variable, relation in dc.variables
        }
        for predicate in dc.predicates:
            for term in (predicate.left, predicate.right):
                if not term.is_constant:
                    signatures[term.variable].index_of(term.attribute)
    return lowered


def build_violation_index(
    constraints: Sequence[Constraint], database: Database
) -> ViolationIndex:
    """Compute ``MI_Σ(D)`` and the per-constraint violation list.

    ``per_constraint`` lists each lowered DC's witnesses sorted by fact
    ids — the order of the session's witness stores — so the result equals
    ``make_session(Σ, D).index()`` list for list.
    """
    # Lazy: repro.session imports this module.
    from ..session.enumeration import cold_build

    dcs = lower_constraints(constraints, database.schema)
    index = ViolationIndex()
    raw_sets: set[frozenset[int]] = set()
    for dc, family in zip(dcs, cold_build(dcs, database)[-1]):
        index.per_constraint.extend(
            MinimalViolation(witness, dc) for witness in _by_fact_ids(family)
        )
        raw_sets |= family
    index.mi_sets = _minimize(raw_sets)
    return index


def is_consistent(constraints: Sequence[Constraint], database: Database) -> bool:
    """``D ⊨ Σ`` — with early exit on the first witness."""
    return find_first_violation(constraints, database) is None


def find_first_violation(
    constraints: Sequence[Constraint], database: Database
) -> MinimalViolation | None:
    """The first witness found, or None when consistent (early exit).

    DCs are tried in lowered order.  Each runs its cold plan chunk by
    chunk and stops at the first chunk that yields a witness; the witness
    with the smallest sorted fact ids of that chunk is returned.
    """
    from ..session.enumeration import build_enumerators

    dcs = lower_constraints(constraints, database.schema)
    enumerators = build_enumerators(dcs, database)[0]
    for dc, enumerator in zip(dcs, enumerators):
        for chunk in enumerator.cold_chunks(database):
            if chunk:
                return MinimalViolation(min(chunk, key=sorted), dc)
    return None


def violations_of(dc: DenialConstraint, database: Database) -> list[frozenset[int]]:
    """Witnesses of a single DC (not minimized), sorted by fact ids."""
    from ..session.enumeration import cold_build

    dcs = lower_constraints([dc], database.schema)
    return _by_fact_ids(cold_build(dcs, database)[-1][0])


# Unused here: the perfbench layer tracer wraps ``minimal.conflict_rows``
# as its ``sqlengine.conflict_rows_s`` layer, so the name stays importable
# (nothing calls it, and that layer reads 0).
conflict_rows = violations_of


def _by_fact_ids(family: set[frozenset[int]]) -> list[frozenset[int]]:
    """*family* sorted by sorted fact ids (the witness-store order)."""
    keyed = sorted((tuple(sorted(witness)), witness) for witness in family)
    return [witness for _, witness in keyed]


def _minimize(sets: set[frozenset[int]]) -> list[frozenset[int]]:
    """⊆-minimal members of the family, deterministic order."""
    if not sets:
        return []
    widths = {len(group) for group in sets}
    if len(widths) == 1:
        # Equal-width families are antichains: no proper subset relation can
        # hold between distinct same-size sets, so the input is its own
        # minimization (the common all-binary-DC case lands here).
        return sorted(sets, key=lambda group: (len(group), sorted(group)))
    if widths == {1, 2}:
        # Singleton absorption: a pair is non-minimal exactly when it
        # contains a self-inconsistent fact.
        poisoned = {next(iter(group)) for group in sets if len(group) == 1}
        kept = [group for group in sets if len(group) == 1 or not group & poisoned]
        return sorted(kept, key=lambda group: (len(group), sorted(group)))
    ordered = sorted(sets, key=lambda group: (len(group), sorted(group)))
    kept = []
    for group in ordered:
        if not any(other <= group for other in kept):
            kept.append(group)
    return kept
