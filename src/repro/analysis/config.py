"""This codebase's contract manifest: the default rule configuration.

Every invariant the lint pack enforces is *configured* here rather than
hard-coded in the rules, so the rule implementations stay generic and this
file reads as the codebase's own contract sheet.  Each entry names the
module(s) a contract designates and why; changing a contract is a visible
one-line diff here, reviewed like the code change that motivates it.
"""

from __future__ import annotations

# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------

#: Modules on the bit-identity-critical path: everything that feeds the
#: maintained index, the float-summation order of component parts, or the
#: fixed-order component assembly.  Unordered-set iteration feeding emission,
#: accumulation or keyed min/max tie-breaks is flagged here.
BIT_CRITICAL_MODULES = frozenset(
    {
        "repro.violations.minimal",
        "repro.violations.topology",
        "repro.measures.base",
        "repro.session.session",
        "repro.session.witnesses",
        "repro.session.enumeration",
        "repro.session.columnar",
        "repro.session.vectorized",
        "repro.session.snapshot",
        "repro.session.ingest",
    }
)

#: Modules allowed to read the wall clock.  The anytime solver runtime *is*
#: the budget clock, the experiment drivers time sweeps by design, and the
#: ingest pipeline maintains flush-latency percentiles as a feature; wall
#: clock reads anywhere else in ``src/`` threaten reproducibility.
CLOCK_MODULES = frozenset(
    {
        "repro.solvers.anytime",
        "repro.experiments.timing",
        "repro.experiments.scalability",
        "repro.session.ingest",
    }
)

# ----------------------------------------------------------------------
# import hygiene (optional dependencies)
# ----------------------------------------------------------------------

#: Optional dependency roots -> which modules may import them, and how.
#: ``eager`` modules may import the dependency at module top (they are the
#: dependency's designated home and are themselves only ever imported
#: lazily); ``lazy`` modules may import it inside a function.  Everything
#: else in ``src/`` must not touch the dependency at all — the pure-python
#: fallback leg (the list column backend) imports every non-extra module
#: on a bare interpreter.  Empty sets forbid a root everywhere.
OPTIONAL_DEPENDENCIES: dict[str, dict[str, frozenset[str]]] = {
    "numpy": {
        "eager": frozenset({"repro.session.vectorized"}),
        # backend availability probe
        "lazy": frozenset({"repro.session.columnar"}),
    },
    # ortools is not a dependency at all: every hard measure
    # solves in pure python, so any import of it in src/ is a finding.
    "ortools": {
        "eager": frozenset(),
        "lazy": frozenset(),
    },
    # scipy is a cross-check oracle for the solver tests only; no src
    # module may touch it, and tests take it via pytest.importorskip.
    "scipy": {
        "eager": frozenset(),
        "lazy": frozenset(),
    },
}

# ----------------------------------------------------------------------
# preview purity
# ----------------------------------------------------------------------

#: Entry points of the read-only speculation preview: everything reachable
#: from these must not assign to live-topology / witness-store / assembled-
#: index state.
PREVIEW_ROOTS = (
    "repro.violations.topology:ComponentTopology.preview",
    "repro.violations.topology:ComponentTopology.preview_deletion",
    "repro.session.session:MeasurementSession.speculate",
    "repro.session.session:MeasurementSession.speculate_batch",
    "repro.session.session:MeasurementSession._preview_region",
)

#: Documented mutation barriers the traversal does not descend into — each
#: runs *before* (or outside) the per-candidate preview loop and owns its
#: own correctness story:
#:
#: * ``_flush`` — the one committed flush of a batch; it runs before any
#:   candidate is applied.
#: * ``_whole_database_values`` — ``measure.value(Σ, D)`` for the measures
#:   that do not localize (``I_R_upd``), read off the patched database
#:   with no index.  The name-based call graph cannot tell which ``value``
#:   runs and follows ``DrasticMeasure.value → index.is_consistent`` into
#:   ``MeasurementSession.is_consistent → _flush``; without an index no
#:   such call happens, so the scan stops here.
#: * ``savepoint`` — the rollback journal on the *database*; database
#:   mutation under a savepoint is the speculation mechanism itself.
#:
#: Every entry here and in ``PREVIEW_ROOTS`` must name a function in
#: ``src/``; the rule reports stale ones.
PREVIEW_STOP_EDGES = frozenset(
    {
        "repro.session.session:MeasurementSession._flush",
        "repro.session.session:MeasurementSession.savepoint",
        "repro.session.session:_whole_database_values",
        # Idempotent memo-fill read accessors: each fills a content-derived
        # view from maintained state on first read (``self._x = <derived>``
        # guarded by ``if self._x is None``) and is legitimately read by the
        # preview when a batch reads its base values.  The fill recomputes the same
        # value from the same content, so it is not a purity violation —
        # but it *is* an assignment to a protected attribute, so the scan
        # must not descend into these.
        "repro.violations.topology:ComponentTopology.components",
        "repro.violations.topology:ComponentTopology.component_indexes",
        "repro.violations.topology:ComponentTopology.assemble_mi_pairs",
        "repro.violations.topology:ComponentTopology.assemble_mi",
        "repro.session.witnesses:WitnessStore.ordered",
    }
)

#: Attribute names that constitute live derived state: the topology's
#: maintained structures, the session's witness stores and assembled-index
#: cache, and the handle to the topology itself.  An assignment (or
#: deletion) of one of these, or an item store into one
#: (``self._tags[w] = ...``, ``del self._binding[f]``), in
#: preview-reachable code is a purity violation.  (``_dirty`` is
#: deliberately absent: dropping a batch's own balanced marks after the
#: last rollback is part of the batch contract, not derived state.)
PREVIEW_PROTECTED_ATTRS = frozenset(
    {
        # ComponentTopology maintained state
        "_tags",
        "_binding",
        "_minimal",
        "_components",
        "_component_of",
        "_ordered",
        "_mi_pairs",
        "_mi_cache",
        "_indexes",
        "generation",
        # MeasurementSession derived state
        "_witnesses",
        "_cached",
        "topology",
    }
)

#: Method names never followed when resolving ``obj.name(...)`` calls with
#: an unknown receiver — they collide with the builtin collection API and
#: would wire the graph to every ``set.add`` / ``dict.get`` call site.
#: (Resolution through ``self.`` and through module aliases is exact and
#: unaffected by this list.)
PREVIEW_SKIP_METHODS = frozenset(
    {
        "add",
        "append",
        "clear",
        "copy",
        "discard",
        "extend",
        "get",
        "insert",
        "items",
        "join",
        "keys",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "sort",
        "update",
        "values",
        # Names that collide with Database / list methods the speculation
        # path legitimately calls on the *database* (mutating the database
        # under a savepoint is the speculation mechanism itself; ``.index``
        # is ``list.index``).  Without these, ``db.delete(...)`` wires the
        # graph to ``IngestPipeline.delete`` and ``db.restore(...)`` to the
        # topology/witness warm-restore paths.  ``self.``- and alias-
        # resolved calls to same-named methods remain exact.
        "index",
        "delete",
        "restore",
    }
)

# ----------------------------------------------------------------------
# fault-point registry
# ----------------------------------------------------------------------

#: Where the registry lives (the module that must define
#: ``REGISTERED_POINTS``) and where drills must reference each point.
FAULTS_REGISTRY_MODULE = "repro.testing.faults"

# ----------------------------------------------------------------------
# componentwise read-set discipline
# ----------------------------------------------------------------------

#: The base class whose subclasses' component hooks are checked.
COMPONENTWISE_BASE = "ComponentwiseMeasure"

#: The hooks checked, all with the contract signature
#: ``(self, constraints, database, component, ...)``: the exact part, and
#: the budgeted solve and its bounds that ``solve_component`` calls in its
#: place (``bounded_value``'s exact float is cached like the part).
COMPONENT_ENTRIES = frozenset(
    {"component_value", "bounded_value", "component_bounds"}
)

#: Attributes of the component (``ViolationIndex``) parameter a component
#: hook may read: the MI family and views derived from it.  Anything else
#: (``per_constraint``, the raw stores) breaks the locality contract behind
#: ``component_cache_key``.
COMPONENT_ACCESSORS = frozenset(
    {
        "mi_sets",
        "problematic",
        "self_inconsistent",
        "components",
    }
)

#: Helpers the database/component parameters may be handed to whole — the
#: audited accessor functions that themselves honour the read-set contract
#: (fact lookups by problematic member id only).
COMPONENT_HELPERS = frozenset(
    {
        "solve_component",  # anytime entry (wraps the exact lambda)
        "component_hitting_set",  # vertex-cover/B&B hitting set
        "component_lp_relaxation",  # LP lower bound
        "component_cache_key",  # the content key itself
        "deletion_costs",  # fact costs, given the problematic ids
    }
)

#: The package prefix the src realm is recognized by.
PACKAGE_ROOT = "repro"
