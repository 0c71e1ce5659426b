"""Property-based tests (hypothesis) on core invariants.

These encode the paper's formal guarantees as executable laws over random
databases and constraint sets:

* a measure is zero iff the database is consistent (positivity + the zero
  requirement of Section 3);
* ``I_lin_R ≤ I_R ≤ width · I_lin_R`` (LP bound and integrality gap);
* ``I_R`` monotonicity under constraint strengthening (superset of FDs);
* deletion of any fact never increases ``I_MI`` / ``I_P`` / ``I_R`` for
  anti-monotonic constraints;
* the half-integral vertex-cover LP equals the exact covering LP on the
  same weighted instance;
* minimal inconsistent subsets really are minimal and inconsistent.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constraints import FunctionalDependency
from repro.measures import make_measure
from repro.relational import Database, Schema
from repro.repairs import minimum_subset_repair, repair_lp_relaxation
from repro.solvers.halfintegral import vertex_cover_lp
from repro.solvers.simplex import covering_lp
from repro.solvers.vertex_cover import greedy_hitting_set, minimum_hitting_set
from repro.violations import build_violation_index, is_consistent

SCHEMA = Schema.from_dict({"R": ["A", "B", "C"]})

rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
    ),
    min_size=0,
    max_size=9,
)

fd_strategy = st.sampled_from(
    [
        [FunctionalDependency("R", {"A"}, {"B"})],
        [FunctionalDependency("R", {"A"}, {"B", "C"})],
        [
            FunctionalDependency("R", {"A"}, {"B"}),
            FunctionalDependency("R", {"B"}, {"C"}),
        ],
    ]
)

common = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def build_db(rows) -> Database:
    return Database.from_rows(SCHEMA, "R", rows)


@common
@given(rows=rows_strategy, fds=fd_strategy)
def test_measures_zero_iff_consistent(rows, fds):
    db = build_db(rows)
    consistent = is_consistent(fds, db)
    for name in ("I_d", "I_MI", "I_P", "I_R", "I_lin_R"):
        value = make_measure(name).value(fds, db)
        if consistent:
            assert value == 0.0, name
        else:
            assert value > 0.0, name


@common
@given(rows=rows_strategy, fds=fd_strategy)
def test_lp_sandwich(rows, fds):
    db = build_db(rows)
    index = build_violation_index(fds, db)
    lp, _ = repair_lp_relaxation(fds, db, index=index)
    ilp = minimum_subset_repair(fds, db, index=index).cost
    width = max(index.max_width, 1)
    assert lp <= ilp + 1e-9
    assert ilp <= width * lp + 1e-9


@common
@given(rows=rows_strategy)
def test_ir_monotone_under_stricter_constraints(rows):
    db = build_db(rows)
    weaker = [FunctionalDependency("R", {"A"}, {"B"})]
    stronger = weaker + [FunctionalDependency("R", {"B"}, {"C"})]
    ir = make_measure("I_R")
    assert ir.value(weaker, db) <= ir.value(stronger, db) + 1e-9


@common
@given(rows=rows_strategy, fds=fd_strategy)
def test_deletion_never_increases_measures(rows, fds):
    db = build_db(rows)
    if not len(db):
        return
    index = build_violation_index(fds, db)
    values = {
        name: make_measure(name).value(fds, db, index)
        for name in ("I_MI", "I_P", "I_R")
    }
    victim = db.ids()[0]
    smaller = db.without([victim])
    for name, before in values.items():
        after = make_measure(name).value(fds, smaller)
        assert after <= before + 1e-9, name


@common
@given(rows=rows_strategy, fds=fd_strategy)
def test_mi_sets_are_minimal_and_inconsistent(rows, fds):
    db = build_db(rows)
    index = build_violation_index(fds, db)
    for group in index.mi_sets:
        sub = db.subset(group)
        assert not is_consistent(fds, sub)
        for fact_id in group:
            assert is_consistent(fds, sub.without([fact_id]))


@common
@given(
    edges=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=7),
        ).filter(lambda e: e[0] != e[1]),
        min_size=1,
        max_size=14,
    ),
    weights=st.lists(st.integers(min_value=0, max_value=9), min_size=8, max_size=8),
)
def test_halfintegral_matches_simplex(edges, weights):
    normalized = sorted({(min(u, v), max(u, v)) for u, v in edges})
    vertices = sorted({v for edge in normalized for v in edge})
    weight_of = {v: float(weights[v]) for v in vertices}
    value, x = vertex_cover_lp(vertices, normalized, weight_of)
    assert all(
        frac in (Fraction(0), Fraction(1, 2), Fraction(1)) for frac in x.values()
    )
    reference, _ = covering_lp(normalized, weight_of)
    assert value == reference


@common
@given(
    sets=st.lists(
        st.frozensets(st.integers(min_value=0, max_value=6), min_size=1, max_size=3),
        min_size=1,
        max_size=8,
    )
)
def test_hitting_set_invariants(sets):
    value, cover = minimum_hitting_set(sets)
    assert all(group & cover for group in sets)
    greedy = greedy_hitting_set(sets)
    assert value <= len(greedy) + 1e-9
    # Optimal cover weight equals its cardinality under unit weights.
    assert value == pytest.approx(float(len(cover)))


@common
@given(rows=rows_strategy, fds=fd_strategy)
def test_violation_index_idempotent(rows, fds):
    db = build_db(rows)
    first = build_violation_index(fds, db).mi_sets
    second = build_violation_index(fds, db).mi_sets
    assert first == second
