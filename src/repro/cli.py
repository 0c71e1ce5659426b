"""Command-line interface: measure the inconsistency of a CSV file.

Usage::

    python -m repro data.csv --relation R \\
        --fd "R: City -> Country" \\
        --dc "not(t.High < t.Low)" \\
        --measures I_d I_MI I_R I_lin_R

Constraints come from ``--fd`` / ``--dc`` flags or from a constraints file
(``--constraints rules.txt``) with one rule per line: ``fd: R: A -> B`` or
``dc: not(t.A > t.B)``; blank lines and ``#`` comments are ignored.

``--warm-start state.snap`` makes repeated runs over the same data cheap:
the first run builds the violation index from scratch and saves the live
measurement state to the file; later runs restore it (skipping the build)
whenever the data and constraints still match, and silently rebuild cold
when they do not.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .constraints import Constraint, parse_dc, parse_fd
from .measures import available_measures, make_measure
from .relational import Database, load_csv
from .solvers.anytime import as_budget, solver_scope, status_of, OPTIMAL
from .violations import build_violation_index


def format_measurement(
    name: str, value: float, budget: float | None = None
) -> str:
    """One report line: exact values plain, degraded ones as bounds.

    A degraded (non-OPTIMAL) solve prints the honest interval and its
    status — ``I_MC ∈ [13621, 2.82e+11]  (TIMEOUT after 2s)`` — instead of
    a point estimate that looks exact but is not.
    """
    status = status_of(value)
    if status == OPTIMAL:
        return f"{name} = {float(value)}"
    suffix = f" after {budget:g}s" if budget is not None else ""
    return (
        f"{name} ∈ [{value.lower:g}, {value.upper:g}]  "
        f"({status}{suffix}; best estimate {float(value):g})"
    )


def budget_seconds(text: str) -> float:
    """``--time-budget`` values: non-negative seconds (NaN is rejected)."""
    seconds = float(text)
    if not seconds >= 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative number of seconds, got {text!r}"
        )
    return seconds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Inconsistency measures for CSV data "
        "(Livshits et al., SIGMOD 2021).",
    )
    parser.add_argument("csv", type=Path, help="CSV file with a header row")
    parser.add_argument(
        "--relation", default="R", help="relation name (default: R)"
    )
    parser.add_argument(
        "--fd",
        action="append",
        default=[],
        metavar="FD",
        help='functional dependency, e.g. "R: City -> Country" (repeatable)',
    )
    parser.add_argument(
        "--dc",
        action="append",
        default=[],
        metavar="DC",
        help='denial constraint, e.g. "not(t.High < t.Low)" (repeatable)',
    )
    parser.add_argument(
        "--constraints",
        type=Path,
        help="file with one rule per line (fd: ... / dc: ...)",
    )
    parser.add_argument(
        "--measures",
        nargs="+",
        default=["I_d", "I_MI", "I_P", "I_R", "I_lin_R"],
        help=f"measures to compute; available: {', '.join(available_measures())}",
    )
    parser.add_argument(
        "--top-violations",
        type=int,
        default=0,
        metavar="K",
        help="also print the K facts with the highest I_MI Shapley blame",
    )
    parser.add_argument(
        "--time-budget",
        type=budget_seconds,
        default=None,
        metavar="SECONDS",
        help="solver budget per measure: hard measures (I_MC, I_R) degrade "
        "to honest [lower, upper] bounds with a TIMEOUT/FALLBACK status "
        "instead of stalling; omit for exact (unbudgeted) answers",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print the session's observability counters as JSON after "
        "measuring (vector backend, per-constraint enumeration backend "
        "and witness counters, streaming-ingest counters when a pipeline is "
        "attached)",
    )
    parser.add_argument(
        "--warm-start",
        type=Path,
        metavar="PATH",
        help="measurement-state snapshot file: restore the violation index "
        "from PATH when it still matches the data and constraints (cold "
        "build otherwise — never a wrong answer), and save the state back "
        "to PATH after measuring, so repeated runs over the same CSV skip "
        "the from-scratch build",
    )
    return parser


def load_constraints(args: argparse.Namespace) -> list[Constraint]:
    constraints: list[Constraint] = []
    for text in args.fd:
        constraints.append(parse_fd(text))
    for text in args.dc:
        constraints.append(parse_dc(text, args.relation))
    if args.constraints:
        for line_number, raw in enumerate(
            args.constraints.read_text(encoding="utf-8").splitlines(), start=1
        ):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            kind, _, body = line.partition(":")
            body = body.strip()
            if kind.strip().lower() == "fd":
                constraints.append(parse_fd(body))
            elif kind.strip().lower() == "dc":
                constraints.append(parse_dc(body, args.relation))
            else:
                raise SystemExit(
                    f"{args.constraints}:{line_number}: rules must start "
                    "with 'fd:' or 'dc:'"
                )
    if not constraints:
        raise SystemExit("no constraints given (use --fd/--dc/--constraints)")
    return constraints


def run(argv: Sequence[str] | None = None, out=sys.stdout) -> int:
    args = build_parser().parse_args(argv)
    constraints = load_constraints(args)
    database = load_csv(args.csv, args.relation)
    session = None
    if args.warm_start or args.stats:
        from .session import MeasurementSession
        from .session.snapshot import SnapshotError, load_snapshot

        snap = None
        if args.warm_start and args.warm_start.exists():
            try:
                snap = load_snapshot(args.warm_start)
            except (SnapshotError, OSError):
                snap = None  # foreign/corrupt/unreadable file: cold build
        session = MeasurementSession(constraints, database, warm_start=snap)
        index = session.index()
    else:
        index = build_violation_index(constraints, database)

    print(f"facts: {len(database)}", file=out)
    print(f"constraints: {len(constraints)}", file=out)
    if session is not None and args.warm_start:
        state = "restored" if session.warm_started else "cold build"
        print(f"warm start: {state} ({args.warm_start})", file=out)
    print(f"minimal inconsistent subsets: {len(index.mi_sets)}", file=out)
    print(f"problematic facts: {len(index.problematic)}", file=out)
    for name in args.measures:
        measure = make_measure(name)
        if session is not None:
            value = session.measure(measure, budget=args.time_budget)
        elif args.time_budget is not None:
            with solver_scope(as_budget(args.time_budget)):
                value = measure.value(constraints, database, index)
        else:
            value = measure.value(constraints, database, index)
        print(format_measurement(name, value, args.time_budget), file=out)
    if session is not None and args.stats:
        import json

        print(json.dumps(session.stats(), indent=2, default=str), file=out)
    if session is not None:
        # A warm-restored run never mutated the database, so the state on
        # disk is already current — re-serializing it would just re-pay
        # the fingerprint hash and the write on every warm run.
        if args.warm_start and not session.warm_started:
            from .session.snapshot import save_snapshot

            try:
                save_snapshot(session.snapshot(), args.warm_start)
            except OSError as error:
                # The measurements above already succeeded; an unwritable
                # snapshot path only costs the next run its warm start.
                print(
                    f"warm start: could not save state ({error})", file=out
                )
        session.close()

    if args.top_violations > 0 and index.mi_sets:
        from .measures.shapley import shapley_values_mi

        blame = shapley_values_mi(constraints, database)
        ranked = sorted(blame.items(), key=lambda item: (-item[1], item[0]))
        print(f"\ntop {args.top_violations} facts by I_MI Shapley blame:", file=out)
        for identifier, share in ranked[: args.top_violations]:
            print(f"  #{identifier}  blame={share:.3f}  {database[identifier]!r}", file=out)
    return 0
