"""Command-line front end.

Subcommands: validate, transform, hull, gh, rough-iso, delta, fixpoint, demo.
Each ``cmd_*`` computes and returns (exit code, payload, lines) and prints
nothing; ``dispatch`` alone writes the report.  With --json that is the
envelope {"command", *payload, "tolerances"}, where the payload takes the
library's result dataclasses as they are (``AxiomReport``, ``DeltaEstimate``,
``RoughInverse``) and validates against the schema files shipped under
qmet/schemas/; otherwise the lines and then the tolerance ledger.  ``delta``
brackets the injectivity constant and ignores --restarts and --seed.  Exit
codes: 0 success, 2 validation or parse failure, 3 solver budget exhausted;
a closed stdout is passed over silently and keeps the run's code.  The
parser is built once per process; each ``dispatch`` only parses.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import io as qio
from .coarse import estimate_delta, fixed_point_gap
from .demos import demo_names, demo_space
from .errors import QmetError, SizeOverflow, ValidationError
from .gh import (
    DEFAULT_BUDGET,
    correspondence_from_rough_isometry,
    distortion,
    gh_exact,
    rough_inverse,
    rough_isometry_from_correspondence,
    verify_rough_isometry,
)
from .hull import hull_as_qspace, sample_hull
from .space import conjugate, symmetrize
from .tolerances import TRIANGLE_TOL, ledger

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3
# hull allocates its --samples buffers up front; delta's --samples box budget bounds its time
MAX_SAMPLES = 10**6
# hull --matrix writes an m x m matrix and validates it in O(m^3) time
MAX_MATRIX_POINTS = 2000

Report = tuple[int, dict, list[str]]  # (exit code, JSON payload, human lines)
# transform's modes; the keys are also --mode's choices
TRANSFORMS = {"conjugate": conjugate, "symmetrize": symmetrize}


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _load(path, args):
    return qio.parse_space(Path(path), tol=args.tol)


def _matrix_lines(d) -> list[str]:
    return ["  " + " ".join(_fmt(v) for v in row) for row in d]


def _violation_lines(report) -> list[str]:
    return [f"  {v.axiom} at {v.witness}: {_fmt(v.magnitude)}" for v in report.violations]


def cmd_validate(args) -> Report:
    try:
        X = _load(args.space, args)
    except ValidationError as err:
        payload = {"ok": False, "classification": asdict(err.report)}
        lines = ["not a pseudo-quasi-metric", *_violation_lines(err.report)]
        return EXIT_INVALID, payload, lines
    r = X.classification
    payload = {"ok": True, "n": X.n, "labels": list(X.labels), "classification": asdict(r)}
    lines = [
        f"space: {X.n} points, {r.kind}",
        f"M1 (T0 separation): {'yes' if r.satisfies_M1 else 'no'}",
        f"M1* (zero diagonal): {'yes' if r.satisfies_M1_star else 'no'}",
        f"M2 (triangle): {'yes' if r.satisfies_M2 else 'no'}",
        f"M3 (symmetry): {'yes' if r.satisfies_M3 else 'no'}",
        f"is_metric: {'yes' if r.is_metric else 'no'}",
        *_violation_lines(r),
    ]
    return EXIT_OK, payload, lines


def cmd_transform(args) -> Report:
    Y = TRANSFORMS[args.mode](_load(args.space, args))
    if args.out:
        Path(args.out).write_text(qio.space_to_json(Y))
    payload = {
        "mode": args.mode,
        "space": qio.space_to_obj(Y),
        "classification": asdict(Y.classification),
    }
    return EXIT_OK, payload, [f"{args.mode}: {Y!r}", *_matrix_lines(Y.d)]


def cmd_hull(args) -> Report:
    X = _load(args.space, args)
    if args.matrix and X.n + args.samples > MAX_MATRIX_POINTS:
        raise SizeOverflow(
            f"--matrix net could have {X.n + args.samples} points (cap {MAX_MATRIX_POINTS})"
        )
    H = sample_hull(X, args.samples, args.seed)
    payload = {
        "count": len(H.points),
        "spread": None if H.spread == float("inf") else H.spread,
        "sample": qio.hull_to_obj(H),
    }
    lines = [
        f"hull net of {X.n}-point space: {len(H.points)} points "
        f"(seed {args.seed}, spread {_fmt(H.spread)})"
    ]
    if args.matrix:
        Q = hull_as_qspace(H)
        payload["labels"] = list(Q.labels)
        payload["matrix"] = [list(map(float, row)) for row in Q.d]
        lines += _matrix_lines(Q.d)
    if args.out:
        Path(args.out).write_text(json.dumps(payload["sample"]))
    return EXIT_OK, payload, lines


def cmd_gh(args) -> Report:
    A, B = _load(args.left, args), _load(args.right, args)
    result = gh_exact(A, B, budget=None if args.exact else args.budget)
    R = result.correspondence
    if args.witness:
        w = rough_isometry_from_correspondence(R)
        Path(args.witness).write_text(json.dumps(qio.witness_to_obj(w, R), indent=2))
    payload = {
        "value": result.value,
        "lower": result.lower,
        "exact": result.exact,
        "nodes": result.nodes,
        "distortion": distortion(R),
        "correspondence": [list(p) for p in R.pairs],
    }
    lines = [
        f"gh = {_fmt(result.value)}",
        f"exact: {'yes' if result.exact else 'no (budget exhausted, upper bound)'}",
        *([] if result.exact else [f"bracket: [{_fmt(result.lower)}, {_fmt(result.value)}] (certified)"]),
        f"nodes: {result.nodes}",
        f"correspondence: {list(R.pairs)}",
    ]
    return (EXIT_OK if result.exact else EXIT_BUDGET), payload, lines


def cmd_rough_iso(args) -> Report:
    A, B = _load(args.left, args), _load(args.right, args)
    if args.map:
        w = verify_rough_isometry(qio.load_map(args.map), A, B)
    else:
        w = rough_isometry_from_correspondence(gh_exact(A, B).correspondence)
    R = correspondence_from_rough_isometry(w)
    inv = rough_inverse(w)
    if args.witness:
        Path(args.witness).write_text(json.dumps(qio.witness_to_obj(w, R), indent=2))
    payload = {**qio.witness_to_obj(w, R), "inverse": asdict(inv)}
    lines = [
        f"map: {list(w.map)}",
        f"eps_embed = {_fmt(w.eps_embed)}  eps_large = {_fmt(w.eps_large)}  eps = {_fmt(w.eps)}",
        f"inverse map: {list(inv.map)}",
        f"inverse constants: nonexpansive_defect = {_fmt(inv.nonexpansive_defect)}, "
        f"target_closeness = {_fmt(inv.target_closeness)}, "
        f"source_closeness = {_fmt(inv.source_closeness)}",
    ]
    return EXIT_OK, payload, lines


def cmd_delta(args) -> Report:
    X = _load(args.space, args)
    est = estimate_delta(X, samples=args.samples)
    lines = [
        f"delta lower bound = {_fmt(est.lower)} (certified)",
        f"delta upper bound = {_fmt(est.upper)} (certified)",
        f"boxes evaluated: {est.boxes} of {est.samples}",
    ]
    return EXIT_OK, asdict(est), lines


def cmd_fixpoint(args) -> Report:
    X = _load(args.space, args)
    gap, arg = fixed_point_gap(X, qio.load_map(args.map))
    payload = {"gap": gap, "point_index": arg, "point_label": X.labels[arg]}
    lines = [
        f"gap = {_fmt(gap)} attained at point {arg} ({X.labels[arg]})",
        "map is non-expansive: yes",
    ]
    return EXIT_OK, payload, lines


def cmd_demo(args) -> Report:
    if args.name == "list":
        return EXIT_OK, {"names": demo_names()}, demo_names()
    try:
        X = demo_space(args.name)
    except KeyError as err:
        raise QmetError(err.args[0]) from None  # str(KeyError) would quote it
    if args.out:
        Path(args.out).write_text(qio.space_to_json(X))
    payload = {"name": args.name, "space": qio.space_to_obj(X)}
    return EXIT_OK, payload, [f"{args.name}: {X!r}", *_matrix_lines(X.d)]


def _integer(least: int, most: int | None = None):
    """argparse type for an integer (a count or a seed) in [least, most]."""

    def integer(text: str) -> int:  # argparse names it in "invalid integer value"
        value = int(text)
        if value < least or (most is not None and value > most):
            span = f">= {least}" if most is None else f"in [{least}, {most}]"
            raise argparse.ArgumentTypeError(f"expected an integer {span}, got {text!r}")
        return value

    return integer


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite float of at least 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value < math.inf:  # also false for nan
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmet", description="finite quasi-metric space toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    reads_space = argparse.ArgumentParser(add_help=False)
    reads_space.add_argument("--tol", type=_tolerance, default=TRIANGLE_TOL)

    def add(name, func, *, tol=True, **kwargs):
        p = sub.add_parser(name, parents=[reads_space] if tol else [], **kwargs)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)
        return p

    p = add("validate", cmd_validate, help="classify a distance matrix")
    p.add_argument("space")

    p = add("transform", cmd_transform, help="conjugate or symmetrize a space")
    p.add_argument("space")
    p.add_argument("--mode", choices=list(TRANSFORMS), required=True)
    p.add_argument("--out")

    p = add("hull", cmd_hull, help="sample a certified net of the hull")
    p.add_argument("space")
    p.add_argument("--samples", type=_integer(0, MAX_SAMPLES), default=100)
    p.add_argument("--seed", type=_integer(0), default=0)
    p.add_argument("--matrix", action="store_true", help="print the induced matrix")
    p.add_argument("--out")

    p = add("gh", cmd_gh, help="exact GH distance between two spaces")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--exact", action="store_true", help="search without a node budget")
    p.add_argument("--budget", type=_integer(1), default=DEFAULT_BUDGET)
    p.add_argument("--witness", help="write a rough-isometry witness JSON here")

    p = add("rough-iso", cmd_rough_iso, help="verify or derive a rough isometry")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--map", help="JSON map table to verify; omitted: derive from solver")
    p.add_argument("--witness", help="write the witness JSON here")

    p = add("delta", cmd_delta, help="estimate the coarse-injectivity constant")
    p.add_argument("space")
    p.add_argument("--samples", type=_integer(1, MAX_SAMPLES), default=200)
    # the refinement is deterministic; both are accepted and ignored
    p.add_argument("--restarts", type=_integer(0), default=6, help="ignored")
    p.add_argument("--seed", type=_integer(0), default=0, help="ignored")

    p = add("fixpoint", cmd_fixpoint, help="least displacement of a non-expansive map")
    p.add_argument("space")
    p.add_argument("--map", required=True)

    p = add("demo", cmd_demo, tol=False, help="built-in demo spaces")
    p.add_argument("name", help="'list' or a demo name")
    p.add_argument("--out")

    return parser


def dispatch(argv=None) -> int:
    """Run one command and write its report: the only code here that prints."""
    args = build_parser().parse_args(argv)
    try:
        code, payload, lines = args.func(args)
    except ValidationError as err:
        print("\n".join([f"error: {err}", *_violation_lines(err.report)]), file=sys.stderr)
        return EXIT_INVALID
    except (QmetError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    try:
        # the --tol the inputs were validated with; demo reads none
        tolerances = ledger(getattr(args, "tol", TRIANGLE_TOL))
        if args.json:
            print(json.dumps({"command": args.command, **payload, "tolerances": tolerances}, indent=2))
        else:
            ledger_line = " ".join(f"{k}={_fmt(v)}" for k, v in tolerances.items())
            print("\n".join([*lines, f"tolerances: {ledger_line}"]))
        sys.stdout.flush()  # a closed pipe raises here at the latest, not at exit
    except BrokenPipeError:
        # the reader has gone (``qmet demo list | head -1``): the run's code
        # stands, and stdout moves to devnull so the exit-time flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def main() -> None:
    sys.exit(dispatch())
