"""Command-line front end.

Subcommands: validate, transform, hull, gh, rough-iso, delta, fixpoint, demo.
Every command has a --json mode whose output validates against the schema
files shipped under qmet/schemas/.  Exit codes: 0 success, 2 validation or
parse failure, 3 solver budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import io as qio
from .coarse import estimate_delta, fixed_point_gap
from .demos import demo_names, demo_space
from .errors import QmetError, ValidationError
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
from .space import dualize
from .tolerances import TRIANGLE_TOL, ledger

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _ledger_line() -> str:
    return "tolerances: " + " ".join(f"{k}={_fmt(v)}" for k, v in ledger().items())


def _classification_obj(report) -> dict:
    return {
        "satisfies_M1": report.satisfies_M1,
        "satisfies_M1_star": report.satisfies_M1_star,
        "satisfies_M2": report.satisfies_M2,
        "satisfies_M3": report.satisfies_M3,
        "is_metric": report.is_metric,
        "violations": [
            {"axiom": v.axiom, "witness": list(v.witness), "magnitude": v.magnitude}
            for v in report.violations
        ],
    }


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)
        print(_ledger_line())


def _load(args):
    return qio.parse_space(Path(args.space), tol=getattr(args, "tol", TRIANGLE_TOL))


def _kind(report) -> str:
    if report.is_metric:
        return "metric"
    if report.is_quasi_metric:
        return "quasi-metric"
    return "pseudo-quasi-metric"


def cmd_validate(args) -> int:
    try:
        X = _load(args)
    except ValidationError as err:
        payload = {
            "command": "validate",
            "ok": False,
            "classification": _classification_obj(err.report),
            "tolerances": ledger(),
        }
        lines = ["not a pseudo-quasi-metric"] + [
            f"  {v.axiom} at {v.witness}: {_fmt(v.magnitude)}"
            for v in err.report.violations
        ]
        _emit(args, payload, lines)
        return EXIT_INVALID
    r = X.classification
    payload = {
        "command": "validate",
        "ok": True,
        "n": X.n,
        "labels": list(X.labels),
        "classification": _classification_obj(r),
        "tolerances": ledger(),
    }
    lines = [
        f"space: {X.n} points, {_kind(r)}",
        f"M1 (T0 separation): {'yes' if r.satisfies_M1 else 'no'}",
        f"M1* (zero diagonal): {'yes' if r.satisfies_M1_star else 'no'}",
        f"M2 (triangle): {'yes' if r.satisfies_M2 else 'no'}",
        f"M3 (symmetry): {'yes' if r.satisfies_M3 else 'no'}",
        f"is_metric: {'yes' if r.is_metric else 'no'}",
    ]
    for v in r.violations:
        lines.append(f"  {v.axiom} at {v.witness}: {_fmt(v.magnitude)}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_transform(args) -> int:
    X = _load(args)
    Y = dualize(X, args.mode)
    obj = qio.space_to_obj(Y)
    if args.out:
        Path(args.out).write_text(qio.space_to_json(Y))
    payload = {
        "command": "transform",
        "mode": args.mode,
        "space": obj,
        "classification": _classification_obj(Y.classification),
        "tolerances": ledger(),
    }
    lines = [f"{args.mode}: {Y!r}"] + [
        "  " + " ".join(_fmt(v) for v in row) for row in Y.d
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_hull(args) -> int:
    X = _load(args)
    H = sample_hull(X, args.samples, args.seed)
    payload = {
        "command": "hull",
        "count": len(H.points),
        "spread": None if H.spread == float("inf") else H.spread,
        "sample": qio.hull_to_obj(H),
        "tolerances": ledger(),
    }
    lines = [
        f"hull net of {X.n}-point space: {len(H.points)} points "
        f"(seed {args.seed}, spread {_fmt(H.spread)})"
    ]
    if args.matrix:
        Q = hull_as_qspace(H)
        payload["labels"] = list(Q.labels)
        payload["matrix"] = [list(map(float, row)) for row in Q.d]
        lines += ["  " + " ".join(_fmt(v) for v in row) for row in Q.d]
    if args.out:
        Path(args.out).write_text(json.dumps(qio.hull_to_obj(H)))
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_gh(args) -> int:
    A = qio.parse_space(Path(args.left), tol=args.tol)
    B = qio.parse_space(Path(args.right), tol=args.tol)
    budget = None if args.exact else args.budget
    result = gh_exact(A, B, budget=budget)
    if args.witness:
        w = rough_isometry_from_correspondence(result.correspondence)
        Path(args.witness).write_text(
            json.dumps(qio.witness_to_obj(w, result.correspondence), indent=2)
        )
    payload = {
        "command": "gh",
        "value": result.value,
        "exact": result.exact,
        "nodes": result.nodes,
        "distortion": distortion(result.correspondence),
        "correspondence": [list(p) for p in result.correspondence.pairs],
        "tolerances": ledger(),
    }
    lines = [
        f"gh = {_fmt(result.value)}",
        f"exact: {'yes' if result.exact else 'no (budget exhausted, upper bound)'}",
        f"nodes: {result.nodes}",
        f"correspondence: {list(result.correspondence.pairs)}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK if result.exact else EXIT_BUDGET


def cmd_rough_iso(args) -> int:
    A = qio.parse_space(Path(args.left), tol=args.tol)
    B = qio.parse_space(Path(args.right), tol=args.tol)
    if args.map:
        phi = qio.load_map(args.map)
        w = verify_rough_isometry(phi, A, B)
    else:
        result = gh_exact(A, B)
        w = rough_isometry_from_correspondence(result.correspondence)
    R = correspondence_from_rough_isometry(w)
    inv = rough_inverse(w)
    if args.witness:
        Path(args.witness).write_text(json.dumps(qio.witness_to_obj(w, R), indent=2))
    payload = {
        "command": "rough-iso",
        "map": list(w.map),
        "eps_embed": w.eps_embed,
        "eps_large": w.eps_large,
        "eps": w.eps,
        "correspondence": [list(p) for p in R.pairs],
        "inverse": {
            "map": list(inv.map),
            "nonexpansive_defect": inv.nonexpansive_defect,
            "target_closeness": inv.target_closeness,
            "source_closeness": inv.source_closeness,
        },
        "tolerances": ledger(),
    }
    lines = [
        f"map: {list(w.map)}",
        f"eps_embed = {_fmt(w.eps_embed)}  eps_large = {_fmt(w.eps_large)}  eps = {_fmt(w.eps)}",
        f"inverse map: {list(inv.map)}",
        f"inverse constants: nonexpansive_defect = {_fmt(inv.nonexpansive_defect)}, "
        f"target_closeness = {_fmt(inv.target_closeness)}, "
        f"source_closeness = {_fmt(inv.source_closeness)}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_delta(args) -> int:
    X = _load(args)
    est = estimate_delta(X, samples=args.samples, restarts=args.restarts, seed=args.seed)
    payload = {
        "command": "delta",
        "lower": est.lower,
        "heuristic_upper": est.heuristic_upper,
        "samples": est.samples,
        "restarts": est.restarts,
        "seed": est.seed,
        "tolerances": ledger(),
    }
    lines = [
        f"delta lower bound = {_fmt(est.lower)} (certified from sampled hull points)",
        f"delta heuristic upper = {_fmt(est.heuristic_upper)} (reported, not proven)",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_fixpoint(args) -> int:
    X = _load(args)
    T = qio.load_map(args.map)
    gap, arg = fixed_point_gap(X, T)
    payload = {
        "command": "fixpoint",
        "gap": gap,
        "point_index": arg,
        "point_label": X.labels[arg],
        "tolerances": ledger(),
    }
    lines = [
        f"gap = {_fmt(gap)} attained at point {arg} ({X.labels[arg]})",
        "map is non-expansive: yes",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_demo(args) -> int:
    if args.name == "list":
        payload = {"command": "demo", "names": demo_names(), "tolerances": ledger()}
        _emit(args, payload, demo_names())
        return EXIT_OK
    try:
        X = demo_space(args.name)
    except KeyError as err:
        raise QmetError(str(err)) from None
    if args.out:
        Path(args.out).write_text(qio.space_to_json(X))
    payload = {
        "command": "demo",
        "name": args.name,
        "space": qio.space_to_obj(X),
        "tolerances": ledger(),
    }
    lines = [f"{args.name}: {X!r}"] + [
        "  " + " ".join(_fmt(v) for v in row) for row in X.d
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def _at_least(least: int):
    """argparse type for an integer (a count or a seed) of at least ``least``."""

    def integer(text: str) -> int:  # argparse names it in "invalid integer value"
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmet", description="finite quasi-metric space toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)
        return p

    p = add("validate", cmd_validate, help="classify a distance matrix")
    p.add_argument("space")
    p.add_argument("--tol", type=_tolerance, default=TRIANGLE_TOL)

    p = add("transform", cmd_transform, help="conjugate or symmetrize a space")
    p.add_argument("space")
    p.add_argument("--mode", choices=["conjugate", "symmetrize"], required=True)
    p.add_argument("--tol", type=_tolerance, default=TRIANGLE_TOL)
    p.add_argument("--out")

    p = add("hull", cmd_hull, help="sample a certified net of the hull")
    p.add_argument("space")
    p.add_argument("--samples", type=_at_least(0), default=100)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--matrix", action="store_true", help="print the induced matrix")
    p.add_argument("--tol", type=_tolerance, default=TRIANGLE_TOL)
    p.add_argument("--out")

    p = add("gh", cmd_gh, help="exact GH distance between two spaces")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--exact", action="store_true", help="search without a node budget")
    p.add_argument("--budget", type=_at_least(1), default=DEFAULT_BUDGET)
    p.add_argument("--witness", help="write a rough-isometry witness JSON here")
    p.add_argument("--tol", type=_tolerance, default=TRIANGLE_TOL)

    p = add("rough-iso", cmd_rough_iso, help="verify or derive a rough isometry")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--map", help="JSON map table to verify; omitted: derive from solver")
    p.add_argument("--witness", help="write the witness JSON here")
    p.add_argument("--tol", type=_tolerance, default=TRIANGLE_TOL)

    p = add("delta", cmd_delta, help="estimate the coarse-injectivity constant")
    p.add_argument("space")
    p.add_argument("--samples", type=_at_least(1), default=200)
    p.add_argument("--restarts", type=_at_least(0), default=6)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--tol", type=_tolerance, default=TRIANGLE_TOL)

    p = add("fixpoint", cmd_fixpoint, help="least displacement of a non-expansive map")
    p.add_argument("space")
    p.add_argument("--map", required=True)
    p.add_argument("--tol", type=_tolerance, default=TRIANGLE_TOL)

    p = add("demo", cmd_demo, help="built-in demo spaces")
    p.add_argument("name", help="'list' or a demo name")
    p.add_argument("--out")

    return parser


def dispatch(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        for v in err.report.violations:
            print(f"  {v.axiom} at {v.witness}: {v.magnitude:.6g}", file=sys.stderr)
        return EXIT_INVALID
    except (QmetError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID


def main() -> None:
    sys.exit(dispatch())
