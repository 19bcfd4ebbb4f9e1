"""Parsing and serialization: spaces (JSON/CSV), pairs, nets, witnesses.

The JSON space format is {"labels": [...], "d": [[...], ...]} with labels
optional; the CSV alternative is a square matrix with an optional leading
header row of labels.  Both parsers reject ragged rows.  JSON emission round
trips bit-exactly.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .errors import ParseError
from .gh import RoughIsometryWitness
from .hull import HullSample
from .pairs import AmplePair
from .space import QSpace
from .tolerances import TRIANGLE_TOL


def _looks_like_path(source: str) -> bool:
    if "\n" in source or len(source) > 4096:
        return False
    try:
        return Path(source).exists()
    except OSError:
        return False


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(f"not UTF-8 text: {err.reason}", position=f"byte {err.start}") from None


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(err.msg, position=f"char {err.pos}") from None
    except (ValueError, RecursionError) as err:  # an over-long integer, deep nesting
        raise ParseError(str(err)) from None


def _read_source(source) -> tuple[str, str | None]:
    """Return (text, suffix) from a path-like or inline text."""
    if isinstance(source, Path) or (isinstance(source, str) and _looks_like_path(source)):
        return _read_text(source), Path(source).suffix.lower().lstrip(".")
    return str(source), None


def _matrix_from_rows(rows: list[list[str]], offset: int = 0) -> list[list[float]]:
    n = len(rows)
    out = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ParseError(
                f"expected {n} entries, found {len(row)}", position=f"row {i + 1 + offset}"
            )
        try:
            out.append([float(v) for v in row])
        except ValueError as err:
            raise ParseError(str(err), position=f"row {i + 1 + offset}") from None
    return out


def parse_space(source, fmt: str | None = None, tol: float = TRIANGLE_TOL) -> QSpace:
    """Read a space from a file path or inline text, validating on the way in.

    ``fmt`` is "json" or "csv"; when omitted it is inferred from the file
    suffix or, for inline text, from a leading '{'.
    """
    text, suffix = _read_source(source)
    if fmt is None:
        fmt = suffix if suffix in ("json", "csv") else (
            "json" if text.lstrip().startswith("{") else "csv"
        )
    if fmt == "json":
        obj = _load_json(text)
        if not isinstance(obj, dict) or "d" not in obj:
            raise ParseError('expected an object with a "d" matrix')
        d = obj["d"]
        if not isinstance(d, list) or not all(isinstance(r, list) for r in d):
            raise ParseError('"d" must be a list of rows')
        matrix = _matrix_from_rows([[str(v) for v in row] for row in d])
        labels = obj.get("labels")
        if labels is not None and not isinstance(labels, list):
            raise ParseError('"labels" must be a list')
    elif fmt == "csv":
        rows = [r for r in csv.reader(text.splitlines()) if r]
        if not rows:
            raise ParseError("empty input")
        labels = None
        offset = 0
        try:
            [float(v) for v in rows[0]]
            numeric_first = True
        except ValueError:
            numeric_first = False
        # a row of labels, or a numeric header when the shape gives it away
        if not numeric_first or (len(rows) == len(rows[0]) + 1 and len(rows) > 1):
            labels = [v.strip() for v in rows[0]]
            rows = rows[1:]
            offset = 1
            if not rows:
                raise ParseError("header without data", position="row 2")
        matrix = _matrix_from_rows(rows, offset=offset)
    else:
        raise ParseError(f"unknown format {fmt!r}")
    if labels is not None and len(labels) != len(matrix):
        raise ParseError(f"{len(labels)} labels for {len(matrix)} rows")
    return QSpace(matrix, labels, tol=tol)


def space_to_obj(X: QSpace) -> dict:
    return {"labels": list(X.labels), "d": [list(map(float, row)) for row in X.d]}


def space_to_json(X: QSpace) -> str:
    return json.dumps(space_to_obj(X))


def space_to_csv(X: QSpace) -> str:
    lines = [",".join(X.labels)]
    lines += [",".join(repr(float(v)) for v in row) for row in X.d]
    return "\n".join(lines) + "\n"


def _point_obj(f1: list, f2: list, minimal: bool, tol: float | None) -> dict:
    return {
        "f1": f1,
        "f2": f2,
        "certified_minimal": bool(minimal),
        "tolerance": None if tol is None else float(tol),
    }


def pair_to_obj(f: AmplePair) -> dict:
    return _point_obj(f.f1.tolist(), f.f2.tolist(), f.certified_minimal, f.certified_tol)


def hull_to_obj(H: HullSample) -> dict:
    """The net with one entry per point, as ``pair_to_obj`` writes a pair,
    read from the net's arrays and certificates without building a pair."""
    P = H.points
    F1, F2 = P.arrays.tolist()
    entries = zip(F1, F2, P.minimal, P.tols)
    return {"seed": int(H.seed), "points": [_point_obj(*e) for e in entries]}


def witness_to_obj(w: RoughIsometryWitness, correspondence=None) -> dict:
    obj = {
        "map": list(w.map),
        "eps_embed": float(w.eps_embed),
        "eps_large": float(w.eps_large),
        "eps": float(w.eps),
    }
    if correspondence is not None:
        obj["correspondence"] = [list(p) for p in correspondence.pairs]
    return obj


def load_map(path) -> list[int]:
    """Read a function table {"map": [j0, j1, ...]} from a JSON file."""
    obj = _load_json(_read_text(path))
    if not isinstance(obj, dict) or "map" not in obj or not isinstance(obj["map"], list):
        raise ParseError('expected an object with a "map" list')
    table = obj["map"]
    for i, v in enumerate(table):
        # bool is an int subclass; a float entry must be integral (not nan/inf)
        integral = isinstance(v, int) or (isinstance(v, float) and v.is_integer())
        if isinstance(v, bool) or not integral:
            raise ParseError(f"map entry {v!r} is not an integer", position=f"map[{i}]")
    return [int(v) for v in table]
