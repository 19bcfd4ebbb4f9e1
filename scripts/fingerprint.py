#!/usr/bin/env python3
"""Bit-identity fingerprint of the exact GH search, over fixed panels.

For each panel, one SHA-256 digest over every search's (value.hex(), exact,
nodes, correspondence pairs, lower.hex()) and one over its input matrices
and budgets.  A change that keeps every number leaves every digest as it
was.  The inputs come from numpy's seeded generators, whose streams NEP 19
does not freeze across numpy versions, so they are hashed on their own and
the numpy version is recorded: a moved input digest reads as "inputs
moved", not as "the kernel moved".

    PYTHONPATH=src python scripts/fingerprint.py > FINGERPRINT.json
    PYTHONPATH=src python scripts/fingerprint.py --check FINGERPRINT.json

With --check, exits 1 and names each digest that moved.
"""

import argparse
import hashlib
import json
import sys

import numpy as np

from qmet import gh_exact, random_qspace
from qmet.gh import DEFAULT_BUDGET


def gh_panel():
    """The GH panel: X = random_qspace(n, default_rng(1000n + s)) and Y the
    same draw at seed 1000n + s + 500, for n = 8-10 and s < 8."""
    for n in (8, 9, 10):
        for s in range(8):
            X = random_qspace(n, np.random.default_rng(1000 * n + s))
            Y = random_qspace(n, np.random.default_rng(1000 * n + s + 500))
            yield X, Y, DEFAULT_BUDGET


def heavy_tail_8():
    """The ten 8-point pairs of tests/test_gh.py::TestHeavyTail."""
    rng = np.random.default_rng(0)
    for _ in range(10):
        random_qspace(7, rng), random_qspace(7, rng)
    for _ in range(10):
        yield random_qspace(8, rng), random_qspace(8, rng), 2_000_000


def heavy_tail_10():
    """The six 10-point pairs of tests/test_gh.py::TestHeavyTail."""
    rng = np.random.default_rng(10)
    for _ in range(6):
        yield random_qspace(10, rng), random_qspace(10, rng), DEFAULT_BUDGET


def networks():
    """300 seeded pairs of signed networks of 1-6 points, in four kinds:
    normal weights, rounded to one decimal (ties), times 1e300, or with a
    quarter of them pushed to +-1.7e308 (differences overflow to +inf).
    Every fifth search runs unbudgeted, the others at a budget of 1-400."""
    for seed in range(300):
        rng = np.random.default_rng(seed)
        nx, ny = (int(k) for k in rng.integers(1, 7, size=2))
        wx, wy = rng.normal(size=(nx, nx)), rng.normal(size=(ny, ny))
        kind = seed % 4
        if kind == 1:
            wx, wy = wx.round(1), wy.round(1)
        elif kind == 2:
            wx, wy = wx * 1e300, wy * 1e300
        elif kind == 3:
            for w in (wx, wy):
                big = rng.random(w.shape) < 0.25
                w[big] = np.copysign(1.7e308, w[big])
        budget = None if seed % 5 == 0 else int(rng.integers(1, 401))
        yield wx, wy, budget


def above_gate():
    """Two random pairs past the 256-cell gate of the floor, n = 17 and 20,
    at a budget of 20,000 nodes."""
    for n in (17, 20):
        X = random_qspace(n, np.random.default_rng(n))
        Y = random_qspace(n, np.random.default_rng(n + 500))
        yield X, Y, 20_000


PANELS = {
    "gh-panel": gh_panel,
    "heavy-tail-8": heavy_tail_8,
    "heavy-tail-10": heavy_tail_10,
    "networks": networks,
    "above-gate": above_gate,
}


def digest_panel(name):
    """(inputs digest, outputs digest) of one panel."""
    inputs, outputs = hashlib.sha256(), hashlib.sha256()
    for X, Y, budget in PANELS[name]():
        for w in (X, Y):
            w = np.ascontiguousarray(getattr(w, "d", w), dtype=float)
            inputs.update(repr(w.shape).encode() + w.tobytes())
        inputs.update(repr(budget).encode())
        r = gh_exact(X, Y, budget=budget)
        row = (r.value.hex(), r.exact, r.nodes, r.correspondence.pairs, r.lower.hex())
        outputs.update(repr(row).encode())
    return inputs.hexdigest(), outputs.hexdigest()


def fingerprint(names=tuple(PANELS)):
    panels = {}
    for name in names:
        inputs, outputs = digest_panel(name)
        panels[name] = {"inputs": inputs, "gh": outputs}
    return {"numpy": np.__version__, "panels": panels}


def moved(want, got):
    """One line for each panel digest of ``got`` that differs from ``want``."""
    lines = []
    for name, digests in got["panels"].items():
        old = want["panels"].get(name)
        if old is None:
            lines.append(f"{name}: not in the reference file")
        elif old["inputs"] != digests["inputs"]:
            lines.append(
                f"{name}: inputs moved (numpy {want['numpy']} -> {got['numpy']}), "
                "its GH digest says nothing"
            )
        elif old["gh"] != digests["gh"]:
            lines.append(f"{name}: gh moved")
    return lines


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--check", metavar="FILE", help="compare against a fingerprint file")
    args = parser.parse_args()
    got = fingerprint()
    if args.check is None:
        print(json.dumps(got, indent=2))
        return
    with open(args.check) as f:
        lines = moved(json.load(f), got)
    for line in lines:
        print(line)
    print(f"# {len(lines)} of {len(got['panels'])} panels moved")
    sys.exit(1 if lines else 0)


if __name__ == "__main__":
    main()
