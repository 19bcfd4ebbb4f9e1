#!/usr/bin/env python3
"""Survey of coarse-injectivity constants across demo and random spaces.

Prints the certified bracket [lower, upper] next to the analytically derived
constant where one is known (the hull of a one-way chain
is a one-way interval; the hull of the 2-point metric space is the unit
square under the max metric).  Exits 1 when a bracket misses its analytic
constant by more than 1e-9.
"""

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from qmet import demo_names, demo_space, estimate_delta, random_qspace

ANALYTIC = {
    "sierpinski": 0.5,
    "metric2": 1.0,
    "line3": 0.5,
    "runit5": 0.125,
}


@dataclass
class Config:
    samples: int = 300
    random_spaces: int = 4
    points: int = 4
    seed: int = 0


def run(cfg: Config) -> int:
    print(f"# {cfg}")
    print(f"{'space':<14} {'lower':>10} {'upper':>10} {'analytic':>10}")
    rng = np.random.default_rng(cfg.seed)
    rows = [(name, demo_space(name)) for name in demo_names()]
    rows += [
        (f"random{i}(n={cfg.points})", random_qspace(cfg.points, rng))
        for i in range(cfg.random_spaces)
    ]
    missed = []
    for name, X in rows:
        est = estimate_delta(X, samples=cfg.samples)
        ref = ANALYTIC.get(name)
        ref_s = f"{ref:10.4f}" if ref is not None else f"{'-':>10}"
        print(f"{name:<14} {est.lower:10.6f} {est.upper:10.6f} {ref_s}")
        if ref is not None and not est.lower - 1e-9 <= ref <= est.upper + 1e-9:
            missed.append(name)
    if missed:
        print(f"# brackets missing their analytic constant: {', '.join(missed)}")
    return 1 if missed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=Config.samples)
    parser.add_argument("--random-spaces", dest="random_spaces", type=int,
                        default=Config.random_spaces)
    parser.add_argument("--points", type=int, default=Config.points)
    parser.add_argument("--seed", type=int, default=Config.seed)
    args = parser.parse_args()
    sys.exit(run(Config(**vars(args))))


if __name__ == "__main__":
    main()
