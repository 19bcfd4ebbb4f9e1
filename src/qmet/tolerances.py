"""Uniform float-slack policy.

Producers are exact up to rounding: the retraction onto the hull has no
stopping tolerance.  Validation, ampleness and deduplication allow 1e-9,
certification of minimality two orders of magnitude more, and derived
property checks one more, so a consumer never flakes on the producer's float
noise.
"""

TRIANGLE_TOL = 1e-9        # tau_tri: slack for the triangle axiom in validation
AMPLE_TOL = 1e-9           # slack for d(x,y) <= f2(x) + f1(y)
CERTIFICATION_TOL = 1e-7   # residual below which a pair counts as minimal
PROPERTY_TOL = 1e-6        # slack used by derived property checks
DEDUP_TOL = 1e-9           # hull samples closer than this (sym distance) merge
PRODUCT_CAP = 10_000       # refuse product spaces with more points than this


def ledger():
    """Tolerance ledger embedded in every report."""
    return {
        "tau_tri": TRIANGLE_TOL,
        "certification_tol": CERTIFICATION_TOL,
    }
