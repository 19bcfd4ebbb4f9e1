"""Uniform float-slack policy.

Producers are exact up to rounding: the retraction onto the hull has no
stopping tolerance.  Validation and ampleness allow 1e-9, and certification
of minimality two orders of magnitude more, so a consumer never flakes on
the producer's float noise.  Rounding grows with the values rounded, so
ampleness, minimality and the validation of hull nets and glued spaces floor
their slack at 4 eps times the scale (``slack``), which passes 1e-9 above
about 1.1e6.  Hull-net deduplication has no absolute part: it merges points
within ``slack(0.0, diam)``, the space's rounding level alone.
"""

TRIANGLE_TOL = 1e-9        # tau_tri: slack for the triangle axiom in validation
AMPLE_TOL = 1e-9           # slack for d(x,y) <= f2(x) + f1(y)
CERTIFICATION_TOL = 1e-7   # residual below which a pair counts as minimal


def slack(tol: float, scale: float) -> float:
    """tol, floored at 4 eps * scale: the rounding of values up to scale."""
    return max(tol, 4.0 * 2.0 ** -52 * scale)  # eps = 2 ** -52


def ledger(tau_tri: float = TRIANGLE_TOL):
    """Tolerance ledger embedded in every report; ``tau_tri`` is the
    triangle slack the report's inputs were validated with."""
    return {
        "tau_tri": tau_tri,
        "certification_tol": CERTIFICATION_TOL,
    }
