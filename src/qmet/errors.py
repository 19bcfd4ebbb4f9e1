"""Exception types shared across the package."""


class QmetError(Exception):
    """Base class for all library errors."""


class NonSquareMatrix(QmetError):
    pass


class NegativeEntry(QmetError):
    pass


class NonFiniteEntry(QmetError):
    pass


class ValidationError(QmetError):
    """Input matrix is not even a pseudo-quasi-metric; carries the axiom report."""

    def __init__(self, report, message="matrix violates the quasi-metric axioms"):
        super().__init__(message)
        self.report = report


class EmptySubset(QmetError):
    pass


class SizeOverflow(QmetError):
    pass


class LengthMismatch(QmetError):
    pass


class NotAmple(QmetError):
    """Pair fails d(x,y) <= f2(x) + f1(y); carries the worst offending pair."""

    def __init__(self, violation=None):
        msg = "pair is not ample"
        if violation is not None:
            i, j, mag = violation
            msg += f": d({i},{j}) exceeds f2({i}) + f1({j}) by {mag:.3e}"
        super().__init__(msg)
        self.violation = violation


class SpaceMismatch(QmetError):
    pass


class IndexOutOfRange(QmetError, IndexError):
    pass


class NotIncreasing(QmetError, ValueError):
    pass


class NotMinimal(QmetError):
    pass


class SubsetMismatch(QmetError):
    pass


class NotACorrespondence(QmetError):
    """Relation misses a point; records which side and which index."""

    def __init__(self, side, index):
        super().__init__(f"relation does not cover {side} index {index}")
        self.side = side
        self.index = index


class EpsTooSmall(QmetError):
    """Glue parameter below half the distortion; carries a violating triple."""

    def __init__(self, triple, magnitude):
        super().__init__(
            f"glue parameter too small: triangle fails at {triple} by {magnitude:.3e}"
        )
        self.triple = triple
        self.magnitude = magnitude


class InfeasibleFamily(QmetError):
    """Ball family violates d(x_i, x_j) <= r_i + s_j; carries the pair (i, j)."""

    def __init__(self, pair, magnitude):
        super().__init__(
            f"family infeasible at entry pair {pair} (excess {magnitude:.3e})"
        )
        self.pair = pair
        self.magnitude = magnitude


class NotNonexpansive(QmetError):
    def __init__(self, pair, magnitude):
        super().__init__(
            f"map expands the pair {pair} by {magnitude:.3e}"
        )
        self.pair = pair
        self.magnitude = magnitude


class ParseError(QmetError):
    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at {position})"
        super().__init__(message)
        self.position = position
