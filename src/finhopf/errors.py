"""Exception types shared across the library."""


class FinhopfError(Exception):
    """Base class for all errors raised by this package."""


class TruncationOverflow(FinhopfError):
    """A product would produce a monomial beyond the degree bound.

    Raised eagerly: no result is ever silently truncated.  ``degree`` is the
    degree that was requested, ``truncation`` the bound that was exceeded,
    ``detail`` what was being computed.
    """

    def __init__(self, degree, truncation, detail=""):
        self.degree = degree
        self.truncation = truncation
        self.detail = detail
        msg = f"degree {degree} exceeds truncation bound {truncation}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class DimensionMismatch(FinhopfError):
    """Shapes of matrices, fibers or coefficient vectors do not line up."""


class SizeGuardExceeded(FinhopfError):
    """An exhaustive search was refused because the input is too large."""


class SolverIncomplete(FinhopfError):
    """The requested enumeration is outside the solver's complete regime."""


class NotAGoodPair(FinhopfError):
    """A pair of elements failed validation as a conjugation-operator pair."""


class CoherenceError(FinhopfError):
    """Structure tables are internally inconsistent (not merely axiom-violating)."""


class AnalysisError(FinhopfError):
    """A structure-analysis stage found the input outside its theory."""

    def __init__(self, stage, message):
        self.stage = stage
        self.message = message
        super().__init__(f"[{stage}] {message}")


class ModelFormatError(FinhopfError):
    """A model file is malformed; ``path`` points at the offending field."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")
