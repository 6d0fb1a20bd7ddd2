"""Exception types shared across the package."""


class FalmError(Exception):
    """Base class for all library-specific failures."""


class DimensionMismatch(FalmError, ValueError):
    """Operands do not live in the expected spaces."""


class NonFiniteError(FalmError, ValueError):
    """A vector acquired a NaN or infinite entry."""


class SpdSolveError(FalmError, RuntimeError):
    """The inner solve's iterative refinement missed its residual target
    within its correction budget."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class ValidationError(FalmError, ValueError):
    """A solver parameter violates one of the admissibility inequalities.

    ``condition`` names the violated inequality verbatim so callers (and the
    CLI) can report exactly which requirement failed.
    """

    def __init__(self, condition: str, message: str | None = None):
        super().__init__(message or f"parameter condition violated: {condition}")
        self.condition = condition


class CertificationError(FalmError, ValueError):
    """An inertial sequence fails a certified property at a specific index."""

    def __init__(self, condition: str, index: int):
        super().__init__(f"inertial sequence violates '{condition}' at k={index}")
        self.condition = condition
        self.index = index


class StepError(FalmError, RuntimeError):
    """A solver iteration failed; carries the iteration index and the
    ``reason`` a run that it ends reports: "non-finite iterate" or "inner
    solve failure"."""

    def __init__(self, iteration: int, message: str, reason: str):
        super().__init__(f"iteration {iteration}: {message}")
        self.iteration = iteration
        self.reason = reason
