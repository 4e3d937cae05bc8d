"""Exception types shared across the package.

The split mirrors how failures are reported: configuration and shape
problems raise :class:`ValidationError`; numerical failures met while
iterating (degenerate components, constraint violations, underflow)
derive from :class:`NumericalError`, so one ``except`` catches them all.
"""


class GemGmmError(Exception):
    """Base class for all package errors."""


class ValidationError(GemGmmError):
    """Malformed shapes, configs, files, or out-of-range arguments."""


class NumericalError(GemGmmError):
    """Base class for numerical failures of a step or a run."""


class SimplexViolationError(NumericalError):
    """Mixture weights left the probability simplex (w_i <= 0 or bad sum)."""


class InvalidCovarianceError(NumericalError):
    """A covariance block is asymmetric beyond tolerance or not positive
    definite (symmetric factorization failed)."""


class NumericUnderflowError(NumericalError):
    """The mixture density underflowed to zero (or became non-finite) at
    some data point, so log-space quantities are undefined."""


class DegenerateComponentError(NumericalError):
    """A component's responsibility mass collapsed below threshold; the
    closed-form updates would divide by (numerical) zero."""


class StepFailure(NumericalError):
    """A numerical error occurred inside an iteration loop.

    Carries the iteration index and the partial trace accumulated so far,
    so callers can persist what was computed before the failure.
    """

    def __init__(self, iteration, trace, cause):
        self.iteration = iteration
        self.trace = trace
        self.cause = cause
        super().__init__(f"iteration {iteration}: {cause}")
