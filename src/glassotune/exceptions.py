"""Exception hierarchy shared by all glassotune modules."""


class GlassoTuneError(Exception):
    """Base class for all errors raised by this package."""


class NotPositiveDefinite(GlassoTuneError):
    """A matrix expected to be SPD has a nonpositive pivot.

    Signals that an iterate left the SPD cone or that an input covariance
    (or an unpenalized problem) is degenerate.
    """


class SingularSystem(GlassoTuneError):
    """A symmetric linear system is numerically singular.

    Raised when conjugate gradients meet a direction of nonpositive
    curvature or exhaust their iteration budget, e.g. for a restricted
    Kronecker block that is not positive definite.
    """


class NotConverged(GlassoTuneError):
    """An iterative solver hit its iteration budget before its tolerance."""

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class DegenerateSupport(GlassoTuneError):
    """An estimate's support is not the support of its fixed point.

    Raised by :func:`~glassotune.implicit.support_from_estimate`, which
    states the check; kinks themselves are not an error.
    """


class DegenerateSplit(GlassoTuneError):
    """A train/test split would leave one side empty."""


class DegenerateInput(GlassoTuneError):
    """An input admits no meaningful result (e.g. a diagonal covariance
    has no finite smallest regularization producing a diagonal estimate)."""
