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
    """A soft-threshold argument sits on the non-differentiable boundary.

    The implicit Jacobian is only defined away from entries with
    ``|Z_ij| == G_ij * Lambda_ij``, where Z is the fixed-point argument at
    the per-entry step G; this error refuses to silently pick a generalized
    derivative there.
    """


class DegenerateSplit(GlassoTuneError):
    """A train/test split would leave one side empty."""


class DegenerateInput(GlassoTuneError):
    """An input admits no meaningful result (e.g. a diagonal covariance
    has no finite smallest regularization producing a diagonal estimate)."""
