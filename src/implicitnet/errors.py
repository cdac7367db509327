"""Exception types shared across the package."""


class ImplicitNetError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(ImplicitNetError):
    """Operands have incompatible shapes."""


class SingularMatrixError(ImplicitNetError):
    """A linear solve hit a (numerically) singular matrix.

    ``layer`` is set when the solve belonged to a network layer's backward pass.
    """

    def __init__(self, message, layer=None):
        super().__init__(message)
        self.layer = layer


class SolverDivergedError(ImplicitNetError):
    """The nonlinear solver failed to reach the requested residual."""

    def __init__(self, message, residual=None, layer=None):
        super().__init__(message)
        self.residual = residual
        self.layer = layer


class NonFiniteLossError(ImplicitNetError):
    """A loss evaluation produced NaN or Inf."""


class InvalidCountError(ImplicitNetError):
    """A dataset generator was asked for an unusable number of points."""


class ParseError(ImplicitNetError):
    """A config, checkpoint or command-line value could not be parsed."""
