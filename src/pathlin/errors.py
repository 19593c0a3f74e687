"""Exception hierarchy shared by all pathlin modules.

Validation errors signal bad inputs (CLI exit code 2); the remaining
exceptions signal numerical or geometric failure during a computation
(CLI exit code 3).
"""


class PathlinError(Exception):
    """Base class for all pathlin errors."""


class ValidationError(PathlinError):
    """Malformed input data (file schema, shape mismatch, bad field)."""


class NoOverlap(PathlinError):
    """A point does not lie in the target chart's domain."""


class NoOracle(PathlinError):
    """The model has no closed-form exp/log/dist oracle."""


class OutOfInjectivityRange(PathlinError):
    """A log/exp request exceeds the conservative injectivity floor r0."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class NonFiniteState(PathlinError):
    """An ODE state became non-finite (chart blow-up or stiffness)."""


class GridTooCoarse(PathlinError):
    """The grid has too few nodes for the requested stencil or operation, or
    is too coarse to resolve a computed curve."""


class IllConditioned(PathlinError):
    """A least-squares normal system exceeded the condition limit."""


class ChartContinuationFailure(PathlinError):
    """No admissible chart was found when leaving the current chart."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class NotImmersed(PathlinError):
    """A curve's speed dropped below the immersion floor."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node
