"""Exception taxonomy shared across the package.

The CLI maps these onto its machine-readable error categories, so new
exception types should subclass one of the four below.
"""


class FleetModelError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(FleetModelError):
    """A flow vector does not match the network's route or link count."""


class DelayDomainError(FleetModelError):
    """A delay function was evaluated outside its domain.

    Raised for negative flows, for signalized links evaluated at a degree
    of saturation outside (0, 1), and for derivatives of BPR delays that are
    unbounded at zero flow (first derivative for powers below 1, second
    derivative for powers below 2).
    """


class UnsupportedDelayError(FleetModelError):
    """The requested analysis does not cover this delay variant."""


class InfeasibleProblemError(FleetModelError):
    """The constraint set is empty or the observation is inconsistent."""


class NotRealisableError(InfeasibleProblemError):
    """No feasible route flow reproduces the given link flow."""


class ConvergenceError(FleetModelError):
    """An iterative solver hit its iteration cap before reaching tolerance."""
