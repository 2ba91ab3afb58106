"""Exception taxonomy shared across the package, with the CLI exit code
each class maps to (a new type subclasses the one whose code it shares):

    FleetModelError                   5 unsupported, unless below
      ModelInputError (a ValueError)  2 parse, reported by the scenario parser
      DimensionMismatchError          5
      DelayDomainError                3 infeasible
      UnsupportedDelayError           5
      InfeasibleProblemError          3
        NotRealisableError            3
      ConvergenceError                4 nonconverged

scenario.py's ScenarioError (exit 2) reports a defect of a document, a
ModelInputError among them, at the JSON path of the offending field.
"""


class FleetModelError(Exception):
    """Base class for all package errors."""


class ModelInputError(FleetModelError, ValueError):
    """A model constructor (a delay, Route, ODUnit, Network) refused its
    input, in the one check of that fact.  `code` is the scenario parser's:
    "malformed" (an empty list), "bad-value", "dangling-id" (an id naming
    nothing) or "negative-flow" (a negative demand).  `position` locates
    the field among the constructor's arguments, in scenario-file names:
    ("slope",) in a delay, ("routes", 1, "links", 0) in a network."""

    def __init__(self, code: str, position: tuple, message: str):
        self.code, self.position = code, position
        super().__init__(message)


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
