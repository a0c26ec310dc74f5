"""Exception hierarchy.

Everything raised on purpose derives from XPointError so callers can catch
one type at the top level. The CLI maps the groups to exit codes:
ConfigError and ParameterError to 1, SimulationError to 2, InvariantError
to 3.
"""

from __future__ import annotations


class XPointError(Exception):
    """Base class for all package errors."""


class ParameterError(XPointError, ValueError):
    """A physical or geometric parameter is out of its valid range."""


class ConfigError(XPointError):
    """Configuration file could not be parsed or validated.

    Collects every individual problem so a bad file is reported once,
    completely, instead of one key at a time.
    """

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class SimulationError(XPointError):
    """A simulated operation could not complete."""


class SingularNetworkError(SimulationError):
    """The resistive network has no unique solution (floating subnetwork)."""


class ConvergenceError(SimulationError):
    """The saturation clamp iteration did not settle."""


class WriteFailureError(SimulationError):
    """A write protocol finished without reaching the target state."""


class ReadDisturbError(SimulationError):
    """A read operation pushed a cell past its switching threshold."""


class IndeterminateReadError(SimulationError):
    """Sense amplifier race too close to call."""


class MisreadError(SimulationError):
    """A read sensed bits other than the ones the array stores."""


class InvariantError(XPointError):
    """An internal self-check failed; results are not trustworthy."""
