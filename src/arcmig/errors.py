"""Exception hierarchy shared across the toolkit."""


class ArcmigError(Exception):
    """Base class for all toolkit errors."""


class DomainError(ArcmigError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(ArcmigError, ValueError):
    """A configuration value is structurally invalid or inconsistent."""


class LookupNameError(ArcmigError, KeyError):
    """An unknown catalog or preset name was requested."""


class SolverError(ArcmigError, RuntimeError):
    """The discretized linear system could not be solved reliably."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class DegenerateSteeringError(ArcmigError, ValueError):
    """All candidate directions are orthogonal to the aperture; the steering
    vector cannot be normalized."""


class SingularityError(ArcmigError, ValueError):
    """A closed-form kernel was evaluated at a configuration where one of
    its factors is singular."""

    def __init__(self, message, factor=None):
        super().__init__(message)
        self.factor = factor


class IterationError(ArcmigError, RuntimeError):
    """An iterative refinement failed; carries the last valid state."""

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state


class MapParseError(ArcmigError, ValueError):
    """A persisted artifact could not be parsed; the message names the line
    when one is known."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"{message} (line {line})")
        self.line = line
