"""Exception types shared across the library."""


class MirrorflowError(Exception):
    """Base class for all library-specific errors."""


class InfeasiblePoint(MirrorflowError):
    """A primal point violates feasible-set membership beyond tolerance."""


class BoundaryMinimizer(MirrorflowError):
    """A minimizer sits on the boundary of the feasible set, so no finite
    dual anchor exists and energy bookkeeping is unavailable."""


class NoConvergence(MirrorflowError):
    """An iterative solver exhausted its budget above the requested tolerance."""


class NonPositiveTime(MirrorflowError):
    """A schedule was evaluated at t <= 0, outside its domain."""


class InvalidRegime(MirrorflowError):
    """Exponent-selection rules were queried outside their validity region."""


class NonFinite(MirrorflowError):
    """A simulated state coordinate became NaN or infinite."""


class StepTooLarge(MirrorflowError):
    """The step size violates the a(t) * h <= 1/2 averaging guard."""


class StrideTooCoarse(MirrorflowError):
    """An operation needs per-step recording but the trajectory was thinned."""


class NonPositiveValues(MirrorflowError):
    """A log-log fit was requested on a series with non-positive entries."""


class ShortFitWindow(MirrorflowError):
    """A log-log fit window holds too few distinct recorded times."""


class ConfigError(MirrorflowError):
    """Base class for scenario-configuration problems."""


class ParseError(ConfigError):
    """A configuration file could not be parsed; carries a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class ValidationError(ConfigError):
    """A parsed configuration violates one or more constraints."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
