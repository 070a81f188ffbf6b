"""Exception hierarchy shared by every module of the package."""


class GeoPlasmaError(Exception):
    """Base class for all package errors."""


class ExprError(GeoPlasmaError):
    """Base class for expression-language errors."""


class ExprSyntaxError(ExprError):
    """Raised when a source string cannot be parsed.

    Carries the byte offset of the failure and the set of token kinds
    that would have been accepted there.
    """

    def __init__(self, message, offset, expected=()):
        self.offset = offset
        self.expected = tuple(expected)
        detail = f"{message} at offset {offset}"
        if self.expected:
            detail += " (expected: " + ", ".join(self.expected) + ")"
        super().__init__(detail)


class UnboundVariableError(ExprError):
    """An expression names a variable its field does not bind (raised when the
    field is compiled)."""

    def __init__(self, name):
        self.name = name
        super().__init__(f"unbound variable '{name}'")


class DomainError(GeoPlasmaError):
    """Math domain failure (log of non-positive, division by zero, ...)."""

    def __init__(self, message, where=None):
        self.where = where
        if where:
            message = f"{message} in '{where}'"
        super().__init__(message)


class TensorError(GeoPlasmaError):
    """Shape, valence or bounds violation on a dense tensor."""


class DegenerateMetricError(GeoPlasmaError):
    """Metric matrix is singular or near-singular at a queried point."""

    def __init__(self, message, point=None):
        self.point = point
        if point is not None:
            message = f"{message} at point {tuple(point)}"
        super().__init__(message)


class NormalizationError(GeoPlasmaError):
    """Velocity quadratic form is not positive where a unit field is needed."""

    def __init__(self, message, point=None, value=None):
        self.point = point
        self.value = value
        if point is not None:
            message = f"{message} at point {tuple(point)}"
        if value is not None:
            message = f"{message} (quadratic form = {value})"
        super().__init__(message)


class SingularDynamicsError(GeoPlasmaError):
    """The inertial factor p + rho*c^2 vanished along a stream line."""


class IntegrationError(GeoPlasmaError):
    """Stream-line integration aborted; carries the failing step index."""

    def __init__(self, message, step):
        self.step = step
        super().__init__(f"{message} (step {step})")


class GridError(GeoPlasmaError):
    """Stream-sheet grid is malformed or too small for the stencils."""


class ScenarioError(GeoPlasmaError):
    """Scenario file failed validation."""


class BatchSplit(Exception):
    """The points of a batch must run apart: in two groups by the condition
    ``lanes`` (a bool per point) they disagree on, or one by one when None."""

    def __init__(self, lanes=None):
        self.lanes = lanes


class SeedingError(TypeError):
    """Jets of two seedings meet, or a seeding is given jets: derivatives are
    first-order in the seeds of one seeding, never nested."""
