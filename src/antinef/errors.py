"""Exception types shared across the package."""


class ClusterStructureError(ValueError):
    """A point addition would violate the proximity/blowup combinatorics."""


class CoordinateError(ValueError):
    """An operation needs a point coordinate that was never recorded."""


class InexactNumberError(TypeError, ValueError):
    """A value that is not an exact number (a float, say) where one is needed."""


class PolynomialSyntaxError(ValueError):
    """Polynomial text failed to parse; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ScenarioError(ValueError):
    """Scenario text failed to parse or validate; carries the line number."""

    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line
