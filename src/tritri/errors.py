"""Exception types raised by the geometry kernel and the batch front end."""


class GeometryError(ValueError):
    """Base class for geometric contract violations."""


class DegenerateTriangle(GeometryError):
    """Triangle vertices are collinear (area below tolerance)."""


class NonFiniteInput(GeometryError):
    """An input coordinate is NaN or infinite."""


class ParseError(ValueError):
    """Input file is malformed. Carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EmptyMesh(ValueError):
    """Mesh file parsed but contains no triangles."""
