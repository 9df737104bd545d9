"""Exception types shared across the package."""


class LinesysError(Exception):
    """Base class for every error raised by this package."""


class IdenticalPointsError(LinesysError):
    """A pair operation received the same point twice."""


class UnknownPointError(LinesysError):
    """A point identifier falls outside the ground set."""


class SizeError(LinesysError):
    """The structure is too small for the requested operation."""


class MalformedEdgeError(LinesysError):
    """An edge is malformed: a hypergraph edge that is not a 3-subset of
    the ground set, or a graph adjacency that is not symmetric."""


class CycleError(LinesysError):
    """The supplied order relations contain a directed cycle."""


class DomainError(LinesysError):
    """A bound was evaluated outside its domain of validity."""


class HeightError(LinesysError):
    """The poset height is too small for the line-finding process."""


class UniversalLineError(LinesysError):
    """A universal line exists where the operation requires none."""


class MetricError(LinesysError):
    """A distance matrix violates the metric axioms or exactness rules."""


class DisconnectedError(LinesysError):
    """Shortest-path distances were requested on a disconnected graph."""


class CapError(LinesysError):
    """An exhaustive enumeration was requested beyond its hard cap."""


class InternalError(LinesysError):
    """An internal invariant failed; indicates a bug, not bad input."""


class ParseError(LinesysError):
    """A text input failed to parse.  Carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
