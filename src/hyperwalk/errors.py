"""Exception types raised by the library.

Every error message names the offending entity (vertex, edge, parameter), so
CLI users see actionable diagnostics instead of bare type names.
"""


class HyperwalkError(Exception):
    """Base class for all domain errors raised by this package."""


# -- construction / validation --------------------------------------------

class DuplicateVertex(HyperwalkError):
    """A vertex is declared twice, or appears twice in one hyperedge."""


class EmptyEdge(HyperwalkError):
    """A hyperedge has no members."""


class NonPositiveWeight(HyperwalkError):
    """An edge or vertex weight is not a finite positive number."""


class DisconnectedHypergraph(HyperwalkError):
    """The clique graph of the hypergraph is not connected."""


class UnknownVertex(HyperwalkError):
    """A vertex name does not appear in the declared vertex set."""


class MalformedInput(HyperwalkError, ValueError):
    """An input file is not valid JSON or text, or does not have the expected
    structure (e.g. an edge that is not an object)."""


# -- walks ------------------------------------------------------------------

class BadBeta(HyperwalkError):
    """Restart probability outside the open interval (0, 1)."""


class SingletonEdge(HyperwalkError):
    """An operation that needs edges of size >= 2 met a one-vertex edge."""


class SizeLimit(HyperwalkError):
    """Input is outside the documented size range of an operation."""


# -- solvers ------------------------------------------------------------------

class ConvergenceFailure(HyperwalkError):
    """An iterative solver did not reach its tolerance within its cap."""


class SingularSystem(HyperwalkError):
    """A linear solve met a singular (or numerically singular) system."""


class NotSymmetric(HyperwalkError):
    """A matrix expected to be symmetric is not."""


# -- preconditions on weights / chains ---------------------------------------

class NotEdgeIndependent(HyperwalkError):
    """Vertex weights differ across incident edges."""


class NotTrivialWeights(HyperwalkError):
    """Vertex weights are not identically one."""


class NotStationary(HyperwalkError):
    """The supplied distribution is not stationary for the supplied chain."""


class IsolatedVertex(HyperwalkError):
    """A graph vertex has zero total edge weight."""


class BoundOverflow(HyperwalkError):
    """A computed bound is too large for a float."""


class Unmixed(HyperwalkError):
    """The chain did not reach the requested total-variation distance in time."""

    def __init__(self, cap: int):
        super().__init__(f"chain not mixed within {cap} steps")
        self.cap = cap

    def __reduce__(self):  # rebuilt from cap: the default would pass the message as cap
        return Unmixed, (self.cap,)


# -- rank aggregation ---------------------------------------------------------

class ScoreOverflow(HyperwalkError):
    """A match score is not finite, or too large to exponentiate into a vertex weight."""


class ElementMismatch(HyperwalkError):
    """Two rankings do not range over the same elements."""
