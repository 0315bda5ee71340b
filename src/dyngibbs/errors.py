"""Exception types shared across the package.

Every operational failure mode has its own class so callers can match on
exactly the condition they care about; all inherit from DynGibbsError.
"""


class DynGibbsError(Exception):
    """Base class for all package errors."""


# -- model construction / local numerics ------------------------------------

class InfeasibleNeighborhood(DynGibbsError):
    """Every spin has zero weight under the given boundary."""


class MissingBoundary(DynGibbsError):
    """A neighbor of the queried vertex has no assigned spin."""


class DomainMismatch(DynGibbsError):
    """Two instances with different spin-domain sizes were combined."""


class DegreeTooLarge(DynGibbsError):
    """An exact enumeration guard was exceeded."""


class UnknownVertex(DynGibbsError):
    """The vertex id is not part of the instance or log."""


class InvalidBatch(DynGibbsError):
    """An update batch cannot be applied to the instance."""


class InfeasibleInstance(DynGibbsError):
    """The instance violates the positive-weight neighborhood condition."""


# -- coupling kernel ---------------------------------------------------------

class NotNormalized(DynGibbsError):
    """A probability vector does not sum to 1 within tolerance."""


class ZeroProbabilityCondition(DynGibbsError):
    """Conditioning on an outcome of probability zero."""


class NeighborMismatch(DynGibbsError):
    """Two local views disagree on the vertex or its neighbor set."""


# -- execution log -----------------------------------------------------------

class RankOutOfRange(DynGibbsError):
    """Transition rank outside the valid range."""


# -- dynamic updater ---------------------------------------------------------

class GraphMismatch(DynGibbsError):
    """Hamiltonian update requires identical vertex and edge sets."""


class VertexSetMismatch(DynGibbsError):
    """Edge update requires identical vertex sets."""


class SharedPotentialMismatch(DynGibbsError):
    """Edge update requires shared potentials to be unchanged."""


class NotIsolated(DynGibbsError):
    """Vertex add/delete requires the touched vertices to be isolated."""


# -- inference ---------------------------------------------------------------

class DiffInconsistent(DynGibbsError):
    """A sample-diff entry contradicts the maintained sample."""


class EmptyPosteriorCondition(DynGibbsError):
    """The conditioned assignment was never observed in the sample set."""


# -- models ------------------------------------------------------------------

class ModelMismatch(DynGibbsError):
    """Instance potentials do not fit the declared model family."""


class RegimeViolation(DynGibbsError):
    """Instance parameters fall outside the model's uniqueness regime."""


# -- oracle ------------------------------------------------------------------

class TooLarge(DynGibbsError):
    """Exhaustive enumeration would exceed the configuration guard."""


class SpaceMismatch(DynGibbsError):
    """Two exact distributions live on different configuration spaces."""


# -- cli / serialization -----------------------------------------------------

class ParseError(DynGibbsError):
    """Malformed instance, update-stream, or query document."""

    def __init__(self, message: str, *, line: int | None = None, field: str | None = None):
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if field is not None:
            loc.append(f"field {field!r}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.line = line
        self.field = field


class AsymmetricEdge(ParseError):
    """An edge potential matrix is not symmetric."""


class BadArity(ParseError):
    """A potential vector/matrix has the wrong dimensions for q."""
