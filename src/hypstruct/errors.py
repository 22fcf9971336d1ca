"""Exception types shared across the package."""


class HypstructError(Exception):
    """Base class for all package-specific errors."""


# geometry

class MixedCurvature(HypstructError):
    """Operands carry different curvature constants."""


class OutsideBall(HypstructError):
    """A point violates the open-ball invariant c * ||z||^2 < 1."""


class DimensionMismatch(HypstructError):
    """Operands have incompatible vector dimensions."""


class EmptyInput(HypstructError):
    """An aggregate operation received no points."""


# hierarchy

class ParseError(HypstructError):
    """Malformed hierarchy document; carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(HypstructError):
    """A structural invariant is violated (cycle, orphan, nonpositive weight, ...)."""


class NotALeaf(HypstructError):
    """A leaf-only query was given an internal vertex."""


class InvalidLevelCounts(HypstructError):
    """Balanced-tree level counts fail the divisibility/root constraints."""


# objective

class DegenerateVariance(HypstructError):
    """A correlation operand is constant."""


class LengthMismatch(HypstructError):
    """Paired collections differ in length."""


class EmptyGroup(HypstructError):
    """A dataset-distance group has no rows."""


class EmptyBatch(HypstructError):
    """An operation requires at least one sample."""


class InsufficientVertices(HypstructError):
    """Fewer than three vertex pairs are available for a CPCC term."""


class UnnormalizedInput(HypstructError):
    """Contrastive embeddings are not unit-norm rows."""


class ClassWithoutPositive(HypstructError):
    """No anchor in the batch has a same-class partner."""


# training

class DivergedError(HypstructError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch, batch):
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


# spectral

class PreconditionViolated(HypstructError):
    """A closed-form theorem precondition does not hold."""


class TemplateMismatch(HypstructError):
    """A matrix does not match the declared block template."""


class NotSymmetric(HypstructError):
    """An eigensolver input is not symmetric within tolerance."""


class NonFiniteMatrix(HypstructError):
    """An eigensolver input has a NaN or infinite entry."""


class DegenerateRow(HypstructError):
    """A feature row is zero after centering."""


# diagnostics

class IndexOutOfRange(HypstructError):
    """A point index is outside the distance matrix."""


class ZeroDiameter(HypstructError):
    """All points coincide; relative hyperbolicity is undefined."""


class SingularAfterRegularization(HypstructError):
    """Covariance stayed singular even after the ridge term."""


class MissingEntry(HypstructError):
    """A rank-aggregation table has a missing cell."""
