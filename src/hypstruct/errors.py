"""Exception types shared across the package, and the message and field
check of a rejected config value."""


def must_be(name, rule, value) -> str:
    return f"{name}: must be {rule}, got {value!r}"


def check_fields(spec, checks):
    """Raise ValueError(must_be(...)) for the first ``(field, ok, rule)`` not ok."""
    for name, ok, rule in checks:
        if not ok:
            raise ValueError(must_be(name, rule, getattr(spec, name)))


class HypstructError(Exception):
    """Base class for all package-specific errors."""


# command line

class ConfigError(HypstructError):
    """A config key is unknown, missing or in conflict; the message names its path."""


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


class InsufficientVertices(HypstructError):
    """Fewer than three vertex pairs are available for a CPCC term."""


class ClassWithoutPositive(HypstructError):
    """No anchor in the batch has a same-class partner."""


# training

class DivergedError(HypstructError):
    """Training produced a non-finite loss.  The message also counts the
    run's atanh clamps and ball-clip rescales so far: a run that diverged
    at the ball's boundary shows them."""

    def __init__(self, epoch, batch, atanh_clamps, clip_rescales):
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch} "
                         f"(after {atanh_clamps} atanh clamps and {clip_rescales} "
                         f"ball-clip rescales)")
        self.epoch = epoch
        self.batch = batch


# spectral

class PreconditionViolated(HypstructError):
    """A closed-form theorem precondition does not hold."""


class NotSymmetric(HypstructError):
    """An eigensolver input is not symmetric within tolerance."""


class NonFiniteMatrix(HypstructError):
    """An eigensolver input has a NaN or infinite entry."""


class DegenerateRow(HypstructError):
    """A feature row is zero after centering."""


# diagnostics

class EmptyInput(HypstructError):
    """An aggregate operation (AUROC, Borda count) received no values."""


class ZeroDiameter(HypstructError):
    """All points coincide; relative hyperbolicity is undefined."""


class SingularAfterRegularization(HypstructError):
    """Covariance stayed singular even after the ridge term."""


class MissingEntry(HypstructError):
    """A rank-aggregation table has a missing cell."""
