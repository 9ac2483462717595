"""Exception types shared across the package, and the schema check of a
JSON document's root."""


class FusionCSError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatchError(FusionCSError):
    """Input matrices do not share a common shape."""


class RankDeficientError(FusionCSError):
    """A basis matrix has linearly dependent columns."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"basis {index} is rank deficient")


class OrthonormalityError(FusionCSError):
    """A stored basis fails the orthonormality check."""


class InvalidDimsError(FusionCSError):
    """Dimensions are inconsistent or out of range."""


class TooManySubspacesError(FusionCSError):
    """More mutually orthogonal subspaces requested than the ambient space holds."""


class InvalidAngleError(FusionCSError):
    """Angle parameter outside [0, pi/2]."""


class SingleSubspaceError(FusionCSError):
    """Pairwise quantity requested on a collection with fewer than two subspaces."""


class IndexOutOfRangeError(FusionCSError):
    """Subspace index outside [0, N)."""


class SameIndexError(FusionCSError):
    """Pairwise quantity requested for a pair (i, i)."""


class NonpositiveWeightError(FusionCSError):
    """Fusion frame weights must be strictly positive."""


class InvalidSparsityError(FusionCSError):
    """Sparsity level outside the admissible range."""


class DimMismatchError(FusionCSError):
    """Operator and operand dimensions are incompatible."""


class ZeroColumnError(FusionCSError):
    """Matrix has an exactly zero column where a normalized one is required."""


class NotOrthogonalError(FusionCSError):
    """Collection is not mutually orthogonal where orthogonality is required."""


class ZeroCoefficientError(FusionCSError):
    """Measurement coefficient is zero where inversion is required."""

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"measurement coefficient {index} is zero")


class TooLargeError(FusionCSError):
    """Exhaustive enumeration guard exceeded."""


class ModeError(FusionCSError):
    """Estimate mode unsuitable for the requested use."""


class InvalidParamError(FusionCSError):
    """Parameter outside its admissible range."""


class NegativeInputError(FusionCSError):
    """Nonnegative input required."""


class ConfigError(FusionCSError):
    """Experiment configuration is invalid."""


class SchemaError(FusionCSError):
    """Serialized document violates its schema."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def require_fields(doc, names) -> None:
    """Raise SchemaError unless doc is a JSON object holding every named field."""
    if not isinstance(doc, dict):
        raise SchemaError("<root>", "expected a JSON object")
    for name in names:
        if name not in doc:
            raise SchemaError(name, "missing field")


class RegimeViolationWarning(UserWarning):
    """A bound was evaluated outside the sparsity regime it was derived for."""
