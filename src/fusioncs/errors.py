"""Exception types shared across the package, the one reader and the one
writer of JSON documents, and the schema checks of a document's root, its
header and its lists of numbers."""

import json

import numpy as np


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


def read_json(path):
    """The JSON document in the file at path; SchemaError if the file is not
    UTF-8 text or does not parse."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise SchemaError("<json>", f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
        except json.JSONDecodeError as exc:
            raise SchemaError("<json>", f"line {exc.lineno}: {exc.msg}") from exc


def write_json(doc, path, indent=None) -> None:
    """Write doc as JSON to the file at path; an indented document ends with
    a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=indent)
        if indent is not None:
            fh.write("\n")


def require_fields(doc, names) -> None:
    """Raise SchemaError unless doc is a JSON object holding every named field."""
    if not isinstance(doc, dict):
        raise SchemaError("<root>", "expected a JSON object")
    for name in names:
        if name not in doc:
            raise SchemaError(name, "missing field")


def require_header(doc, names) -> None:
    """require_fields for "version" and the named fields, and SchemaError
    unless the version is the integer 1: JSON's true and 1.0 are not."""
    require_fields(doc, ("version", *names))
    version = doc["version"]
    if not (type(version) is int and version == 1):
        raise SchemaError("version", f"unsupported version {version!r}")


def is_integer(value) -> bool:
    """Whether value is a Python or numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def positive_ints(doc, names) -> list[int]:
    """The named fields of doc, each a positive integer; SchemaError
    otherwise. JSON's true and false are not integers here."""
    values = [doc[name] for name in names]
    for name, v in zip(names, values):
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise SchemaError(name, "must be a positive integer")
    return values


def float_list(value, field: str, what: str) -> np.ndarray:
    """value, a JSON list of numbers, as a float array; SchemaError otherwise."""
    if isinstance(value, list):
        try:
            return np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            pass
    raise SchemaError(field, f"{what} must be a list of numbers")


class RegimeViolationWarning(UserWarning):
    """A bound was evaluated outside the sparsity regime it was derived for."""
