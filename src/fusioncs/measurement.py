"""Random measurement ensembles and the two measurement operators.

Scalar operators act on the stacked ambient vector through a dense
m' x (d*N) matrix. Vector operators take m linear combinations of the
ambient blocks, y_i = sum_j A[i, j] x_j, which is the action of A (x) I_d.
Composed with the subspace bases, either operator becomes one dense matrix
over the coefficient vector (:class:`CoefficientOperator`), which the
solver, the isometry constants and the oracle all read.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from .errors import (
    DimMismatchError,
    InvalidDimsError,
    SchemaError,
    ZeroColumnError,
    require_fields,
)
from .frames import SubspaceCollection, coherence
from .signals import BlockSignal, to_ambient

DISTRIBUTIONS = ("gaussian", "bernoulli", "uniform_scaled")
OPERATOR_KINDS = ("vector", "scalar")
_UNIFORM_HALF_WIDTH = math.sqrt(3.0)  # variance one on [-sqrt(3), sqrt(3)]
_CHUNK_ENTRIES = 2**15  # stacked matrix entries per chunk of supports


@dataclass(frozen=True)
class EnsembleSpec:
    """Recipe for an i.i.d. mean-zero, variance-one random matrix."""

    distribution: str
    rows: int
    cols: int
    seed: int

    def __post_init__(self):
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.rows < 1 or self.cols < 1:
            raise InvalidDimsError(f"need rows, cols >= 1, got {self.rows}x{self.cols}")


def sample_ensemble(spec: EnsembleSpec) -> np.ndarray:
    """Draw the matrix described by ``spec``; deterministic given its seed."""
    rng = np.random.default_rng(spec.seed)
    shape = (spec.rows, spec.cols)
    if spec.distribution == "gaussian":
        return rng.standard_normal(shape)
    if spec.distribution == "bernoulli":
        return rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0
    return rng.uniform(-_UNIFORM_HALF_WIDTH, _UNIFORM_HALF_WIDTH, size=shape)


@lru_cache(maxsize=None)
def subgaussian_alpha(distribution: str) -> float:
    """Smallest alpha with P(|xi| > t) <= 2 exp(-t^2 / (2 alpha^2)) for all t.

    Gaussian and symmetric Bernoulli entries are 1-subgaussian under this
    tail convention. For the scaled uniform law the supremum of
    t^2 / (2 log(2 / P(|xi| > t))) over t is found numerically.
    """
    if distribution in ("gaussian", "bernoulli"):
        return 1.0
    if distribution != "uniform_scaled":
        raise ValueError(f"unknown distribution {distribution!r}")
    from scipy import optimize

    a = _UNIFORM_HALF_WIDTH

    def neg_alpha_sq(t):
        tail = 1.0 - t / a
        return -(t * t) / (2.0 * math.log(2.0 / tail))

    res = optimize.minimize_scalar(neg_alpha_sq, bounds=(1e-9, a - 1e-9), method="bounded")
    return math.sqrt(-res.fun)


@lru_cache(maxsize=None)
def psi2_norm(distribution: str) -> float:
    """Orlicz psi_2 norm: inf {C > 0 : E exp(xi^2 / (2 C^2)) <= 2}."""
    if distribution == "gaussian":
        # E exp(g^2 / 2C^2) = (1 - 1/C^2)^{-1/2} = 2  =>  C = 2/sqrt(3)
        return 2.0 / math.sqrt(3.0)
    if distribution == "bernoulli":
        return 1.0 / math.sqrt(2.0 * math.log(2.0))
    if distribution != "uniform_scaled":
        raise ValueError(f"unknown distribution {distribution!r}")
    from scipy import optimize, special

    a = _UNIFORM_HALF_WIDTH

    def moment_minus_two(c):
        # E exp(x^2/2c^2) over U[-a, a] in closed form via the imaginary
        # error function.
        z = a / (math.sqrt(2.0) * c)
        return math.sqrt(math.pi / 2.0) * (c / a) * special.erfi(z) - 2.0

    return float(optimize.brentq(moment_minus_two, 0.3, 10.0, xtol=1e-12))


@dataclass(frozen=True)
class MeasurementOperator:
    """Dense scalar map Phi or a coefficient matrix A applied blockwise.

    ``scale`` is a normalization applied on every application (for example
    1/sqrt(m)); the stored matrix keeps its raw sampled entries so one sample
    serves both the raw and the normalized conventions.
    """

    kind: str  # "scalar" | "vector"
    matrix: np.ndarray
    block_dim: int | None = None
    scale: float = 1.0

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float)
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        if self.kind not in OPERATOR_KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if mat.ndim != 2:
            raise InvalidDimsError("operator matrix must be two-dimensional")
        if self.kind == "vector":
            if self.block_dim is None or self.block_dim < 1:
                raise InvalidDimsError("vector operators need a positive block_dim")

    @property
    def output_dim(self) -> int:
        if self.kind == "scalar":
            return self.matrix.shape[0]
        return self.matrix.shape[0] * self.block_dim

    @property
    def ambient_dim(self) -> int:
        if self.kind == "scalar":
            return self.matrix.shape[1]
        return self.matrix.shape[1] * self.block_dim


def scalar_operator(phi: np.ndarray, scale: float = 1.0) -> MeasurementOperator:
    return MeasurementOperator(kind="scalar", matrix=phi, scale=scale)


def vector_operator(a: np.ndarray, block_dim: int, scale: float = 1.0) -> MeasurementOperator:
    return MeasurementOperator(kind="vector", matrix=a, block_dim=block_dim, scale=scale)


def _as_ambient(op: MeasurementOperator, x) -> np.ndarray:
    if isinstance(x, BlockSignal):
        x = to_ambient(x)
    x = np.asarray(x, dtype=float)
    if x.shape != (op.ambient_dim,):
        raise DimMismatchError(f"expected ambient length {op.ambient_dim}, got {x.shape}")
    return x


def apply(op: MeasurementOperator, x) -> np.ndarray:
    """Measure an ambient vector or block signal."""
    x = _as_ambient(op, x)
    if op.kind == "scalar":
        return op.scale * (op.matrix @ x)
    n = op.matrix.shape[1]
    blocks = x.reshape(n, op.block_dim)
    return (op.scale * (op.matrix @ blocks)).ravel()


def adjoint(op: MeasurementOperator, y) -> np.ndarray:
    """Exact transpose action of :func:`apply`."""
    y = np.asarray(y, dtype=float)
    if y.shape != (op.output_dim,):
        raise DimMismatchError(f"expected output length {op.output_dim}, got {y.shape}")
    if op.kind == "scalar":
        return op.scale * (op.matrix.T @ y)
    m = op.matrix.shape[0]
    blocks = y.reshape(m, op.block_dim)
    return (op.scale * (op.matrix.T @ blocks)).ravel()


class CoefficientOperator:
    """Composition of a measurement operator with the subspace bases.

    Maps coefficient vectors c to the measurement of the signal with blocks
    U_j c_j, so a recovery program over c never has to carry the membership
    constraint. The map is built once as the read-only dense matrix
    ``matrix`` (out_dim x in_dim), whose columns for block j are
    scale * (A[:, j] (x) U_j) for a vector operator and scale * Phi_j U_j
    for a scalar one, Phi_j being the d columns of Phi that act on block j.
    The Kronecker block is formed by broadcasting A[:, j] against U_j, one
    product per entry as in ``np.kron``, so both give the same bits; ragged
    block dims take the same per-block path.
    """

    def __init__(self, op: MeasurementOperator, collection: SubspaceCollection):
        d = collection.ambient_dim
        if op.kind == "vector":
            if op.matrix.shape[1] != collection.size:
                raise DimMismatchError(
                    f"operator has {op.matrix.shape[1]} columns for "
                    f"{collection.size} subspaces"
                )
            if op.block_dim != d:
                raise DimMismatchError(f"operator block_dim {op.block_dim} != ambient {d}")
            # block j is A[:, j] (x) U_j: row i*d + r holds A[i, j] * U_j[r]
            blocks = [(op.matrix[:, j, None, None] * u).reshape(-1, u.shape[1])
                      for j, u in enumerate(collection.bases)]
        else:
            if op.matrix.shape[1] != d * collection.size:
                raise DimMismatchError(
                    f"operator has {op.matrix.shape[1]} columns for ambient "
                    f"dimension {d * collection.size}"
                )
            blocks = [op.matrix[:, j * d : (j + 1) * d] @ u for j, u in enumerate(collection.bases)]
        self.matrix = op.scale * np.hstack(blocks)
        self.matrix.flags.writeable = False
        self.collection = collection
        dims = collection.block_dims
        self.block_starts = np.concatenate([[0], np.cumsum(dims)])[:-1].astype(int)
        self.block_dims = dims
        self.out_dim, self.in_dim = self.matrix.shape

    def matvec(self, c: np.ndarray) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        if c.shape != (self.in_dim,):
            raise DimMismatchError(f"expected length {self.in_dim}, got {c.shape}")
        return self.matrix @ c

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.out_dim,):
            raise DimMismatchError(f"expected length {self.out_dim}, got {y.shape}")
        return self.matrix.T @ y

    def support_columns(self, support) -> np.ndarray:
        """Column indices of the given blocks, block by block in the given order."""
        starts, dims = self.block_starts, self.block_dims
        return np.array([i for j in support for i in range(starts[j], starts[j] + dims[j])], dtype=int)

    def support_matrix(self, support) -> np.ndarray:
        """Dense matrix of the columns belonging to the given blocks."""
        return self.matrix[:, self.support_columns(support)]

    def block_slice(self, j: int) -> slice:
        start = int(self.block_starts[j])
        return slice(start, start + self.block_dims[j])


def support_chunks(supports, s: int, entries: int):
    """(n, s) arrays of the s-supports from an iterable, in order.

    Each chunk holds about _CHUNK_ENTRIES // entries supports (at least
    one), so stacked matrices of ``entries`` entries per support stay
    bounded whatever the number of supports.
    """
    supports = iter(supports)
    size = max(1, _CHUNK_ENTRIES // entries)
    while chunk := list(islice(supports, size)):
        yield np.array(chunk, dtype=int).reshape(len(chunk), s)


def stacked_columns(block_starts, block_dims, supports):
    """Column index of each support, stacked by column count.

    For each distinct column count among the rows of ``supports``, an
    integer array of block indices, yields (rows, cols): the positions of
    the supports with that count and their column indices, one row per
    support, block by block in the order of the support.
    """
    lengths = np.asarray(block_dims)[supports]
    counts = lengths.sum(axis=1)
    # not np.unique: its first call in a process imports numpy.ma
    for count in sorted(set(counts.tolist())):
        rows = np.flatnonzero(counts == count)
        blocks, sizes = supports[rows].ravel(), lengths[rows].ravel()
        # column t of the flattened run lies in block b at offset t - (ends_b - size_b)
        ends = np.cumsum(sizes)
        cols = np.repeat(block_starts[blocks] - (ends - sizes), sizes) + np.arange(count * len(rows))
        yield rows, cols.reshape(len(rows), count)


def compose_with_bases(op: MeasurementOperator, collection: SubspaceCollection) -> CoefficientOperator:
    """Coefficient-space reformulation of the measurement map."""
    return CoefficientOperator(op, collection)


def add_noise(y: np.ndarray, eta: float, seed: int) -> np.ndarray:
    """Add a Gaussian-direction perturbation rescaled to norm exactly eta.

    Pinning the noise to the constraint boundary exercises the hardest
    feasible case of a noise-aware recovery program.
    """
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    y = np.asarray(y, dtype=float)
    if eta == 0.0:
        return y.copy()
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(y.shape[0])
    e *= eta / np.linalg.norm(e)
    return y + e


def matrix_coherences(a: np.ndarray, collection: SubspaceCollection) -> tuple[float, float]:
    """Column coherence of A and its subspace-weighted variant.

    Columns are internally l2-normalized. Returns (mu, mu_f) with
    mu = max_{j != l} |<a_j, a_l>| and mu_f weighting each pair by the
    overlap sigma_max(U_j^T U_l) of the corresponding subspaces.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise InvalidDimsError("A must be a matrix")
    if a.shape[1] != collection.size:
        raise DimMismatchError(
            f"A has {a.shape[1]} columns for {collection.size} subspaces"
        )
    norms = np.linalg.norm(a, axis=0)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise ZeroColumnError(f"column {int(zero[0])} of A is zero")
    an = a / norms
    gram = np.abs(an.T @ an)
    np.fill_diagonal(gram, 0.0)
    mu = float(gram.max())
    sigma = coherence(collection).pairwise_sigma.copy()
    np.fill_diagonal(sigma, 0.0)
    mu_f = float((gram * sigma).max())
    return mu, mu_f


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def matrix_to_dict(mat: np.ndarray) -> dict:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2:
        raise InvalidDimsError("only matrices serialize to JSON")
    return {
        "version": 1,
        "rows": int(mat.shape[0]),
        "cols": int(mat.shape[1]),
        "data": mat.ravel().tolist(),
    }


def matrix_from_dict(doc: dict) -> np.ndarray:
    require_fields(doc, ("version", "rows", "cols", "data"))
    if doc["version"] != 1:
        raise SchemaError("version", f"unsupported version {doc['version']!r}")
    rows, cols = doc["rows"], doc["cols"]
    for name, v in (("rows", rows), ("cols", cols)):
        if not isinstance(v, int) or v < 1:
            raise SchemaError(name, "must be a positive integer")
    data = np.asarray(doc["data"], dtype=float)
    if data.shape != (rows * cols,):
        raise SchemaError("data", f"expected {rows * cols} entries, got {data.size}")
    return data.reshape(rows, cols)


def save_matrix(mat: np.ndarray, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_dict(mat), fh)


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_dict(json.load(fh))
