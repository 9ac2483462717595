"""Random measurement ensembles, one table of their constants, and the two operators.

Scalar operators act on the stacked ambient vector through a dense
m' x (d*N) matrix. Vector operators take m linear combinations of the
ambient blocks, y_i = sum_j A[i, j] x_j, which is the action of A (x) I_d.
Composed with the subspace bases, either operator becomes one dense matrix
over the coefficient vector (:class:`CoefficientOperator`), which the
solver, the isometry constants and the oracle all read. Every exhaustive
support enumeration walks :func:`support_chunks`, chunks of supports and
their columns sliced from one read-only table per level or streamed;
beside it, the oracle's unions of blocks (:func:`support_unions`).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, islice

import numpy as np

from .errors import (
    DimMismatchError,
    InvalidDimsError,
    SchemaError,
    ZeroColumnError,
    float_list,
    is_integer,
    positive_ints,
    read_json,
    require_header,
    write_json,
)
from .frames import SubspaceCollection, coherence
from .signals import BlockSignal, to_ambient

# One row per entry law xi: alpha and psi2 as subgaussian_alpha and psi2_norm
# define them (bounds.sufficient_uniform_vector carries alpha^4), and beta, the
# log power of bounds.sufficient_nonuniform_vector. A Gaussian xi has
# E exp(xi^2 / (2 C^2)) = (1 - 1/C^2)^{-1/2}. For xi uniform on [-a, a],
# a = sqrt(3), the stored doubles solve alpha^2 = sup_{0<t<a} t^2 / (2 ln(2 / (1 - t/a)))
# and sqrt(pi/2) (C/a) erfi(a / (sqrt(2) C)) = 2.
_Ensemble = namedtuple("_Ensemble", "alpha psi2 beta")
_ENSEMBLES = {
    "gaussian": _Ensemble(1.0, 2.0 / math.sqrt(3.0), 2),
    "bernoulli": _Ensemble(1.0, 1.0 / math.sqrt(2.0 * math.log(2.0)), 1),
    "uniform_scaled": _Ensemble(0.6474576263690153, 0.9463699055361486, 1),
}
DISTRIBUTIONS = tuple(_ENSEMBLES)
OPERATOR_KINDS = ("vector", "scalar")
_UNIFORM_HALF_WIDTH = math.sqrt(3.0)  # variance one on [-sqrt(3), sqrt(3)]
_CHUNK_ENTRIES = 2**15  # stacked matrix entries per chunk of supports
_TABLE_ENTRIES = 2**18  # index entries of the largest shared support table (2 MiB)


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
        if not (is_integer(self.rows) and is_integer(self.cols)) or self.rows < 1 or self.cols < 1:
            raise InvalidDimsError(f"need integer rows, cols >= 1, got {self.rows!r}x{self.cols!r}")


def sample_ensemble(spec: EnsembleSpec) -> np.ndarray:
    """Draw the matrix described by ``spec``; deterministic given its seed."""
    return sample_ensembles(spec.distribution, spec.rows, spec.cols, [np.random.default_rng(spec.seed)])[0]


def sample_ensembles(distribution: str, rows: int, cols: int, rngs) -> np.ndarray:
    """A (len(rngs), rows, cols) stack of matrices of the distribution, one
    drawn from each generator of ``rngs`` as :func:`sample_ensemble` draws
    from its seed's, each written in place."""
    out = np.empty((len(rngs), rows, cols))
    for rng, mat in zip(rngs, out):
        if distribution == "gaussian":
            rng.standard_normal(out=mat)
        elif distribution == "bernoulli":
            mat[...] = rng.integers(0, 2, size=mat.shape)
            mat *= 2.0
            mat -= 1.0
        else:
            mat[...] = rng.uniform(-_UNIFORM_HALF_WIDTH, _UNIFORM_HALF_WIDTH, size=mat.shape)
    return out


def _ensemble(distribution: str):
    try:
        return _ENSEMBLES[distribution]
    except KeyError:
        raise ValueError(f"unknown distribution {distribution!r}") from None


def subgaussian_alpha(distribution: str) -> float:
    """Smallest alpha with P(|xi| > t) <= 2 exp(-t^2 / (2 alpha^2)) for all t."""
    return _ensemble(distribution).alpha


def psi2_norm(distribution: str) -> float:
    """Orlicz psi_2 norm: inf {C > 0 : E exp(xi^2 / (2 C^2)) <= 2}."""
    return _ensemble(distribution).psi2


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


class CoefficientOperator:
    """Composition of a measurement operator with the subspace bases.

    Maps coefficient vectors c to the measurement of the signal with blocks
    U_j c_j, so a recovery program over c never has to carry the membership
    constraint. The map is built once as the read-only dense matrix
    ``matrix`` (out_dim x in_dim), whose columns for block j are
    scale * (A[:, j] (x) U_j) for a vector operator and scale * Phi_j U_j
    for a scalar one, Phi_j being the d columns of Phi that act on block j.
    An operator is the stack of one of :func:`coefficient_operators`.
    """

    def __init__(self, op: MeasurementOperator, collection: SubspaceCollection):
        if op.kind == "vector" and op.block_dim != collection.ambient_dim:
            raise DimMismatchError(f"operator block_dim {op.block_dim} != ambient {collection.ambient_dim}")
        self._bind(collection, coefficient_operators(op.kind, op.matrix[None], op.scale, collection)[0].matrix)

    def _bind(self, collection: SubspaceCollection, matrix: np.ndarray) -> "CoefficientOperator":
        self.matrix, self.collection = matrix, collection
        self.out_dim, self.in_dim = matrix.shape
        return self

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

    def support_matrix(self, support) -> np.ndarray:
        """Dense matrix of the columns belonging to the given blocks, block
        by block in the given order."""
        supports = np.asarray(tuple(support), dtype=int).reshape(1, -1)
        return self.matrix[:, support_columns(supports, self.collection.block_dim)[0]]


def chunk_size(entries: int) -> int:
    """Supports per chunk when each stacks ``entries`` matrix entries."""
    return max(1, _CHUNK_ENTRIES // entries)


def support_chunks(n: int, k: int, s: int, entries: int):
    """(supports, columns) for every s-subset of range(n), in lexicographic
    order, in chunks of ``chunk_size(entries)`` supports: a (c, s) array
    of supports and its :func:`support_columns` for blocks of k columns.

    When the level holds at most _TABLE_ENTRIES indices, the chunks are
    read-only slices of one table built on first use and kept for the
    process (the 32 last used), keyed by n, k and s; above that, the
    supports stream from ``itertools.combinations``, with the same values.
    """
    size = chunk_size(entries)
    if math.comb(n, s) * s * (k + 1) <= _TABLE_ENTRIES:
        supports, cols = _support_table(n, k, s)
        for i in range(0, len(supports), size):
            yield supports[i:i + size], cols[i:i + size]
        return
    everything = combinations(range(n), s)
    while chunk := list(islice(everything, size)):
        chunk = np.array(chunk, dtype=int).reshape(len(chunk), s)
        yield chunk, support_columns(chunk, k)


@lru_cache(maxsize=32)
def _support_table(n: int, k: int, s: int) -> tuple:
    supports = np.fromiter(chain.from_iterable(combinations(range(n), s)), dtype=int,
                           count=math.comb(n, s) * s).reshape(-1, s)
    cols = support_columns(supports, k)
    supports.flags.writeable = cols.flags.writeable = False
    return supports, cols


def support_unions(n: int, k: int, s: int, rows: int) -> tuple:
    """The unions of blocks that screen the supports of up to s of n blocks
    of k columns in a matrix of ``rows`` rows: a read-only array of their
    columns, one union per row, each of fewer than ``rows`` columns, and a
    read-only (unions, n) mask of their blocks.

    t = (rows - 1) // k blocks is the widest union whose QR of [B_U | y]
    still has a residual entry. The blocks split into consecutive groups
    of g = t // s, and the unions are every s-combination of groups in
    lexicographic order (all groups, when there are at most s), each
    padded with the lowest-index blocks outside it to the common width of
    min(s * g, n) blocks: one stacked QR screens them all, and every
    support lies inside one. There are none when g = 0, or when their
    table would hold more than _TABLE_ENTRIES indices. The arrays are
    built on first use and kept for the process (the 32 last used).
    """
    g = (rows - 1) // k // s if s else 0
    groups = -(-n // g) if g else 0
    if g and math.comb(groups, min(s, groups)) * min(s * g, n) * (k + 1) <= _TABLE_ENTRIES:
        return _support_unions(n, k, g, s)
    return np.empty((0, 0), dtype=int), np.zeros((0, n), dtype=bool)


@lru_cache(maxsize=32)
def _support_unions(n: int, k: int, g: int, s: int) -> tuple:
    groups = -(-n // g)
    inside = (np.arange(n) // g == _support_table(groups, 1, min(s, groups))[0][:, :, None]).any(axis=1)
    # pad each union with the lowest-index blocks outside it
    free = ~inside
    mask = inside | (free & (np.cumsum(free, axis=1) <= min(s * g, n) - inside.sum(axis=1, keepdims=True)))
    cols = support_columns(np.nonzero(mask)[1].reshape(len(mask), -1), k)
    cols.flags.writeable = mask.flags.writeable = False
    return cols, mask


def support_columns(supports, k: int) -> np.ndarray:
    """Column indices of each row of an (n, s) array of supports over
    blocks of k columns, block j being columns j*k, ..., j*k + k - 1: an
    (n, s*k) array, block by block in the order of the support."""
    return (supports[:, :, None] * k + np.arange(k)).reshape(len(supports), -1)


def coefficient_operators(kind: str, mats, scale: float, collection: SubspaceCollection) -> list:
    """One :class:`CoefficientOperator` per matrix of the stack ``mats`` (a
    vector operator's A, of block dim the ambient dimension, or a scalar
    operator's Phi), all of one scale on one collection, built in one
    broadcast: the vector matrix multiplies A, its columns repeated over
    their blocks' columns, by the bases side by side, one product per entry
    as in ``np.kron``, so both give the same bits. Each operator equals the
    one built from its matrix alone, bit for bit. A non-finite entry raises
    ValueError, so no solve, isometry constant or oracle ever sees one.
    """
    mats = np.asarray(mats, dtype=float)
    d, n = collection.ambient_dim, collection.size
    if kind == "vector" and mats.shape[2] != n:
        raise DimMismatchError(f"operator has {mats.shape[2]} columns for {n} subspaces")
    if kind == "scalar" and mats.shape[2] != d * n:
        raise DimMismatchError(f"operator has {mats.shape[2]} columns for ambient dimension {d * n}")
    # a non-finite entry (inf * 0 is NaN) or an overflow fails once, below
    with np.errstate(invalid="ignore", over="ignore"):
        if kind == "vector":
            # column t of block j is A[:, j] (x) U_j[:, t]: row i*d + r
            # holds A[i, j] * U_j[r, t], with j = owner[t]
            owner = np.repeat(np.arange(n), collection.block_dim)
            bases = np.hstack(collection.bases)
            out = scale * (mats[:, :, None, owner] * bases).reshape(len(mats), -1, bases.shape[1])
        else:
            out = scale * np.concatenate(
                [mats[:, :, j * d:(j + 1) * d] @ u for j, u in enumerate(collection.bases)], axis=2)
    if not np.isfinite(out).all():
        raise ValueError("the operator has non-finite entries")
    out.flags.writeable = False
    return [CoefficientOperator.__new__(CoefficientOperator)._bind(collection, matrix) for matrix in out]


def compose_with_bases(op: MeasurementOperator, collection: SubspaceCollection) -> CoefficientOperator:
    """Coefficient-space reformulation of the measurement map."""
    return CoefficientOperator(op, collection)


def add_noise(y: np.ndarray, eta: float, seed: int) -> np.ndarray:
    """Add a Gaussian-direction perturbation rescaled to norm exactly eta.

    Pinning the noise to the constraint boundary exercises the hardest
    feasible case of a noise-aware recovery program.
    """
    if not 0 <= eta < math.inf:  # NaN fails every comparison
        raise ValueError("eta must be nonnegative and finite")
    y = np.asarray(y, dtype=float)
    if eta == 0.0:
        return y.copy()
    return perturb(y, eta, sample_ensembles("gaussian", 1, y.shape[0], [np.random.default_rng(seed)])[0, 0])


def perturb(y: np.ndarray, eta: float, e: np.ndarray) -> np.ndarray:
    """y plus the direction e rescaled to norm eta."""
    return y + e * (eta / np.linalg.norm(e))


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
    require_header(doc, ("rows", "cols", "data"))
    rows, cols = positive_ints(doc, ("rows", "cols"))
    data = float_list(doc["data"], "data", "data")
    if data.ndim != 1:
        raise SchemaError("data", "must be a flat list of rows * cols numbers")
    if data.shape != (rows * cols,):
        raise SchemaError("data", f"expected {rows * cols} entries, got {data.size}")
    return data.reshape(rows, cols)


def save_matrix(mat: np.ndarray, path) -> None:
    write_json(matrix_to_dict(mat), path)


def load_matrix(path) -> np.ndarray:
    return matrix_from_dict(read_json(path))
