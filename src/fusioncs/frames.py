"""Collections of subspaces of R^d and their pairwise geometry.

A collection holds N subspaces, each represented by a d x k matrix with
orthonormal columns. Projections P_j = U_j U_j^T are formed only for
the frame bounds; everything pairwise (coherence, principal angles, spectral
distance, packing diameter) is computed from the small k x k products U_i^T U_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    IndexOutOfRangeError,
    InvalidAngleError,
    InvalidDimsError,
    NonpositiveWeightError,
    OrthonormalityError,
    RankDeficientError,
    SameIndexError,
    SchemaError,
    ShapeMismatchError,
    SingleSubspaceError,
    TooManySubspacesError,
    float_list,
    is_integer,
    positive_ints,
    read_json,
    require_header,
    write_json,
)

ORTHONORMALITY_TOL = 1e-10


def _orthonormalize(basis: np.ndarray) -> np.ndarray:
    """Thin QR factor with nonnegative R diagonal (deterministic sign choice),
    of one d x k matrix or of each matrix in a stack (..., d, k)."""
    q, r = np.linalg.qr(basis)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return q * signs[..., None, :]


def _stack_bases(bases) -> np.ndarray:
    """The bases as one new (N, d, k) float stack, once they are at least
    one and all d x k matrices of one shape with 1 <= k <= d."""
    mats = [np.asarray(u, dtype=float) for u in bases]
    if not mats:
        raise InvalidDimsError("a collection needs at least one subspace")
    for j, u in enumerate(mats):
        if u.ndim != 2:
            raise InvalidDimsError(f"basis {j} is not a matrix")
        if u.shape != mats[0].shape:
            raise ShapeMismatchError(f"basis {j} has shape {u.shape}, expected {mats[0].shape}")
    d, k = mats[0].shape
    if not 1 <= k <= d:
        raise InvalidDimsError(f"basis 0 has {k} columns, ambient {d}")
    return np.stack(mats)


@dataclass(frozen=True)
class SubspaceCollection:
    """N subspaces of R^d, each stored as a d x k basis with orthonormal columns.

    Every basis has the same shape, so block j of a coefficient vector is
    its entries j*k, ..., j*k + k - 1. Direct construction validates the
    shapes and orthonormality but does not repair them; use
    :func:`build_collection` to orthonormalize arbitrary full-rank input.
    The bases are read-only slices of one stack.
    """

    bases: tuple[np.ndarray, ...]
    label: str = ""

    def __post_init__(self):
        stack = _stack_bases(self.bases)
        k = stack.shape[2]
        stack.flags.writeable = False
        err = np.abs(np.swapaxes(stack, 1, 2) @ stack - np.eye(k)).max(axis=(1, 2))
        bad = np.flatnonzero(~(err <= ORTHONORMALITY_TOL))  # NaN fails every comparison
        if bad.size:
            raise OrthonormalityError(f"basis {bad[0]} deviates from orthonormality by {err[bad[0]]:.3e}")
        object.__setattr__(self, "bases", tuple(stack))

    @property
    def ambient_dim(self) -> int:
        return self.bases[0].shape[0]

    @property
    def block_dim(self) -> int:
        return self.bases[0].shape[1]

    @property
    def size(self) -> int:
        return len(self.bases)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"SubspaceCollection(d={self.ambient_dim}, k={self.block_dim}, "
            f"N={self.size}, label={self.label!r})"
        )


@dataclass(frozen=True)
class CoherenceReport:
    """Largest pairwise subspace overlap and where it is attained.

    ``pairwise_sigma[i, j]`` is the largest singular value of U_i^T U_j for
    i != j (NaN on the diagonal); ``lambda_`` is its maximum and equals the
    cosine of the smallest principal angle over all pairs.
    """

    lambda_: float
    argmax_pair: tuple[int, int]
    pairwise_sigma: np.ndarray
    min_principal_angle: float


@dataclass(frozen=True)
class FrameBounds:
    """Extreme eigenvalues of the weighted sum of subspace projections."""

    lower: float
    upper: float
    weights: tuple[float, ...]


def build_collection(bases, label: str = "") -> SubspaceCollection:
    """Orthonormalize full-rank bases into a validated collection.

    Each input matrix is replaced by the thin QR factor of its column span
    (R diagonal made nonnegative), so already-orthonormal input is returned
    unchanged up to roundoff.

    Raises
    ------
    ShapeMismatchError
        If the matrices do not all share one d x k shape.
    RankDeficientError
        If some matrix has column rank below k.
    """
    stack = _stack_bases(bases)
    deficient = np.flatnonzero(np.linalg.matrix_rank(stack) < stack.shape[2])
    if deficient.size:
        raise RankDeficientError(int(deficient[0]))
    return SubspaceCollection(tuple(_orthonormalize(stack)), label=label)


def _integer_dims(**dims) -> None:
    for name, value in dims.items():
        if not is_integer(value):
            raise InvalidDimsError(f"{name}={value!r} must be an integer")


def random_collection(d: int, k: int, N: int, seed: int, label: str | None = None) -> SubspaceCollection:
    """Draw N independent uniformly random k-dimensional subspaces of R^d.

    Each basis is the orthonormalized d x k standard Gaussian matrix, which
    makes the span Haar-distributed on the Grassmannian. Deterministic for a
    fixed seed.
    """
    _integer_dims(d=d, k=k, N=N)
    if k > d:
        raise InvalidDimsError(f"k={k} exceeds ambient dimension d={d}")
    if N < 1 or k < 1:
        raise InvalidDimsError("need N >= 1 and k >= 1")
    rng = np.random.default_rng(seed)
    bases = tuple(_orthonormalize(rng.standard_normal((N, d, k))))
    if label is None:
        label = f"random(d={d},k={k},N={N},seed={seed})"
    return SubspaceCollection(bases, label=label)


def orthogonal_collection(d: int, k: int, N: int) -> SubspaceCollection:
    """N mutually orthogonal coordinate-block subspaces; requires N*k <= d."""
    _integer_dims(d=d, k=k, N=N)
    if k > d or k < 1 or N < 1:
        raise InvalidDimsError(f"invalid dimensions d={d}, k={k}, N={N}")
    if N * k > d:
        raise TooManySubspacesError(
            f"cannot fit {N} orthogonal {k}-dimensional subspaces in R^{d}"
        )
    bases = []
    for j in range(N):
        u = np.zeros((d, k))
        for c in range(k):
            u[j * k + c, c] = 1.0
        bases.append(u)
    return SubspaceCollection(tuple(bases), label=f"orthogonal(d={d},k={k},N={N})")


def angle_family(k: int, N: int, theta: float) -> SubspaceCollection:
    """Collection with analytically known coherence sin^2(theta).

    Lives in d = k*(N+1) dimensions: subspace j is spanned by
    cos(theta) * E_j + sin(theta) * F, where E_j is the j-th coordinate block
    and F the shared (N+1)-th block. Every cross product U_i^T U_j equals
    sin^2(theta) * I_k, so theta sweeps coherence from 0 to 1.
    """
    _integer_dims(k=k, N=N)
    if not 0.0 <= theta <= math.pi / 2 + 1e-15:
        raise InvalidAngleError(f"theta={theta} outside [0, pi/2]")
    if N < 1 or k < 1:
        raise InvalidDimsError("need N >= 1 and k >= 1")
    d = k * (N + 1)
    c, s = math.cos(theta), math.sin(theta)
    bases = []
    for j in range(N):
        u = np.zeros((d, k))
        for col in range(k):
            u[j * k + col, col] = c
            u[N * k + col, col] = s
        bases.append(u)
    return SubspaceCollection(tuple(bases), label=f"angle(k={k},N={N},theta={theta})")


def _pair_singular_values(collection: SubspaceCollection, i: int, j: int) -> np.ndarray:
    """Singular values of U_i^T U_j, clamped to [0, 1], descending."""
    g = collection.bases[i].T @ collection.bases[j]
    sv = np.linalg.svd(g, compute_uv=False)
    return np.clip(sv, 0.0, 1.0)


def _check_pair(collection: SubspaceCollection, i: int, j: int):
    n = collection.size
    for idx in (i, j):
        if not 0 <= idx < n:
            raise IndexOutOfRangeError(f"index {idx} outside [0, {n})")
    if i == j:
        raise SameIndexError(f"need two distinct subspaces, got ({i}, {j})")


def coherence(collection: SubspaceCollection) -> CoherenceReport:
    """Largest pairwise overlap max_{i != j} sigma_max(U_i^T U_j).

    Equals the operator norm of P_i P_j for the worst pair; 0 means all
    subspaces are mutually orthogonal, 1 means two of them intersect.
    The products U_i^T U_j of every pair i < j go through one batched SVD;
    ``argmax_pair`` is the first maximum in row-major (i, j) order.
    """
    n = collection.size
    if n < 2:
        raise SingleSubspaceError("coherence needs at least two subspaces")
    stack = np.stack(collection.bases)
    rows, cols = np.array(list(combinations(range(n), 2))).T  # row-major pair order
    sv = np.linalg.svd(np.swapaxes(stack[rows], 1, 2) @ stack[cols], compute_uv=False)
    pair_sigma = np.clip(sv[:, 0], 0.0, 1.0)
    sigma = np.full((n, n), np.nan)
    sigma[rows, cols] = sigma[cols, rows] = pair_sigma
    sigma.flags.writeable = False
    first = int(np.argmax(pair_sigma))
    best = float(pair_sigma[first])
    return CoherenceReport(
        lambda_=best,
        argmax_pair=(int(rows[first]), int(cols[first])),
        pairwise_sigma=sigma,
        min_principal_angle=float(np.arccos(best)),
    )


def principal_angles(collection: SubspaceCollection, i: int, j: int) -> np.ndarray:
    """Canonical angles between subspaces i and j, ascending, in radians."""
    _check_pair(collection, i, j)
    sv = _pair_singular_values(collection, i, j)
    # sv is descending, arccos is decreasing, so the angles come out ascending
    return np.arccos(sv)


def spectral_distance(collection: SubspaceCollection, i: int, j: int) -> float:
    """Sine of the smallest principal angle between subspaces i and j."""
    _check_pair(collection, i, j)
    smax = float(_pair_singular_values(collection, i, j)[0])
    return math.sqrt(max(0.0, 1.0 - smax * smax))


def packing_diameter(collection: SubspaceCollection) -> float:
    """Smallest pairwise spectral distance; sqrt(1 - coherence^2)."""
    if collection.size < 2:
        raise SingleSubspaceError("packing diameter needs at least two subspaces")
    lam = coherence(collection).lambda_
    return math.sqrt(max(0.0, 1.0 - lam * lam))


def fusion_frame_bounds(collection: SubspaceCollection, weights) -> FrameBounds:
    """Extreme eigenvalues of S = sum_j v_j^2 U_j U_j^T.

    The collection is a fusion frame with the given weights exactly when the
    lower bound is positive.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (collection.size,):
        raise ShapeMismatchError(
            f"need {collection.size} weights, got shape {w.shape}"
        )
    if not np.all((w > 0) & np.isfinite(w)):  # NaN fails every comparison
        raise NonpositiveWeightError("weights must be strictly positive and finite")
    d = collection.ambient_dim
    s = np.zeros((d, d))
    for v, u in zip(w, collection.bases):
        s += (v * v) * (u @ u.T)
    eig = np.linalg.eigvalsh(s)
    return FrameBounds(
        lower=float(max(eig[0], 0.0)),
        upper=float(eig[-1]),
        weights=tuple(float(v) for v in w),
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def collection_to_dict(collection: SubspaceCollection) -> dict:
    """JSON-ready dict."""
    return {
        "version": 1,
        "d": collection.ambient_dim,
        "k": collection.block_dim,
        "N": collection.size,
        "bases": [u.ravel().tolist() for u in collection.bases],
        "label": collection.label,
    }


def collection_from_dict(doc: dict) -> SubspaceCollection:
    """Rebuild a collection from its JSON dict, re-validating orthonormality."""
    require_header(doc, ("d", "k", "N", "bases"))
    d, k, n = positive_ints(doc, ("d", "k", "N"))
    raw = doc["bases"]
    if not isinstance(raw, list) or len(raw) != n:
        raise SchemaError("bases", f"expected {n} bases")
    bases = []
    for j, flat in enumerate(raw):
        arr = float_list(flat, "bases", f"basis {j}")
        if arr.shape != (d * k,):
            raise SchemaError("bases", f"basis {j} has {arr.size} entries, expected {d * k}")
        bases.append(arr.reshape(d, k))
    return SubspaceCollection(tuple(bases), label=str(doc.get("label", "")))


def save_collection(collection: SubspaceCollection, path) -> None:
    write_json(collection_to_dict(collection), path)


def load_collection(path) -> SubspaceCollection:
    return collection_from_dict(read_json(path))
