"""Block signals tied to a subspace collection, stored in coefficient space.

A signal x with blocks x_j = U_j c_j is represented by the coefficients c_j
alone. Membership of every block in its subspace is then structural, and all
block norms agree with the ambient ones because the bases are orthonormal.
The coefficients are held as one read-only vector, the blocks end to end:
:func:`coeff_vector` and :func:`from_coeff_vector` copy it once, and the
blocks are views of it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DimMismatchError, InvalidSparsityError, SchemaError, require_fields
from .frames import SubspaceCollection

DEFAULT_SUPPORT_TOL = 1e-9
AMPLITUDE_LAWS = ("unit_norm_blocks", "gaussian_blocks")


@dataclass(frozen=True, init=False, eq=False)
class BlockSignal:
    """Coefficient blocks c_j of a signal with x_j = U_j c_j.

    Built from one array per block, and stored as one read-only copy of
    their concatenation, the coefficient vector. :attr:`coeffs` gives the
    blocks back as read-only views of that vector. Signals compare and hash
    by identity; compare coefficient vectors to compare values.
    """

    collection: SubspaceCollection
    _vector: np.ndarray = field(repr=False)

    def __init__(self, coeffs, collection: SubspaceCollection):
        coeffs = [np.asarray(c, dtype=float) for c in coeffs]
        dims = collection.block_dims
        if len(coeffs) != len(dims):
            raise DimMismatchError(
                f"{len(coeffs)} blocks for a collection of {len(dims)} subspaces"
            )
        for j, (c, k_j) in enumerate(zip(coeffs, dims)):
            if c.shape != (k_j,):
                raise DimMismatchError(f"block {j} has shape {c.shape}, expected ({k_j},)")
        self._set(collection, np.concatenate(coeffs))

    def _set(self, collection: SubspaceCollection, vector: np.ndarray) -> None:
        vector.flags.writeable = False
        object.__setattr__(self, "collection", collection)
        object.__setattr__(self, "_vector", vector)

    @classmethod
    def _owning(cls, collection: SubspaceCollection, vector: np.ndarray) -> "BlockSignal":
        """Signal that takes over a new float vector of the collection's
        length, without a copy."""
        x = cls.__new__(cls)
        x._set(collection, vector)
        return x

    @property
    def coeffs(self) -> tuple[np.ndarray, ...]:
        return tuple(np.split(self._vector, np.cumsum(self.collection.block_dims)[:-1]))

    @property
    def collection_ref(self) -> str:
        return self.collection.label

    @property
    def num_blocks(self) -> int:
        return self.collection.size

    def _binop(self, other: "BlockSignal", op) -> "BlockSignal":
        if self.collection is not other.collection:
            raise DimMismatchError("signals bound to different collections")
        return BlockSignal._owning(self.collection, op(self._vector, other._vector))

    def __sub__(self, other: "BlockSignal") -> "BlockSignal":
        return self._binop(other, np.subtract)

    def __add__(self, other: "BlockSignal") -> "BlockSignal":
        return self._binop(other, np.add)


def zero_signal(collection: SubspaceCollection) -> BlockSignal:
    return BlockSignal._owning(collection, np.zeros(sum(collection.block_dims)))


def random_sparse_signal(
    collection: SubspaceCollection,
    s: int,
    seed: int,
    amplitude_law: str = "unit_norm_blocks",
) -> BlockSignal:
    """Signal supported on a uniformly random s-subset of the blocks.

    ``unit_norm_blocks`` draws each nonzero block uniformly from the unit
    sphere of its subspace; ``gaussian_blocks`` fills it with independent
    standard normal coefficients. Deterministic for a fixed seed.
    """
    n = collection.size
    if not 1 <= s <= n:
        raise InvalidSparsityError(f"s={s} outside [1, {n}]")
    if amplitude_law not in AMPLITUDE_LAWS:
        raise ValueError(f"unknown amplitude law {amplitude_law!r}")
    rng = np.random.default_rng(seed)
    support_idx = np.sort(rng.choice(n, size=s, replace=False))
    coeffs = [np.zeros(k) for k in collection.block_dims]
    for j in support_idx:
        g = rng.standard_normal(collection.block_dims[j])
        if amplitude_law == "unit_norm_blocks":
            g = g / np.linalg.norm(g)
        coeffs[int(j)] = g
    return BlockSignal(tuple(coeffs), collection)


def block_norms(x: BlockSignal) -> np.ndarray:
    return np.array([np.linalg.norm(c) for c in x.coeffs])


def norm_21(x: BlockSignal) -> float:
    """Sum of block euclidean norms."""
    return float(np.sum(block_norms(x)))


def norm_2inf(x: BlockSignal) -> float:
    """Largest block euclidean norm."""
    return float(np.max(block_norms(x)))


def norm_2(x: BlockSignal) -> float:
    """Euclidean norm of the whole signal."""
    return float(np.sqrt(np.sum(block_norms(x) ** 2)))


def best_s_term(x: BlockSignal, s: int) -> tuple[BlockSignal, float]:
    """Keep the s blocks of largest norm; return the approximant and the
    sum of the dropped block norms.

    Ties break toward the lower block index. Because the objective is
    additive over blocks, this attains the minimum of ||x - z||_{2,1} over
    all z with at most s nonzero blocks.
    """
    n = x.num_blocks
    if not 0 <= s <= n:
        raise InvalidSparsityError(f"s={s} outside [0, {n}]")
    norms = block_norms(x)
    keep = np.sort(np.argsort(-norms, kind="stable")[:s])
    keep_set = set(int(j) for j in keep)
    coeffs = tuple(
        c if j in keep_set else np.zeros_like(c) for j, c in enumerate(x.coeffs)
    )
    sigma = float(np.sum(norms[[j for j in range(n) if j not in keep_set]]))
    return BlockSignal(coeffs, x.collection), sigma


def support(x: BlockSignal, tol: float = DEFAULT_SUPPORT_TOL) -> set[int]:
    """Indices of blocks with norm strictly above tol."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    norms = block_norms(x)
    return {int(j) for j in np.nonzero(norms > tol)[0]}


def to_ambient(x: BlockSignal) -> np.ndarray:
    """Materialize the stacked ambient vector (U_j c_j)_j of length d*N."""
    return np.concatenate([u @ c for u, c in zip(x.collection.bases, x.coeffs)])


def from_ambient(collection: SubspaceCollection, v: np.ndarray) -> BlockSignal:
    """Project a stacked ambient vector blockwise onto the collection.

    Components orthogonal to the subspaces are discarded, so this is the
    inverse of :func:`to_ambient` only on vectors whose blocks already lie in
    their subspaces.
    """
    v = np.asarray(v, dtype=float)
    d, n = collection.ambient_dim, collection.size
    if v.shape != (d * n,):
        raise DimMismatchError(f"expected length {d * n}, got shape {v.shape}")
    blocks = v.reshape(n, d)
    return BlockSignal(
        tuple(u.T @ b for u, b in zip(collection.bases, blocks)), collection
    )


def coeff_vector(x: BlockSignal) -> np.ndarray:
    """A writable copy of the coefficient vector, the blocks end to end."""
    return x._vector.copy()


def from_coeff_vector(collection: SubspaceCollection, vec: np.ndarray) -> BlockSignal:
    vec = np.array(vec, dtype=float)
    total = sum(collection.block_dims)
    if vec.shape != (total,):
        raise DimMismatchError(f"expected length {total}, got shape {vec.shape}")
    return BlockSignal._owning(collection, vec)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def signal_to_dict(x: BlockSignal) -> dict:
    dims = set(x.collection.block_dims)
    if len(dims) != 1:
        raise DimMismatchError("only equal-dimension signals serialize to JSON")
    return {
        "version": 1,
        "collection": x.collection.label,
        "k": x.collection.block_dim,
        "N": x.num_blocks,
        "coeffs": [c.tolist() for c in x.coeffs],
    }


def signal_from_dict(doc: dict, collection: SubspaceCollection) -> BlockSignal:
    require_fields(doc, ("version", "collection", "k", "N", "coeffs"))
    if doc["version"] != 1:
        raise SchemaError("version", f"unsupported version {doc['version']!r}")
    if doc["N"] != collection.size or doc["k"] != collection.block_dim:
        raise SchemaError("N", "document does not match the supplied collection")
    coeffs = [np.asarray(c, dtype=float) for c in doc["coeffs"]]
    if len(coeffs) != collection.size:
        raise SchemaError("coeffs", f"expected {collection.size} blocks")
    return BlockSignal(tuple(coeffs), collection)


def save_signal(x: BlockSignal, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(signal_to_dict(x), fh)


def load_signal(path, collection: SubspaceCollection) -> BlockSignal:
    with open(path, "r", encoding="utf-8") as fh:
        return signal_from_dict(json.load(fh), collection)
