"""Block signals tied to a subspace collection, stored in coefficient space.

A signal x with blocks x_j = U_j c_j is represented by the coefficients c_j
alone. Membership of every block in its subspace is then structural, and all
block norms agree with the ambient ones because the bases are orthonormal.
The coefficients are held as one read-only vector, the blocks end to end:
:func:`coeff_vector` and :func:`from_coeff_vector` copy it once, and the
blocks are views of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimMismatchError,
    InvalidSparsityError,
    SchemaError,
    float_list,
    is_integer,
    positive_ints,
    read_json,
    require_header,
    write_json,
)
from .frames import SubspaceCollection

DEFAULT_SUPPORT_TOL = 1e-9
AMPLITUDE_LAWS = ("unit_norm_blocks", "gaussian_blocks")


@dataclass(frozen=True, init=False, eq=False, slots=True)
class BlockSignal:
    """Coefficient blocks c_j of a signal with x_j = U_j c_j.

    Built from one array per block, and stored as one read-only copy of
    their concatenation, the coefficient vector. :attr:`coeffs` gives the
    blocks back as read-only views of that vector. Signals compare and hash
    by identity; compare coefficient vectors to compare values. They hold
    their two fields in slots, without a per-instance dict.
    """

    collection: SubspaceCollection
    _vector: np.ndarray = field(repr=False)

    def __init__(self, coeffs, collection: SubspaceCollection):
        coeffs = [np.asarray(c, dtype=float) for c in coeffs]
        n, k = collection.size, collection.block_dim
        if len(coeffs) != n:
            raise DimMismatchError(f"{len(coeffs)} blocks for a collection of {n} subspaces")
        for j, c in enumerate(coeffs):
            if c.shape != (k,):
                raise DimMismatchError(f"block {j} has shape {c.shape}, expected ({k},)")
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
        return tuple(self._vector.reshape(self.collection.size, self.collection.block_dim))

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
    return BlockSignal._owning(collection, np.zeros(collection.size * collection.block_dim))


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
    vecs = random_sparse_coeffs(collection, s, [np.random.default_rng(seed)], amplitude_law)
    return BlockSignal._owning(collection, vecs[0])


def random_sparse_coeffs(collection: SubspaceCollection, s: int, rngs,
                         amplitude_law: str = "unit_norm_blocks") -> np.ndarray:
    """A (len(rngs), N*k) stack of coefficient vectors, one drawn from each
    generator of ``rngs`` as :func:`random_sparse_signal` draws from its
    seed's, each block written in place."""
    n, k = collection.size, collection.block_dim
    if not is_integer(s):
        raise InvalidSparsityError(f"s={s!r} must be an integer")
    if not 1 <= s <= n:
        raise InvalidSparsityError(f"s={s} outside [1, {n}]")
    if amplitude_law not in AMPLITUDE_LAWS:
        raise ValueError(f"unknown amplitude law {amplitude_law!r}")
    out = np.zeros((len(rngs), n, k))
    for rng, blocks in zip(rngs, out):
        for j in np.sort(rng.choice(n, size=s, replace=False)).tolist():
            g = rng.standard_normal(out=blocks[j])
            if amplitude_law == "unit_norm_blocks":
                g /= math.sqrt(g @ g)  # the value np.linalg.norm gives a 1-D float vector
    return out.reshape(len(rngs), n * k)


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
    if not is_integer(s):
        raise InvalidSparsityError(f"s={s!r} must be an integer")
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
    if not tol >= 0:  # NaN fails every comparison
        raise ValueError("tol must be nonnegative")
    norms = block_norms(x)
    return {int(j) for j in np.nonzero(norms > tol)[0]}


def to_ambient(x: BlockSignal) -> np.ndarray:
    """Materialize the stacked ambient vector (U_j c_j)_j of length d*N."""
    return np.concatenate([u @ c for u, c in zip(x.collection.bases, x.coeffs)])


def coeff_vector(x: BlockSignal) -> np.ndarray:
    """A writable copy of the coefficient vector, the blocks end to end."""
    return x._vector.copy()


def from_coeff_vector(collection: SubspaceCollection, vec: np.ndarray) -> BlockSignal:
    vec = np.array(vec, dtype=float)
    total = collection.size * collection.block_dim
    if vec.shape != (total,):
        raise DimMismatchError(f"expected length {total}, got shape {vec.shape}")
    return BlockSignal._owning(collection, vec)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def signal_to_dict(x: BlockSignal) -> dict:
    return {
        "version": 1,
        "collection": x.collection.label,
        "k": x.collection.block_dim,
        "N": x.num_blocks,
        "coeffs": [c.tolist() for c in x.coeffs],
    }


def signal_from_dict(doc: dict, collection: SubspaceCollection) -> BlockSignal:
    require_header(doc, ("collection", "k", "N", "coeffs"))
    k, n = positive_ints(doc, ("k", "N"))
    if n != collection.size or k != collection.block_dim:
        raise SchemaError("N", "document does not match the supplied collection")
    raw = doc["coeffs"]
    if not isinstance(raw, list) or len(raw) != collection.size:
        raise SchemaError("coeffs", f"expected a list of {collection.size} blocks")
    coeffs = [float_list(c, "coeffs", f"block {j}") for j, c in enumerate(raw)]
    return BlockSignal(tuple(coeffs), collection)


def save_signal(x: BlockSignal, path) -> None:
    write_json(signal_to_dict(x), path)


def load_signal(path, collection: SubspaceCollection) -> BlockSignal:
    return signal_from_dict(read_json(path), collection)
