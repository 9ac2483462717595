"""Restricted isometry constants over block-sparse subspace signals.

For a support S the operator restricted to the corresponding coefficient
columns is a column slice m_S of its dense matrix; the extreme eigenvalues
of the Gram block m_S^T m_S (the squared singular values of m_S) give the
per-support constant max(sigma_max^2 - 1, 1 - sigma_min^2). The exact
constant is the maximum over all supports of one size; the Monte Carlo
variant maximizes over sampled supports and is a lower bound by
construction. Supports are enumerated in stacked batches: the Gram matrix
of the whole operator is formed once per call, and each chunk of supports
gathers its Gram blocks, grouped by column count, into one batched
eigenvalue call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ModeError, TooLargeError
from .frames import SubspaceCollection
from .measurement import (
    compose_with_bases,
    scalar_operator,
    stacked_columns,
    support_chunks,
    vector_operator,
)

MAX_SUPPORTS_EXACT = 10**6
MAX_SUPPORT_COLUMNS = 200


@dataclass(frozen=True)
class RipEstimate:
    """Restricted isometry constant at one sparsity level.

    ``mode`` records whether every support was enumerated ("exact") or only
    a sampled subset ("monte_carlo"); a sampled value never exceeds the
    exact one.
    """

    s: int
    value: float
    mode: str
    supports_evaluated: int
    worst_support: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "s": self.s,
            "value": self.value,
            "mode": self.mode,
            "supports_evaluated": self.supports_evaluated,
            "worst_support": list(self.worst_support),
        }


def _check_guards(n: int, s: int, sum_cols: int):
    if not 1 <= s <= n:
        raise ValueError(f"s={s} outside [1, {n}]")
    if math.comb(n, s) > MAX_SUPPORTS_EXACT:
        raise TooLargeError(
            f"{math.comb(n, s)} supports exceed the exhaustive guard {MAX_SUPPORTS_EXACT}"
        )
    if sum_cols > MAX_SUPPORT_COLUMNS:
        raise TooLargeError(
            f"{sum_cols} columns per support exceed the guard {MAX_SUPPORT_COLUMNS}"
        )


def _worst_columns(block_dims, s: int) -> int:
    return int(sum(sorted(block_dims)[-s:]))


def _max_over_supports(matrix, block_starts, block_dims, supports, s: int):
    """Largest per-support constant over an iterable of s-supports.

    Returns (value, first support attaining it, number of supports). The
    Gram matrix G = M^T M is formed once; each chunk of supports takes its
    Gram blocks G[S, S] and one batched eigvalsh. A support with more
    columns than rows has a singular Gram block, and eigenvalues that
    rounding pushes below zero count as 0.
    """
    gram = matrix.T @ matrix
    value, worst, count = -math.inf, None, 0
    for chunk in support_chunks(supports, s, _worst_columns(block_dims, s) ** 2):
        deltas = np.empty(len(chunk))
        for rows, cols in stacked_columns(block_starts, block_dims, chunk):
            eig = np.linalg.eigvalsh(gram[cols[:, :, None], cols[:, None, :]])
            smax2, smin2 = np.maximum(eig[:, -1], 0.0), np.maximum(eig[:, 0], 0.0)
            deltas[rows] = np.maximum(smax2 - 1.0, 1.0 - smin2)
        i = int(np.argmax(deltas))
        if deltas[i] > value:
            value, worst = float(deltas[i]), tuple(int(j) for j in chunk[i])
        count += len(chunk)
    return value, worst, count


def _exact_over_supports(matrix, block_starts, block_dims, s: int) -> RipEstimate:
    n = len(block_dims)
    _check_guards(n, s, _worst_columns(block_dims, s))
    value, worst, count = _max_over_supports(
        matrix, block_starts, block_dims, combinations(range(n), s), s
    )
    return RipEstimate(
        s=s, value=value, mode="exact", supports_evaluated=count, worst_support=worst
    )


def exact_frip(a: np.ndarray, collection: SubspaceCollection, s: int, scale: float = 1.0) -> RipEstimate:
    """Exhaustive isometry constant of the blockwise operator scale * (A (x) I).

    Per support S the restricted operator is the column slice of the
    composed matrix belonging to the blocks in S, the columns
    [scale * (A[:, j] (x) U_j)]_{j in S}.
    """
    b = compose_with_bases(vector_operator(a, collection.ambient_dim, scale), collection)
    return _exact_over_supports(b.matrix, b.block_starts, b.block_dims, s)


def mc_frip(
    a: np.ndarray,
    collection: SubspaceCollection,
    s: int,
    trials: int,
    seed: int,
    scale: float = 1.0,
) -> RipEstimate:
    """Sampled lower bound of :func:`exact_frip`.

    Draws ``trials`` supports uniformly with replacement and maximizes the
    per-support constant over the draws.
    """
    n = collection.size
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 1 <= s <= n:
        raise ValueError(f"s={s} outside [1, {n}]")
    b = compose_with_bases(vector_operator(a, collection.ambient_dim, scale), collection)
    rng = np.random.default_rng(seed)
    draws = (
        tuple(int(j) for j in np.sort(rng.choice(n, size=s, replace=False)))
        for _ in range(trials)
    )
    value, worst, count = _max_over_supports(b.matrix, b.block_starts, b.block_dims, draws, s)
    return RipEstimate(
        s=s, value=value, mode="monte_carlo", supports_evaluated=count, worst_support=worst
    )


def scalar_rip_on_H(phi: np.ndarray, collection: SubspaceCollection, s: int) -> RipEstimate:
    """Exhaustive isometry constant of a dense scalar operator on the
    s-block-sparse subspace signals; pre-scale phi for normalized variants."""
    b = compose_with_bases(scalar_operator(phi), collection)
    return _exact_over_supports(b.matrix, b.block_starts, b.block_dims, s)


def classical_rip(a: np.ndarray, s: int, scale: float = 1.0) -> RipEstimate:
    """Exhaustive isometry constant of scale * A over plain sparse vectors
    (the case of one column per block)."""
    a = np.asarray(a, dtype=float)
    n = a.shape[1]
    return _exact_over_supports(scale * a, np.arange(n), (1,) * n, s)


def recovery_sufficient(rip: RipEstimate) -> bool:
    """Whether the level-2s constant certifies recovery: value < sqrt(2) - 1.

    Only an exact estimate can certify; a sampled one is a lower bound and
    proves nothing about the supremum.
    """
    if rip.mode != "exact":
        raise ModeError("a monte_carlo estimate cannot certify recovery")
    return rip.value < math.sqrt(2.0) - 1.0
