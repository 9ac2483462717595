"""Restricted isometry constants over block-sparse subspace signals.

For a support S the operator restricted to the corresponding coefficient
columns is a column slice m_S of its dense matrix; the extreme eigenvalues
of the Gram block m_S^T m_S (the squared singular values of m_S) give the
per-support constant max(sigma_max^2 - 1, 1 - sigma_min^2). The exact
constant is the maximum over all supports of one size; the Monte Carlo
variant maximizes over sampled supports and is a lower bound by
construction. Supports are enumerated in stacked batches: the Gram matrix
G of the whole operator is formed once per call, and each chunk of
supports gathers its Gram blocks, grouped by column count, into one
batched eigenvalue call.

Most supports never reach that call. The constant of S is ||G_SS - I||_2,
and the block Gershgorin theorem bounds it by the largest row sum over S
of the matrix of block norms ||(G - I)_ij||_2, which is formed once per
call. In each chunk the few supports of largest bound are evaluated first;
a support whose bound, widened by a relative margin of 1e-9 and an
absolute one of 1e-12 (far above rounding), stays below the running
maximum cannot attain it and is skipped. Values, worst supports and counts
are those of evaluating every support.
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
_SEEDS = 8  # supports per chunk sent to eigvalsh before any is pruned
_MARGIN, _TINY = 1e-9, 1e-12  # relative and absolute slack on a support's bound


@dataclass(frozen=True)
class RipEstimate:
    """Restricted isometry constant at one sparsity level.

    ``mode`` records whether every support was enumerated ("exact") or only
    a sampled subset ("monte_carlo"); a sampled value never exceeds the
    exact one. ``supports_evaluated`` counts every support covered, whether
    its eigenvalues were computed or its bound ruled it out.
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


def _worst_columns(block_dims, s: int) -> int:
    return int(sum(sorted(block_dims)[-s:]))


def enumerable(block_dims, s: int) -> bool:
    """Whether the exhaustive constant at level s stays within the guards:
    at most MAX_SUPPORTS_EXACT supports of at most MAX_SUPPORT_COLUMNS
    columns each."""
    return (
        math.comb(len(block_dims), s) <= MAX_SUPPORTS_EXACT
        and _worst_columns(block_dims, s) <= MAX_SUPPORT_COLUMNS
    )


def _check_guards(block_dims, s: int) -> None:
    n = len(block_dims)
    if not 1 <= s <= n:
        raise ValueError(f"s={s} outside [1, {n}]")
    if not enumerable(block_dims, s):
        raise TooLargeError(
            f"{math.comb(n, s)} supports of up to {_worst_columns(block_dims, s)} columns "
            f"exceed the guards of {MAX_SUPPORTS_EXACT} supports and {MAX_SUPPORT_COLUMNS} columns"
        )


def _block_norms(gram, block_starts, block_dims) -> np.ndarray:
    """N x N matrix C of the spectral norms of the blocks of G - I.

    C_ii = ||G_ii - I||_2 and C_ij = ||G_ij||_2. Blocks are gathered per
    pair of block dimensions, one batched norm per pair.
    """
    h = gram - np.eye(len(gram))
    dims = np.asarray(block_dims)
    c = np.empty((len(dims), len(dims)))
    groups = [(k, np.flatnonzero(dims == k)) for k in sorted(set(dims.tolist()))]
    index = {k: block_starts[members][:, None] + np.arange(k) for k, members in groups}
    for ka, ia in groups:
        for kb, ib in groups:
            blocks = h[index[ka][:, None, :, None], index[kb][None, :, None, :]]
            c[np.ix_(ia, ib)] = np.linalg.norm(blocks, ord=2, axis=(2, 3))
    return c


def _deltas(gram, block_starts, block_dims, supports) -> np.ndarray:
    """Per-support constants of an (n, s) array of supports, one batched
    eigvalsh per column count. Rounding that pushes an eigenvalue of a
    singular Gram block below zero counts as 0."""
    deltas = np.empty(len(supports))
    for rows, cols in stacked_columns(block_starts, block_dims, supports):
        eig = np.linalg.eigvalsh(gram[cols[:, :, None], cols[:, None, :]])
        smax2, smin2 = np.maximum(eig[:, -1], 0.0), np.maximum(eig[:, 0], 0.0)
        deltas[rows] = np.maximum(smax2 - 1.0, 1.0 - smin2)
    return deltas


def _max_over_supports(matrix, block_starts, block_dims, supports, s: int):
    """Largest per-support constant over an iterable of s-supports.

    Returns (value, first support attaining it, number of supports). The
    Gram matrix G = M^T M is formed once; an operator with non-finite
    entries raises ValueError. The constant of a support S is
    ||G_SS - I||_2, which the block Gershgorin theorem (Feingold and Varga,
    Pacific J. Math. 12, 1962) bounds by max_{i in S} sum_{j in S} C_ij,
    with C from :func:`_block_norms`. In each chunk the _SEEDS supports of
    largest bound go through eigvalsh first, then only the supports whose
    bound, widened by _MARGIN (relative) and _TINY (absolute), both far
    above rounding, reaches the running maximum. A skipped support cannot
    attain the maximum, and eigvalsh of one block does not depend on the
    rest of its batch, so the value and the first support attaining it are
    those of evaluating every support. The count covers every support.
    """
    gram = matrix.T @ matrix
    if not np.isfinite(gram).all():
        raise ValueError("the operator has non-finite entries")
    norms = _block_norms(gram, block_starts, block_dims)
    value, worst, count = -math.inf, None, 0
    for chunk in support_chunks(supports, s, _worst_columns(block_dims, s) ** 2):
        bounds = norms[chunk[:, :, None], chunk[:, None, :]].sum(axis=2).max(axis=1)
        deltas = np.full(len(chunk), -math.inf)
        seeds = np.argsort(bounds)[-_SEEDS:]
        deltas[seeds] = _deltas(gram, block_starts, block_dims, chunk[seeds])
        reach = bounds * (1.0 + _MARGIN) + _TINY
        rest = reach >= max(value, float(deltas[seeds].max()))
        rest[seeds] = False
        deltas[rest] = _deltas(gram, block_starts, block_dims, chunk[rest])
        i = int(np.argmax(deltas))
        if deltas[i] > value:
            value, worst = float(deltas[i]), tuple(int(j) for j in chunk[i])
        count += len(chunk)
    return value, worst, count


def _exact_over_supports(matrix, block_starts, block_dims, s: int) -> RipEstimate:
    _check_guards(block_dims, s)
    value, worst, count = _max_over_supports(
        matrix, block_starts, block_dims, combinations(range(len(block_dims)), s), s
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
