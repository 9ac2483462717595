"""Restricted isometry constants over block-sparse subspace signals.

For a support S the operator restricted to the corresponding coefficient
columns is a column slice m_S of its dense matrix; the extreme eigenvalues
of the Gram block m_S^T m_S (the squared singular values of m_S) give the
per-support constant max(sigma_max^2 - 1, 1 - sigma_min^2). The exact
constant is the maximum over all supports of one size; the Monte Carlo
variant maximizes over sampled supports and is a lower bound by
construction. Every constant reads one coefficient operator; the classical
constant is the scalar one on N one-dimensional blocks of R^1. Supports
are enumerated in stacked batches: the Gram matrix G of the whole operator
is formed once per call, and each chunk of supports gathers its Gram
blocks into one batched eigenvalue call.

Most supports never reach that call. The constant of S is ||G_SS - I||_2.
With C the matrix of block norms ||(G - I)_ij||_2, formed once per call
(one SVD per unordered pair of blocks, as C is symmetric), it is at most
the spectral radius of C's submatrix C_S on S, and that radius is at most
max_i (C_S x)_i / x_i for any positive x (Collatz-Wielandt). Each support
is bounded at x = C_S C_S 1, which in exact arithmetic never exceeds the
block-Gershgorin bound max_i (C_S 1)_i. In each chunk the few supports of
largest bound are evaluated first; a support whose bound, widened by a
relative margin of 1e-9 and an absolute one of 1e-12 (far above
rounding), stays below the running maximum cannot attain it and is
skipped. Values, worst supports and counts are those of evaluating every
support. The exhaustive constants read their chunks and Gram columns from
the one enumeration of every support
(:func:`fusioncs.measurement.support_chunks`); the sampled constant stacks
its draws into chunks of the same size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamError, ModeError, TooLargeError, is_integer
from .frames import SubspaceCollection
from .measurement import (
    CoefficientOperator,
    chunk_size,
    compose_with_bases,
    scalar_operator,
    support_chunks,
    support_columns,
    vector_operator,
)

MAX_SUPPORTS_EXACT = 10**6
MAX_SUPPORT_COLUMNS = 200
_SEEDS = 8  # supports per chunk sent to eigvalsh before any is pruned
_MARGIN, _TINY = 1e-9, 1e-12  # relative and absolute slack on a support's bound
_FLOOR = np.finfo(float).tiny  # keeps the Collatz-Wielandt vector positive


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


def enumerable(n: int, k: int, s: int) -> bool:
    """Whether the exhaustive constant at level s over n blocks of k columns
    stays within the guards: at most MAX_SUPPORTS_EXACT supports of at most
    MAX_SUPPORT_COLUMNS columns each."""
    return math.comb(n, s) <= MAX_SUPPORTS_EXACT and s * k <= MAX_SUPPORT_COLUMNS


def _check_level(n: int, s: int) -> None:
    """Raise ValueError unless s is an integer in [1, n]."""
    if not is_integer(s):
        raise ValueError(f"s={s!r} must be an integer")
    if not 1 <= s <= n:
        raise ValueError(f"s={s} outside [1, {n}]")


def _block_norms(op: CoefficientOperator, gram) -> np.ndarray:
    """N x N matrix C of the spectral norms of the k x k blocks of G - I.

    C_ii = ||G_ii - I||_2 and C_ij = ||G_ij||_2 = C_ji, so one batched norm
    over the blocks of the upper triangle fills both triangles.
    """
    n, k = op.collection.size, op.collection.block_dim
    p, q = np.triu_indices(n)
    c = np.empty((n, n))
    blocks = (gram - np.eye(len(gram))).reshape(n, k, n, k)[p, :, q, :]
    c[p, q] = c[q, p] = np.linalg.norm(blocks, ord=2, axis=(1, 2))
    return c


def _bounds(norms, chunk) -> np.ndarray:
    """Upper bounds on ||G_SS - I||_2 for an (n, s) array of supports: the
    two-step Collatz-Wielandt bound max_i (C_S x)_i / x_i of C_S, the
    supports' submatrices of :func:`_block_norms`, at x = C_S C_S 1 floored
    at the smallest positive normal float, or the row-sum bound where that
    is smaller or not a number (an overflow)."""
    c = np.take(norms.ravel(), chunk[:, :, None] * len(norms) + chunk[:, None, :])
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.einsum("nij->ni", c)
        x = np.maximum(np.einsum("nij,nj->ni", c, rows), _FLOOR)
        return np.fmin((np.einsum("nij,nj->ni", c, x) / x).max(axis=1), rows.max(axis=1))


def _fill_deltas(deltas, gram, cols, picked) -> None:
    """Per-support constants of the supports of a chunk where ``picked`` is
    true, written into ``deltas``, by one batched eigvalsh (``cols`` are
    the chunk's :func:`support_columns`). Rounding that pushes an
    eigenvalue of a singular Gram block below zero counts as 0."""
    if picked.any():
        cols = cols[picked]
        eig = np.linalg.eigvalsh(gram[cols[:, :, None], cols[:, None, :]])
        smax2, smin2 = np.maximum(eig[:, -1], 0.0), np.maximum(eig[:, 0], 0.0)
        deltas[picked] = np.maximum(smax2 - 1.0, 1.0 - smin2)


def _max_over_supports(op: CoefficientOperator, chunks):
    """Largest per-support constant over chunks of supports, each an (c, s)
    array of supports with its :func:`support_columns`.

    Returns (value, first support attaining it, number of supports). The
    Gram matrix G = B^T B is formed once; finite entries whose products
    overflow raise ValueError. The constant of a support S is
    ||G_SS - I||_2. With C_S the matrix of block norms of G_SS - I from
    :func:`_block_norms`, ||G_SS - I||_2 <= ||C_S||_2 (Feingold and Varga,
    Pacific J. Math. 12, 1962), which is rho(C_S) as C_S is symmetric and
    nonnegative; and rho(C_S) <= max_i (C_S x)_i / x_i for every x > 0
    (Collatz-Wielandt; Horn and Johnson, Matrix Analysis, 8.1). The
    supports' bounds take x = C_S C_S 1 (:func:`_bounds`); in exact
    arithmetic that bound never exceeds the row-sum bound max_i (C_S 1)_i,
    since C^(t+1) 1 <= M C^t 1 implies C^(t+2) 1 <= M C^(t+1) 1 for
    nonnegative C. In each chunk the _SEEDS supports of largest bound go
    through eigvalsh first, then only the supports whose bound, widened by
    _MARGIN (relative) and _TINY (absolute), both far above rounding,
    reaches the running maximum. A skipped support cannot attain the
    maximum, and eigvalsh of one block does not depend on the rest of its
    batch, so the value and the first support attaining it are those of
    evaluating every support. The count covers every support.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # fails once, below
        gram = op.matrix.T @ op.matrix
    if not np.isfinite(gram).all():
        raise ValueError("the operator has non-finite entries")
    norms = _block_norms(op, gram)
    value, worst, count = -math.inf, None, 0
    for chunk, cols in chunks:
        bounds = _bounds(norms, chunk)
        deltas = np.full(len(chunk), -math.inf)
        seeds = np.zeros(len(chunk), dtype=bool)
        seeds[np.argsort(bounds)[-_SEEDS:]] = True
        _fill_deltas(deltas, gram, cols, seeds)
        reach = bounds * (1.0 + _MARGIN) + _TINY
        _fill_deltas(deltas, gram, cols, (reach >= max(value, float(deltas.max()))) & ~seeds)
        i = int(np.argmax(deltas))
        if deltas[i] > value:
            value, worst = float(deltas[i]), tuple(int(j) for j in chunk[i])
        count += len(chunk)
    return value, worst, count


def _exact_over_supports(op: CoefficientOperator, s: int) -> RipEstimate:
    n, k = op.collection.size, op.collection.block_dim
    _check_level(n, s)
    if not enumerable(n, k, s):
        raise TooLargeError(
            f"{math.comb(n, s)} supports of {s * k} columns "
            f"exceed the guards of {MAX_SUPPORTS_EXACT} supports and {MAX_SUPPORT_COLUMNS} columns"
        )
    value, worst, count = _max_over_supports(op, support_chunks(n, k, s, (s * k) ** 2))
    return RipEstimate(
        s=s, value=value, mode="exact", supports_evaluated=count, worst_support=worst
    )


def exact_frip(a: np.ndarray, collection: SubspaceCollection, s: int, scale: float = 1.0) -> RipEstimate:
    """Exhaustive isometry constant of the blockwise operator scale * (A (x) I).

    Per support S the restricted operator is the column slice of the
    composed matrix belonging to the blocks in S, the columns
    [scale * (A[:, j] (x) U_j)]_{j in S}.
    """
    return _exact_over_supports(
        compose_with_bases(vector_operator(a, collection.ambient_dim, scale), collection), s
    )


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
    per-support constant over the draws, stacked in draw order into chunks
    of the exhaustive enumeration's size.
    """
    n, k = collection.size, collection.block_dim
    if not (is_integer(trials) and trials >= 1):
        raise InvalidParamError(f"trials={trials!r} must be a positive integer")
    _check_level(n, s)
    b = compose_with_bases(vector_operator(a, collection.ambient_dim, scale), collection)
    rng = np.random.default_rng(seed)
    draws = np.array([np.sort(rng.choice(n, size=s, replace=False)) for _ in range(trials)])
    size = chunk_size((s * k) ** 2)
    value, worst, count = _max_over_supports(b, (
        (draws[i:i + size], support_columns(draws[i:i + size], k)) for i in range(0, trials, size)))
    return RipEstimate(
        s=s, value=value, mode="monte_carlo", supports_evaluated=count, worst_support=worst
    )


def scalar_rip_on_H(phi: np.ndarray, collection: SubspaceCollection, s: int) -> RipEstimate:
    """Exhaustive isometry constant of a dense scalar operator on the
    s-block-sparse subspace signals; pre-scale phi for normalized variants."""
    return _exact_over_supports(compose_with_bases(scalar_operator(phi), collection), s)


def classical_rip(a: np.ndarray, s: int, scale: float = 1.0) -> RipEstimate:
    """Exhaustive isometry constant of scale * A over plain sparse vectors:
    the scalar constant on N one-dimensional blocks of R^1."""
    a = np.asarray(a, dtype=float)
    return scalar_rip_on_H(scale * a, SubspaceCollection((np.ones((1, 1)),) * a.shape[1]), s)


def recovery_sufficient(rip: RipEstimate) -> bool:
    """Whether the level-2s constant certifies recovery: value < sqrt(2) - 1.

    Only an exact estimate can certify; a sampled one is a lower bound and
    proves nothing about the supremum.
    """
    if rip.mode != "exact":
        raise ModeError("a monte_carlo estimate cannot certify recovery")
    return rip.value < math.sqrt(2.0) - 1.0
