"""Restricted isometry constants over block-sparse subspace signals.

For a support S the operator restricted to the corresponding coefficient
columns is a column slice m_S of its dense matrix; the extreme eigenvalues
of the Gram block m_S^T m_S (the squared singular values of m_S) give the
per-support constant max(sigma_max^2 - 1, 1 - sigma_min^2). The exact
constant is the maximum over all supports of one size; the Monte Carlo
variant maximizes over sampled supports and is a lower bound by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ModeError, TooLargeError
from .frames import SubspaceCollection
from .measurement import compose_with_bases, scalar_operator, vector_operator

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


def _delta_of(m_s: np.ndarray) -> float:
    """max(sigma_max^2 - 1, 1 - sigma_min^2) from the eigenvalues of m_s^T m_s.

    A matrix with more columns than rows has sigma_min = 0; its Gram block
    is singular, and eigenvalues that rounding pushes below zero count as 0.
    """
    eig = np.linalg.eigvalsh(m_s.T @ m_s)
    smax2 = float(max(eig[-1], 0.0))
    smin2 = float(max(eig[0], 0.0))
    return max(smax2 - 1.0, 1.0 - smin2)


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


def _exact_over_supports(n: int, s: int, matrix_of, worst_cols: int) -> RipEstimate:
    _check_guards(n, s, worst_cols)
    value = -math.inf
    worst = None
    count = 0
    for supp in combinations(range(n), s):
        count += 1
        delta = _delta_of(matrix_of(supp))
        if delta > value:
            value = delta
            worst = supp
    return RipEstimate(
        s=s, value=value, mode="exact", supports_evaluated=count, worst_support=worst
    )


def exact_frip(a: np.ndarray, collection: SubspaceCollection, s: int, scale: float = 1.0) -> RipEstimate:
    """Exhaustive isometry constant of the blockwise operator scale * (A (x) I).

    Per support S the restricted operator is the operator's
    ``support_matrix``, the columns [scale * (A[:, j] (x) U_j)]_{j in S} of
    the composed matrix, which is built once for all supports.
    """
    n = collection.size
    b = compose_with_bases(vector_operator(a, collection.ambient_dim, scale), collection)
    worst_cols = sum(sorted(collection.block_dims)[-s:])
    return _exact_over_supports(n, s, b.support_matrix, worst_cols)


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
    value = -math.inf
    worst = None
    for _ in range(trials):
        supp = tuple(int(j) for j in np.sort(rng.choice(n, size=s, replace=False)))
        delta = _delta_of(b.support_matrix(supp))
        if delta > value:
            value = delta
            worst = supp
    return RipEstimate(
        s=s, value=value, mode="monte_carlo", supports_evaluated=trials, worst_support=worst
    )


def scalar_rip_on_H(phi: np.ndarray, collection: SubspaceCollection, s: int) -> RipEstimate:
    """Exhaustive isometry constant of a dense scalar operator on the
    s-block-sparse subspace signals; pre-scale phi for normalized variants."""
    n = collection.size
    b = compose_with_bases(scalar_operator(phi), collection)
    worst_cols = sum(sorted(collection.block_dims)[-s:])
    return _exact_over_supports(n, s, b.support_matrix, worst_cols)


def classical_rip(a: np.ndarray, s: int, scale: float = 1.0) -> RipEstimate:
    """Exhaustive isometry constant of scale * A over plain sparse vectors."""
    a = np.asarray(a, dtype=float)
    n = a.shape[1]

    def matrix_of(supp):
        return scale * a[:, list(supp)]

    return _exact_over_supports(n, s, matrix_of, s)


def recovery_sufficient(rip: RipEstimate) -> bool:
    """Whether the level-2s constant certifies recovery: value < sqrt(2) - 1.

    Only an exact estimate can certify; a sampled one is a lower bound and
    proves nothing about the supremum.
    """
    if rip.mode != "exact":
        raise ModeError("a monte_carlo estimate cannot certify recovery")
    return rip.value < math.sqrt(2.0) - 1.0
