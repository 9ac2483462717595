"""Closed-form measurement-count and coherence bounds.

All logarithms are natural: the two explicit constants of the necessary
scalar count come out as 1/ln(9) and ln(3/2)/ln(9) only in that base, and
every other bound carries a free multiplicative constant that absorbs the
base anyway. Unknown universal constants default to 1; the values are meant
for experiment design and relative comparisons, never as certified
thresholds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

from .errors import (
    InvalidDimsError,
    InvalidParamError,
    NegativeInputError,
    RegimeViolationWarning,
    is_integer,
)

#: exact forms behind the rounded constants 0.46 and 0.18
C1_NECESSARY = 1.0 / math.log(9.0)
C2_NECESSARY = 32.0
C3_NECESSARY = math.log(1.5) / math.log(9.0)


def necessary_scalar_measurements(s: int, N: int, k: int) -> float:
    """Lower bound c1*s*ln(N/(32 s)) + c3*s*k on the scalar measurement count.

    Valid in the regime 4s <= N; outside it the value is still returned but
    a :class:`RegimeViolationWarning` is emitted. The log term is clamped at
    zero so crowded regimes do not produce a negative contribution.
    """
    _check_common(s, N, k)
    if 4 * s > N:
        warnings.warn(
            f"necessary count evaluated outside its regime: 4s={4 * s} > N={N}",
            RegimeViolationWarning,
            stacklevel=2,
        )
    log_term = max(0.0, math.log(N / (C2_NECESSARY * s)))
    return C1_NECESSARY * s * log_term + C3_NECESSARY * s * k


def sufficient_scalar_measurements(
    s: int, N: int, k: int, alpha: float, theta: float, epsilon: float, C: float = 1.0
) -> float:
    """C * alpha^4 * theta^-2 * max(s ln(eN/s) + s k, ln(1/epsilon))."""
    _check_common(s, N, k)
    if not 0.0 < theta < 1.0:
        raise InvalidParamError(f"theta={theta} outside (0, 1)")
    _check_eps_c(epsilon, C, alpha)
    first = s * math.log(math.e * N / s) + s * k
    return C * alpha**4 / theta**2 * max(first, math.log(1.0 / epsilon))


def sufficient_uniform_vector(
    s: int, N: int, k: int, lam: float, alpha: float, epsilon: float, C: float = 1.0
) -> float:
    """C * alpha^4 * max((ln^2(s) + lam*s) (k + ln N), ln(1/epsilon))."""
    _check_common(s, N, k)
    _check_lambda(lam)
    _check_eps_c(epsilon, C, alpha)
    first = (math.log(s) ** 2 + lam * s) * (k + math.log(N))
    return C * alpha**4 * max(first, math.log(1.0 / epsilon))


def sufficient_nonuniform_vector(
    s: int, N: int, k: int, lam: float, epsilon: float, beta: int, C: float = 1.0
) -> float:
    """C * (1 + lam*s) * ln^beta(N s k) * ln(1/epsilon).

    ``beta`` is 1 for sign-flip ensembles and 2 for Gaussian ones.
    """
    _check_common(s, N, k)
    _check_lambda(lam)
    if beta not in (1, 2):
        raise InvalidParamError(f"beta={beta} must be 1 or 2")
    _check_eps_c(epsilon, C, 1.0)
    return C * (1.0 + lam * s) * math.log(N * s * k) ** beta * math.log(1.0 / epsilon)


def lambda_lower_bound(d: int, k: int, N: int) -> float:
    """Packing floor sqrt(max(0, (kN - d)/(dN - d))) on a collection's coherence."""
    if not (is_integer(d) and is_integer(k) and is_integer(N)) or k < 1 or d < k or N < 2:
        raise InvalidDimsError(f"need integers 1 <= k <= d and N >= 2, got d={d}, k={k}, N={N}")
    return math.sqrt(max(0.0, (k * N - d) / (d * N - d)))


def equiisoclinic_cap(d: int, k: int) -> int:
    """Largest possible number of pairwise equi-isoclinic k-subspaces of R^d."""
    if not (is_integer(d) and is_integer(k)) or k < 1 or d < k:
        raise InvalidDimsError(f"need integers 1 <= k <= d, got d={d}, k={k}")
    return d * (d + 1) // 2 - k * (k + 1) // 2 + 1


def mu_f_sparsity_cap(mu_f: float) -> float:
    """Sparsity levels below (1 + 1/mu_f)/2 are exactly recoverable."""
    if not 0 <= mu_f < math.inf:  # NaN fails every comparison
        raise NegativeInputError("mu_f must be nonnegative and finite")
    if mu_f == 0.0:
        return math.inf
    return (1.0 + 1.0 / mu_f) / 2.0


def necessary_vector_measurements(s: int, N: int, k: int, d: int) -> float:
    """Scalar lower bound spread over blocks of size d: necessary/d."""
    if not is_integer(d) or d < 1:
        raise InvalidDimsError(f"d must be positive and an integer, got d={d}")
    return necessary_scalar_measurements(s, N, k) / d


def _check_common(s: int, N: int, k: int):
    if not all(is_integer(v) and v >= 1 for v in (s, N, k)):
        raise InvalidParamError(f"s, N, k must be positive integers, got s={s}, N={N}, k={k}")


def _check_lambda(lam: float):
    if not 0.0 <= lam <= 1.0:
        raise InvalidParamError(f"lambda={lam} outside [0, 1]")


def _check_eps_c(epsilon: float, C: float, alpha: float):
    if not 0.0 < epsilon < 1.0:
        raise InvalidParamError(f"epsilon={epsilon} outside (0, 1)")
    if not 0 < C < math.inf:  # NaN fails every comparison
        raise InvalidParamError("C must be positive and finite")
    if not 0 < alpha < math.inf:
        raise InvalidParamError("alpha must be positive and finite")


@dataclass(frozen=True)
class BoundReport:
    """All bound values for one parameter point, for tables and experiment design.

    ``mu_f_sparsity_cap`` is evaluated at the worst case mu_f = lambda (unit
    column coherence); feed a measured mu_f to :func:`mu_f_sparsity_cap` for
    a sharper cap. ``regime_ok`` records whether the necessary scalar count
    was evaluated inside its 4s <= N regime.
    """

    necessary_scalar: float
    sufficient_scalar: float
    sufficient_uniform_vector: float
    sufficient_nonuniform_vector: float
    necessary_vector: float
    lambda_floor: float
    equiisoclinic_cap: int
    mu_f_sparsity_cap: float
    regime_ok: bool
    parameters: dict

    def to_dict(self) -> dict:
        """The fields by name; an infinite ``mu_f_sparsity_cap`` becomes None."""
        out = asdict(self)
        if math.isinf(out["mu_f_sparsity_cap"]):
            out["mu_f_sparsity_cap"] = None
        return out


def bound_report(
    s: int,
    N: int,
    k: int,
    d: int,
    lam: float,
    alpha: float = 1.0,
    delta: float = math.sqrt(2.0) - 1.0,
    epsilon: float = 0.01,
    beta: int = 1,
    C: float = 1.0,
) -> BoundReport:
    """Evaluate every bound at one parameter point.

    ``delta`` doubles as the isometry target of the sufficient scalar count.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeViolationWarning)
        necessary = necessary_scalar_measurements(s, N, k)
        necessary_vec = necessary_vector_measurements(s, N, k, d)
    return BoundReport(
        necessary_scalar=necessary,
        sufficient_scalar=sufficient_scalar_measurements(s, N, k, alpha, delta, epsilon, C),
        sufficient_uniform_vector=sufficient_uniform_vector(s, N, k, lam, alpha, epsilon, C),
        sufficient_nonuniform_vector=sufficient_nonuniform_vector(s, N, k, lam, epsilon, beta, C),
        necessary_vector=necessary_vec,
        lambda_floor=lambda_lower_bound(d, k, N),
        equiisoclinic_cap=equiisoclinic_cap(d, k),
        mu_f_sparsity_cap=mu_f_sparsity_cap(lam),
        regime_ok=4 * s <= N,
        parameters={
            "s": s,
            "N": N,
            "k": k,
            "d": d,
            "lambda": lam,
            "alpha": alpha,
            "delta": delta,
            "epsilon": epsilon,
            "beta": beta,
            "C": C,
        },
    )
