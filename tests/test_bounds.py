import math
import re

import numpy as np
import pytest

from fusioncs.bounds import (
    C1_NECESSARY,
    C3_NECESSARY,
    bound_report,
    equiisoclinic_cap,
    lambda_lower_bound,
    mu_f_sparsity_cap,
    necessary_scalar_measurements,
    necessary_vector_measurements,
    sufficient_nonuniform_vector,
    sufficient_scalar_measurements,
    sufficient_uniform_vector,
)
from fusioncs.errors import (
    InvalidDimsError,
    InvalidParamError,
    NegativeInputError,
    RegimeViolationWarning,
)


class TestNecessaryScalar:
    def test_constants_round_to_published_values(self):
        assert round(C1_NECESSARY, 2) == 0.46
        assert round(C3_NECESSARY, 2) == 0.18

    def test_log_term_vanishes_at_32s(self):
        s, k = 2, 3
        val = necessary_scalar_measurements(s, 32 * s, k)
        assert val == pytest.approx(C3_NECESSARY * s * k)

    def test_hand_value(self):
        # (ln 2 + ln 1.5) / ln 9 = ln 3 / (2 ln 3) = 1/2 exactly
        val = necessary_scalar_measurements(1, 64, 1)
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_negative_log_clamped(self):
        val = necessary_scalar_measurements(1, 16, 2)
        assert val == pytest.approx(C3_NECESSARY * 2)

    def test_regime_warning(self):
        with pytest.warns(RegimeViolationWarning):
            necessary_scalar_measurements(5, 16, 1)

    def test_in_regime_no_warning(self, recwarn):
        necessary_scalar_measurements(4, 16, 1)
        assert not any(
            isinstance(w.message, RegimeViolationWarning) for w in recwarn.list
        )


class TestSufficientScalar:
    def test_quadruples_when_theta_halves(self):
        lo = sufficient_scalar_measurements(2, 16, 2, 1.0, 0.4, 0.01)
        hi = sufficient_scalar_measurements(2, 16, 2, 1.0, 0.2, 0.01)
        assert hi == pytest.approx(4.0 * lo)

    def test_k_increment_adds_linear_term(self):
        s, n, alpha, theta, eps = 2, 16, 1.0, 0.4, 0.01
        base = sufficient_scalar_measurements(s, n, 2, alpha, theta, eps)
        bumped = sufficient_scalar_measurements(s, n, 3, alpha, theta, eps)
        assert bumped - base == pytest.approx(alpha**4 / theta**2 * s)

    def test_hand_value(self):
        val = sufficient_scalar_measurements(2, 16, 2, 1.0, 0.4, 0.01)
        expected = (2 * math.log(8 * math.e) + 4) / 0.16
        assert val == pytest.approx(expected)
        assert val == pytest.approx(63.5, abs=0.05)

    def test_param_validation(self):
        with pytest.raises(InvalidParamError):
            sufficient_scalar_measurements(2, 16, 2, 1.0, 1.5, 0.01)
        with pytest.raises(InvalidParamError):
            sufficient_scalar_measurements(2, 16, 2, 1.0, 0.4, 0.0)


class TestSufficientUniform:
    def test_epsilon_branch_dominates_trivial_point(self):
        val = sufficient_uniform_vector(1, 16, 2, 0.0, 1.0, 0.05)
        assert val == pytest.approx(math.log(20.0))

    def test_lambda_term_dominates_for_large_s(self):
        s = 100_000
        base = sufficient_uniform_vector(s, 100, 3, 0.5, 1.0, 0.05)
        doubled = sufficient_uniform_vector(s, 100, 3, 1.0, 1.0, 0.05)
        assert doubled / base == pytest.approx(2.0, rel=1e-2)

    def test_hand_value(self):
        val = sufficient_uniform_vector(4, 100, 3, 0.5, 1.0, 0.05)
        expected = (math.log(4.0) ** 2 + 2.0) * (3.0 + math.log(100.0))
        assert val == pytest.approx(expected)
        assert val == pytest.approx(29.8, abs=0.05)

    def test_lambda_validated(self):
        with pytest.raises(InvalidParamError):
            sufficient_uniform_vector(4, 100, 3, 1.5, 1.0, 0.05)


class TestSufficientNonuniform:
    def test_lambda_zero_s_only_in_log(self):
        a = sufficient_nonuniform_vector(2, 64, 2, 0.0, 0.1, 1)
        b = sufficient_nonuniform_vector(4, 64, 2, 0.0, 0.1, 1)
        assert b / a == pytest.approx(
            math.log(64 * 4 * 2) / math.log(64 * 2 * 2)
        )

    def test_beta_exponent_ratio(self):
        s, n, k, lam, eps = 8, 64, 2, 0.25, 0.1
        bern = sufficient_nonuniform_vector(s, n, k, lam, eps, 1)
        gauss = sufficient_nonuniform_vector(s, n, k, lam, eps, 2)
        assert gauss / bern == pytest.approx(math.log(n * s * k))

    def test_hand_value(self):
        val = sufficient_nonuniform_vector(8, 64, 2, 0.25, 0.1, 1)
        expected = 3.0 * math.log(1024.0) * math.log(10.0)
        assert val == pytest.approx(expected)
        assert val == pytest.approx(47.9, abs=0.05)

    def test_beta_validated(self):
        with pytest.raises(InvalidParamError):
            sufficient_nonuniform_vector(8, 64, 2, 0.25, 0.1, 3)


class TestGeometryBounds:
    def test_lambda_floor_zero_when_orthogonal_fits(self):
        assert lambda_lower_bound(8, 2, 4) == 0.0
        assert lambda_lower_bound(8, 2, 3) == 0.0

    def test_lambda_floor_hand_value(self):
        assert lambda_lower_bound(4, 2, 3) == pytest.approx(0.5)

    def test_lambda_floor_limit(self):
        assert lambda_lower_bound(4, 1, 10**6) == pytest.approx(0.5, abs=1e-3)

    def test_lambda_floor_validated(self):
        with pytest.raises(InvalidDimsError):
            lambda_lower_bound(2, 3, 4)

    def test_equiisoclinic_cap(self):
        assert equiisoclinic_cap(3, 3) == 1
        assert equiisoclinic_cap(2, 1) == 3
        assert equiisoclinic_cap(4, 2) == 8

    def test_mu_f_cap(self):
        assert mu_f_sparsity_cap(0.0) == math.inf
        assert mu_f_sparsity_cap(1.0) == pytest.approx(1.0)
        assert mu_f_sparsity_cap(1.0 / 9.0) == pytest.approx(5.0)
        with pytest.raises(NegativeInputError):
            mu_f_sparsity_cap(-0.1)

    def test_necessary_vector(self):
        assert necessary_vector_measurements(1, 64, 1, 1) == pytest.approx(
            necessary_scalar_measurements(1, 64, 1)
        )
        assert necessary_vector_measurements(2, 128, 2, 4) == pytest.approx(
            necessary_scalar_measurements(2, 128, 2) / 4
        )
        assert necessary_vector_measurements(2, 128, 2, 8) == pytest.approx(
            necessary_vector_measurements(2, 128, 2, 4) / 2
        )


# each guard's raise, with the argument that trips it
GUARDS = {
    "necessary_s": (necessary_scalar_measurements, (0, 8, 1), InvalidParamError, "s, N, k must be positive"),
    "necessary_vector_d": (necessary_vector_measurements, (1, 8, 1, 0), InvalidDimsError, "d must be positive"),
    "equiisoclinic_k": (equiisoclinic_cap, (2, 3), InvalidDimsError, "1 <= k <= d"),
    "sufficient_scalar_N": (sufficient_scalar_measurements, (1, 0, 1, 1.0, 0.4, 0.01),
                            InvalidParamError, "s, N, k must be positive"),
    "sufficient_scalar_C": (sufficient_scalar_measurements, (1, 8, 1, 1.0, 0.4, 0.01, 0.0),
                            InvalidParamError, "C must be positive"),
    "sufficient_uniform_alpha": (sufficient_uniform_vector, (1, 8, 1, 0.5, 0.0, 0.01),
                                 InvalidParamError, "alpha must be positive"),
    # NaN fails every comparison, and infinity is not a constant
    "sufficient_scalar_C_nan": (sufficient_scalar_measurements, (1, 8, 1, 1.0, 0.4, 0.01, math.nan),
                                InvalidParamError, "C must be positive and finite"),
    "sufficient_uniform_C_inf": (sufficient_uniform_vector, (1, 8, 1, 0.5, 1.0, 0.01, math.inf),
                                 InvalidParamError, "C must be positive and finite"),
    "sufficient_nonuniform_C_nan": (sufficient_nonuniform_vector, (1, 8, 1, 0.5, 0.01, 1, math.nan),
                                    InvalidParamError, "C must be positive and finite"),
    "sufficient_scalar_alpha_inf": (sufficient_scalar_measurements, (1, 8, 1, math.inf, 0.4, 0.01),
                                    InvalidParamError, "alpha must be positive and finite"),
    "sufficient_uniform_alpha_nan": (sufficient_uniform_vector, (1, 8, 1, 0.5, math.nan, 0.01),
                                     InvalidParamError, "alpha must be positive and finite"),
    "mu_f_cap_nan": (mu_f_sparsity_cap, (math.nan,), NegativeInputError, "mu_f must be nonnegative and finite"),
    "mu_f_cap_inf": (mu_f_sparsity_cap, (math.inf,), NegativeInputError, "mu_f must be nonnegative and finite"),
}


@pytest.mark.parametrize("case", sorted(GUARDS))
def test_guard_raises(case):
    fn, args, error, message = GUARDS[case]
    with pytest.raises(error, match=re.escape(message)):
        fn(*args)


class TestMonotonicity:
    def test_sufficient_bounds_monotone(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            s = int(rng.integers(1, 20))
            n = int(rng.integers(4 * (s + 1), 4 * (s + 1) + 500))
            k = int(rng.integers(1, 6))
            lam = float(rng.uniform(0.0, 0.99))
            alpha = float(rng.uniform(0.5, 2.0))
            eps = 0.05
            for fn in (
                lambda s_, k_, lam_, a_: sufficient_scalar_measurements(s_, n, k_, a_, 0.3, eps),
                lambda s_, k_, lam_, a_: sufficient_uniform_vector(s_, n, k_, lam_, a_, eps),
                lambda s_, k_, lam_, a_: sufficient_nonuniform_vector(s_, n, k_, lam_, eps, 1),
            ):
                base = fn(s, k, lam, alpha)
                assert fn(s + 1, k, lam, alpha) >= base - 1e-12
                assert fn(s, k + 1, lam, alpha) >= base - 1e-12
                assert fn(s, k, min(1.0, lam + 0.01), alpha) >= base - 1e-12
                assert fn(s, k, lam, alpha + 0.1) >= base - 1e-12

    def test_necessary_monotone_in_k_and_regular_s(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            s = int(rng.integers(1, 10))
            # stay above the clamp threshold, where the count increases in s
            n = int(rng.integers(math.ceil(32 * math.e * (s + 1)), 3000))
            k = int(rng.integers(1, 6))
            base = necessary_scalar_measurements(s, n, k)
            assert necessary_scalar_measurements(s, n, k + 1) >= base
            assert necessary_scalar_measurements(s + 1, n, k) >= base

    def test_gap_direction_at_packing_floor(self):
        for (d, k, n, s) in [
            (16, 2, 1024, 4),
            (8, 1, 4096, 8),
            (32, 4, 2048, 2),
            (9, 3, 729, 3),
        ]:
            lam = lambda_lower_bound(d, k, n)
            sufficient = sufficient_uniform_vector(s, n, k, lam, 1.0, 0.01)
            necessary = necessary_vector_measurements(s, n, k, d)
            assert sufficient >= necessary


class TestBoundReport:
    def test_report_fields_and_echo(self):
        rep = bound_report(s=2, N=64, k=2, d=8, lam=0.3)
        assert rep.regime_ok
        assert rep.parameters["lambda"] == 0.3
        assert rep.parameters["s"] == 2
        assert rep.necessary_scalar == pytest.approx(
            necessary_scalar_measurements(2, 64, 2)
        )
        assert rep.lambda_floor == lambda_lower_bound(8, 2, 64)
        assert rep.equiisoclinic_cap == equiisoclinic_cap(8, 2)
        doc = rep.to_dict()
        assert doc["regime_ok"] is True
        assert doc["parameters"]["N"] == 64

    def test_out_of_regime_flagged_without_warning(self, recwarn):
        rep = bound_report(s=8, N=16, k=1, d=4, lam=0.0)
        assert not rep.regime_ok
        assert rep.mu_f_sparsity_cap == math.inf
        assert rep.to_dict()["mu_f_sparsity_cap"] is None
        assert not any(
            isinstance(w.message, RegimeViolationWarning) for w in recwarn.list
        )
