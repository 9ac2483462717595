import dataclasses
import math
from itertools import combinations

import numpy as np
import pytest

from fusioncs import solver
from fusioncs.errors import (
    DimMismatchError,
    NotOrthogonalError,
    TooLargeError,
    ZeroCoefficientError,
)
from fusioncs.experiments import (
    STREAM_ENSEMBLE,
    STREAM_NOISE,
    STREAM_SIGNAL,
    cell_key,
    derive_seed,
)
from fusioncs.frames import (
    SubspaceCollection,
    _orthonormalize,
    angle_family,
    orthogonal_collection,
    random_collection,
)
from fusioncs.measurement import (
    EnsembleSpec,
    add_noise,
    compose_with_bases,
    matrix_coherences,
    sample_ensemble,
    scalar_operator,
    vector_operator,
)
from fusioncs.signals import coeff_vector, norm_21, random_sparse_signal
from fusioncs.solver import (
    certify,
    closed_form_orthogonal,
    diagnostics,
    oracle_recover_exhaustive,
    solve_equality,
    solve_noisy,
)


def planted_instance(coll, s, m, seed, scale=1.0, distribution="gaussian"):
    x = random_sparse_signal(coll, s, seed=seed)
    a = sample_ensemble(EnsembleSpec(distribution, m, coll.size, seed=seed + 7919))
    b = compose_with_bases(vector_operator(a, coll.ambient_dim, scale=scale), coll)
    truth = coeff_vector(x)
    return b, truth, b.matvec(truth)


def rel_err(sol, truth):
    est = coeff_vector(sol.estimate)
    return float(np.linalg.norm(est - truth) / np.linalg.norm(truth))


class TestSolveEquality:
    def test_zero_rhs(self):
        coll = random_collection(4, 2, 5, seed=0)
        b, _, _ = planted_instance(coll, 2, 3, seed=1)
        sol = solve_equality(b, np.zeros(b.out_dim))
        assert sol.status == "converged"
        assert sol.iterations <= 1
        assert norm_21(sol.estimate) == 0.0
        assert sol.objective == 0.0

    def test_orthogonal_single_measurement_matches_closed_form(self):
        coll = orthogonal_collection(12, 2, 6)
        rng = np.random.default_rng(3)
        a = rng.standard_normal((1, 6))
        x = random_sparse_signal(coll, 3, seed=4, amplitude_law="gaussian_blocks")
        b = compose_with_bases(vector_operator(a, 12), coll)
        y = b.matvec(coeff_vector(x))
        sol = solve_equality(b, y)
        closed = closed_form_orthogonal(y, a[0], coll)
        assert sol.status == "converged"
        diff = np.linalg.norm(coeff_vector(sol.estimate) - coeff_vector(closed))
        assert diff / np.linalg.norm(coeff_vector(closed)) <= 1e-8

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_exhaustive_oracle(self, seed):
        # the l2,1 program promises its own minimizer, not the sparsest
        # solution; as in acceptance criterion 2, a mismatch is accepted only
        # when a certified lower objective on a B with a null space explains it
        rng = np.random.default_rng(seed)
        coll = random_collection(4, 2, 8, seed=seed)
        s = int(rng.integers(1, 3))
        m = int(rng.integers(3, 9))
        b, truth, y = planted_instance(coll, s, m, seed=seed + 100)
        oracle, unique = oracle_recover_exhaustive(b, y, s)
        if unique:
            sol = solve_equality(b, y)
            assert sol.status == "converged"
            assert certify(sol, b, y).ok
            slack = 10.0 * solver.TOL_GAP
            deficit = norm_21(oracle) - norm_21(sol.estimate)
            assert deficit >= -slack
            if rel_err(sol, coeff_vector(oracle)) > 1e-6:
                rank = np.linalg.matrix_rank(b.support_matrix(range(coll.size)))
                assert deficit > slack and rank < b.in_dim

    def test_underdetermined_recovery_to_rounding(self):
        # 12 measurement rows for 16 coefficients: the interior-point method
        # runs, and least squares on the detected support makes the
        # estimate exact rather than accurate to the gap tolerance
        coll = random_collection(4, 2, 8, seed=3)
        b, truth, y = planted_instance(coll, 2, 3, seed=103)
        sol = solve_equality(b, y)
        assert sol.status == "converged" and sol.iterations > 0
        assert rel_err(sol, truth) <= 1e-12

    def test_ill_conditioned_injective_recovery(self):
        # one block scaled by 1e-4 makes cond(B) about 2e5; least squares
        # through the factor of B^T B alone would lose its square
        coll = random_collection(4, 2, 8, seed=11)
        a = sample_ensemble(EnsembleSpec("gaussian", 4, 8, seed=12))
        a[:, 7] *= 1e-4
        b = compose_with_bases(vector_operator(a, 4), coll)
        truth = coeff_vector(random_sparse_signal(coll, 3, seed=13))
        y = b.matvec(truth)
        sol = solve_equality(b, y)
        assert sol.status == "converged" and sol.iterations == 0
        assert certify(sol, b, y).ok
        assert rel_err(sol, truth) <= 1e-10

    def test_objective_never_exceeds_truth(self):
        for seed in range(20):
            coll = random_collection(4, 2, 6, seed=seed)
            b, truth, y = planted_instance(coll, 2, 4, seed=seed)
            sol = solve_equality(b, y)
            assert sol.status == "converged"
            truth_obj = norm_21(random_sparse_signal(coll, 2, seed=seed))
            assert sol.objective <= truth_obj + solver.TOL_GAP + 1e-9

    def test_scale_equivariance(self):
        coll = random_collection(4, 2, 8, seed=1)
        b, truth, y = planted_instance(coll, 2, 5, seed=2)
        base = solve_equality(b, y)
        scaled = solve_equality(b, 7.3 * y)
        lhs = coeff_vector(scaled.estimate)
        rhs = 7.3 * coeff_vector(base.estimate)
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) <= 1e-8

    def test_feasibility_of_converged(self):
        coll = random_collection(4, 2, 8, seed=5)
        b, truth, y = planted_instance(coll, 2, 5, seed=6)
        sol = solve_equality(b, y)
        resid = np.linalg.norm(b.matvec(coeff_vector(sol.estimate)) - y)
        assert resid <= solver.TOL_PRIMAL * (1.0 + np.linalg.norm(y)) * 1.5

    def test_max_iters_status(self):
        # underdetermined planted instance: no single-point shortcut applies,
        # and the first step's support does not yet pass the certificate
        coll = random_collection(4, 2, 8, seed=2)
        b, truth, y = planted_instance(coll, 2, 3, seed=3)
        sol = solve_equality(b, y, max_iters=1)
        assert sol.status == "max_iters"
        assert sol.iterations == 1

    def test_max_iters_must_be_positive(self):
        coll = random_collection(4, 2, 8, seed=2)
        b, _, y = planted_instance(coll, 2, 3, seed=3)
        with pytest.raises(ValueError):
            solve_equality(b, y, max_iters=0)

    def test_complementarity_support_certified_in_two_steps(self):
        # the support read off t_j > z0_j - ||z1_j|| passes the certificate
        # within two Newton steps
        coll = random_collection(4, 2, 8, seed=2)
        b, truth, y = planted_instance(coll, 2, 3, seed=3)
        sol = solve_equality(b, y)
        assert sol.status == "converged"
        assert sol.iterations <= 2
        assert certify(sol, b, y).ok
        assert rel_err(sol, truth) <= 1e-10

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_detected_support_exit_on_ragged_dims(self, scale):
        # heads and tails of ragged cones: every solve must end through the
        # support that complementarity detects, whose least-squares fit is
        # the estimate, and not through the interior-point gap
        rng = np.random.default_rng(21)
        dims = (1, 2, 2, 1)
        coll = SubspaceCollection(tuple(_orthonormalize(rng.standard_normal((5, k))) for k in dims))
        b = compose_with_bases(vector_operator(rng.standard_normal((1, 4)), 5), coll)  # 5 x 6
        for j, k in enumerate(dims):
            coeffs = [rng.standard_normal(k) if i == j else np.zeros(k) for i, k in enumerate(dims)]
            truth = np.concatenate(coeffs)
            y = scale * b.matvec(truth)
            sol = solve_equality(b, y)
            assert sol.status == "converged"
            assert sol.iterations >= 1
            assert certify(sol, b, y).ok
            est = coeff_vector(sol.estimate)
            cols = est != 0.0
            assert np.array_equal(est[cols], np.linalg.lstsq(b.matrix[:, cols], y, rcond=None)[0])
            assert np.linalg.norm(est - scale * truth) <= 1e-9 * scale

    def test_stalled_status(self, monkeypatch):
        # a singular Newton matrix from the third solve on (the second step's
        # predictor) ends the steps early: that is not max_iters
        coll = random_collection(4, 2, 8, seed=2)
        b, truth, y = planted_instance(coll, 2, 3, seed=3)
        real_solve = np.linalg.solve
        calls = []

        def failing_solve(*args, **kwargs):
            calls.append(None)
            if len(calls) >= 3:
                raise np.linalg.LinAlgError("singular matrix")
            return real_solve(*args, **kwargs)

        monkeypatch.setattr("fusioncs.solver.np.linalg.solve", failing_solve)
        sol = solve_equality(b, y)
        assert sol.status == "stalled"
        assert sol.iterations == 1 < solver.MAX_ITERS

    def test_repeated_support_reuses_fit_exactly(self, monkeypatch):
        # a support detected again at the next step keeps its least-squares
        # fit; refitting it every step (the support comparison patched to
        # fail) must give the same bits and steps with more lstsq calls
        instances = [planted_instance(random_collection(4, 2, 8, seed=seed), s, m, seed=seed)
                     for seed in range(6) for s in (1, 2) for m in (2, 3)]
        real_lstsq = np.linalg.lstsq
        calls = []

        def counting_lstsq(*args, **kwargs):
            calls.append(None)
            return real_lstsq(*args, **kwargs)

        monkeypatch.setattr("fusioncs.solver.np.linalg.lstsq", counting_lstsq)
        cached = [solve_equality(b, y) for b, _, y in instances]
        cached_calls = len(calls)
        monkeypatch.setattr("fusioncs.solver.np.array_equal", lambda u, v: False)
        refit = [solve_equality(b, y) for b, _, y in instances]
        assert cached_calls < len(calls) - cached_calls
        for one, other in zip(cached, refit):
            assert (one.status, one.iterations) == (other.status, other.iterations)
            assert coeff_vector(one.estimate).tobytes() == coeff_vector(other.estimate).tobytes()
            assert one.dual_vector.tobytes() == other.dual_vector.tobytes()

    def test_infeasible_detected(self):
        coll = random_collection(4, 2, 2, seed=8)  # 4 coefficients
        a = sample_ensemble(EnsembleSpec("gaussian", 3, 2, seed=9))
        b = compose_with_bases(vector_operator(a, 4), coll)  # 12 x 4, injective
        rng = np.random.default_rng(10)
        y = rng.standard_normal(b.out_dim)
        sol = solve_equality(b, y)
        assert sol.status == "infeasible"

    def test_objective_equals_estimate_norm(self):
        coll = random_collection(4, 2, 6, seed=11)
        b, truth, y = planted_instance(coll, 2, 4, seed=12)
        sol = solve_equality(b, y)
        assert sol.objective == pytest.approx(norm_21(sol.estimate), abs=1e-12)
        diag = diagnostics(sol)
        assert diag["status"] == "converged"
        assert set(diag) == {
            "status",
            "iterations",
            "primal_residual",
            "dual_residual",
            "duality_gap",
            "objective",
        }


class TestSolveNoisy:
    def test_large_eta_gives_zero(self):
        coll = random_collection(4, 2, 6, seed=0)
        b, truth, y = planted_instance(coll, 2, 4, seed=1)
        sol = solve_noisy(b, y, float(np.linalg.norm(y)) * 1.01)
        assert sol.status == "converged"
        assert sol.objective == 0.0

    def test_eta_zero_matches_equality(self):
        coll = random_collection(4, 2, 6, seed=2)
        b, truth, y = planted_instance(coll, 2, 4, seed=3)
        eq = solve_equality(b, y)
        noisy = solve_noisy(b, y, 0.0)
        diff = np.linalg.norm(coeff_vector(eq.estimate) - coeff_vector(noisy.estimate))
        assert diff / np.linalg.norm(coeff_vector(eq.estimate)) <= 1e-8

    def test_ball_feasibility(self):
        coll = orthogonal_collection(12, 2, 6)
        m = 4
        b, truth, clean = planted_instance(coll, 2, m, seed=5, scale=1.0 / math.sqrt(m))
        eta = 1e-2
        y = add_noise(clean, eta, seed=6)
        sol = solve_noisy(b, y, eta)
        assert sol.status == "converged"
        resid = np.linalg.norm(b.matvec(coeff_vector(sol.estimate)) - y)
        assert resid <= eta * (1.0 + 1e-9) + 1e-12

    def test_stability_slope(self):
        coll = orthogonal_collection(12, 2, 6)
        m = 4
        b, truth, clean = planted_instance(coll, 2, m, seed=7, scale=1.0 / math.sqrt(m))
        etas = np.logspace(-5, -1, 10)
        errs = []
        for eta in etas:
            sol = solve_noisy(b, clean, float(eta))
            assert sol.status == "converged"
            errs.append(np.linalg.norm(coeff_vector(sol.estimate) - truth))
        slope, intercept = np.polyfit(etas, errs, 1)
        assert slope <= 50.0
        assert abs(intercept) <= 1e-4

    def test_criterion_9_trial_converges_in_few_steps(self):
        # trial 3 of acceptance criterion 9 at eta = 1e-4, an instance that
        # first-order splitting could not finish in 20,000 iterations
        coll = orthogonal_collection(12, 2, 6)
        key = cell_key("orthogonal", None, 2, 4, None)
        x = random_sparse_signal(coll, 2, derive_seed(99, key, 3, STREAM_SIGNAL))
        a = sample_ensemble(
            EnsembleSpec("gaussian", 4, 6, derive_seed(99, key, 3, STREAM_ENSEMBLE))
        )
        b = compose_with_bases(vector_operator(a, 12, scale=0.5), coll)
        y = add_noise(b.matvec(coeff_vector(x)), 1e-4, derive_seed(99, key, 3, STREAM_NOISE))
        sol = solve_noisy(b, y, 1e-4, max_iters=20000)
        assert sol.status == "converged"
        assert certify(sol, b, y).ok
        assert sol.iterations < 200

    def test_infeasible_when_eta_too_small(self):
        coll = random_collection(4, 2, 2, seed=8)
        a = sample_ensemble(EnsembleSpec("gaussian", 3, 2, seed=9))
        b = compose_with_bases(vector_operator(a, 4), coll)
        rng = np.random.default_rng(10)
        y = rng.standard_normal(b.out_dim)
        # distance from y to the 4-dimensional range of B
        dense = b.support_matrix(range(2))
        resid = y - dense @ np.linalg.lstsq(dense, y, rcond=None)[0]
        dist = float(np.linalg.norm(resid))
        assert solve_noisy(b, y, 0.5 * dist).status == "infeasible"
        sol = solve_noisy(b, y, 1.2 * dist)
        assert sol.status == "converged"


class TestScalarKind:
    """The paper's second measurement model: one dense map of the stacked signal."""

    def test_kronecker_scalar_matches_vector(self):
        coll = random_collection(4, 2, 8, seed=3)
        m = 3
        a = sample_ensemble(EnsembleSpec("gaussian", m, coll.size, seed=4))
        scale = 1.0 / math.sqrt(m)
        vec_b = compose_with_bases(vector_operator(a, coll.ambient_dim, scale), coll)
        phi = np.kron(a, np.eye(coll.ambient_dim))
        sca_b = compose_with_bases(scalar_operator(phi, scale), coll)
        y = vec_b.matvec(coeff_vector(random_sparse_signal(coll, 2, seed=5)))
        pairs = [
            (solve_equality(vec_b, y), solve_equality(sca_b, y)),
            (solve_noisy(vec_b, y, 1e-3), solve_noisy(sca_b, y, 1e-3)),
        ]
        for vec_sol, sca_sol in pairs:
            assert vec_sol.status == sca_sol.status == "converged"
            lhs, rhs = coeff_vector(sca_sol.estimate), coeff_vector(vec_sol.estimate)
            assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)

    def test_dense_gaussian_planted_recovery(self):
        coll = random_collection(4, 2, 6, seed=7)
        phi = sample_ensemble(EnsembleSpec("gaussian", 10, 4 * 6, seed=8))
        b = compose_with_bases(scalar_operator(phi, 1.0 / math.sqrt(10)), coll)
        truth = coeff_vector(random_sparse_signal(coll, 2, seed=9))
        y = b.matvec(truth)
        sol = solve_equality(b, y)
        assert sol.status == "converged"
        assert sol.iterations > 0  # 10 measurements of 12 unknowns: not a single point
        assert certify(sol, b, y).ok
        assert rel_err(sol, truth) <= 1e-6


class TestClosedFormOrthogonal:
    def test_recovers_exactly(self):
        coll = orthogonal_collection(12, 2, 6)
        rng = np.random.default_rng(1)
        a = rng.standard_normal(6)
        x = random_sparse_signal(coll, 4, seed=2, amplitude_law="gaussian_blocks")
        op = vector_operator(a.reshape(1, -1), 12)
        b = compose_with_bases(op, coll)
        y = b.matvec(coeff_vector(x))
        rec = closed_form_orthogonal(y, a, coll)
        assert np.linalg.norm(coeff_vector(rec) - coeff_vector(x)) <= 1e-12

    def test_zero_measurement(self):
        coll = orthogonal_collection(6, 2, 3)
        rec = closed_form_orthogonal(np.zeros(6), np.ones(3), coll)
        assert norm_21(rec) == 0.0

    def test_zero_coefficient_rejected(self):
        coll = orthogonal_collection(6, 2, 3)
        with pytest.raises(ZeroCoefficientError):
            closed_form_orthogonal(np.zeros(6), np.array([1.0, 0.0, 1.0]), coll)

    def test_not_orthogonal_rejected(self):
        coll = angle_family(2, 3, 0.5)
        with pytest.raises(NotOrthogonalError):
            closed_form_orthogonal(np.zeros(coll.ambient_dim), np.ones(3), coll)


class TestOracle:
    def test_planted_recovery(self):
        coll = random_collection(4, 2, 8, seed=0)
        b, truth, y = planted_instance(coll, 2, 5, seed=1)
        rec, unique = oracle_recover_exhaustive(b, y, 2)
        assert rec is not None
        assert np.linalg.norm(coeff_vector(rec) - truth) <= 1e-9
        assert unique

    def test_zero_rhs(self):
        coll = random_collection(4, 2, 6, seed=2)
        b, _, _ = planted_instance(coll, 2, 4, seed=3)
        rec, unique = oracle_recover_exhaustive(b, np.zeros(b.out_dim), 2)
        assert rec is not None
        assert norm_21(rec) == 0.0
        assert unique

    def test_unreachable_rhs(self):
        coll = random_collection(4, 2, 6, seed=4)
        a = sample_ensemble(EnsembleSpec("gaussian", 4, 6, seed=5))
        b = compose_with_bases(vector_operator(a, 4), coll)
        rng = np.random.default_rng(6)
        y = rng.standard_normal(b.out_dim)  # generic: no s-sparse fit with m > sk
        rec, unique = oracle_recover_exhaustive(b, y, 1)
        assert rec is None
        assert not unique

    @staticmethod
    def dense_blocks(*blocks):
        """Operator whose coefficient matrix is the given column blocks."""
        coll = SubspaceCollection(tuple(np.eye(blk.shape[1]) for blk in blocks))
        return compose_with_bases(scalar_operator(np.hstack(blocks)), coll)

    def test_two_fitting_supports_smaller_norm_wins(self):
        rng = np.random.default_rng(9)
        pq = rng.standard_normal((12, 2))
        # y = pq (1, 1) = 2pq (0.5, 0.5): both single blocks fit; the
        # second has the smaller block norm sum
        b = self.dense_blocks(pq, 2.0 * pq, rng.standard_normal((12, 2)), rng.standard_normal((12, 2)))
        rec, unique = oracle_recover_exhaustive(b, pq.sum(axis=1), 2)
        assert not unique
        np.testing.assert_allclose(coeff_vector(rec), [0, 0, 0.5, 0.5, 0, 0, 0, 0], atol=1e-12)
        # equal sums (the same columns swapped): the first support wins
        b = self.dense_blocks(pq, pq[:, ::-1], rng.standard_normal((12, 2)), rng.standard_normal((12, 2)))
        rec, unique = oracle_recover_exhaustive(b, pq.sum(axis=1), 2)
        assert not unique
        np.testing.assert_allclose(coeff_vector(rec), [1, 1, 0, 0, 0, 0, 0, 0], atol=1e-12)

    def test_rank_deficient_sole_fit_not_unique(self):
        rng = np.random.default_rng(10)
        p, q, r = rng.standard_normal((3, 12))
        # only the pair (0, 1) fits p + r, and its columns [p q q r] have rank 3
        b = self.dense_blocks(
            np.column_stack([p, q]), np.column_stack([q, r]),
            rng.standard_normal((12, 2)), rng.standard_normal((12, 2)),
        )
        y = p + r
        rec, unique = oracle_recover_exhaustive(b, y, 2)
        assert rec is not None
        assert not unique
        assert np.linalg.norm(b.matvec(coeff_vector(rec)) - y) <= 1e-8 * (1 + np.linalg.norm(y))
        # lstsq's minimum-norm solution puts nothing on the shared column q
        np.testing.assert_allclose(coeff_vector(rec), [1, 0, 0, 1, 0, 0, 0, 0], atol=1e-10)

    def test_planted_recovery_on_ragged_block_dims(self):
        rng = np.random.default_rng(11)
        dims = (1, 2, 2, 1)
        coll = SubspaceCollection(tuple(_orthonormalize(rng.standard_normal((4, k))) for k in dims))
        b = compose_with_bases(vector_operator(rng.standard_normal((3, 4)), 4), coll)
        for supp in combinations(range(4), 2):
            coeffs = [rng.standard_normal(k) if j in supp else np.zeros(k) for j, k in enumerate(dims)]
            truth = np.concatenate(coeffs)
            rec, unique = oracle_recover_exhaustive(b, b.matvec(truth), 2)
            assert unique
            assert np.linalg.norm(coeff_vector(rec) - truth) <= 1e-10

    def test_guard(self):
        coll = random_collection(4, 2, 40, seed=7)
        b, _, y = planted_instance(coll, 2, 4, seed=8)
        with pytest.raises(TooLargeError):
            oracle_recover_exhaustive(b, y, 20)


class TestCertify:
    def test_converged_solutions_pass(self):
        for seed in range(30):
            coll = random_collection(4, 2, 6, seed=seed)
            b, truth, y = planted_instance(coll, 2, 4, seed=seed + 50)
            sol = solve_equality(b, y)
            assert sol.status == "converged"
            rep = certify(sol, b, y)
            assert rep.ok, (seed, rep)

    def test_reported_gap_is_certify_gap(self):
        # the solver reports the gap certify recomputes, bit for bit
        for seed in range(30):
            coll = random_collection(4, 2, 6, seed=seed)
            b, _, y = planted_instance(coll, 2, 4, seed=seed + 50)
            y = 10.0 ** (seed % 5 - 2) * y
            for sol in (solve_equality(b, y), solve_noisy(b, y, 1e-3 * np.linalg.norm(y))):
                assert sol.status == "converged"
                assert sol.duality_gap == certify(sol, b, y).duality_gap, seed

    def test_solution_of_another_operator_rejected(self):
        coll = random_collection(4, 2, 6, seed=1)
        b, _, y = planted_instance(coll, 2, 4, seed=2)
        other, _, _ = planted_instance(coll, 2, 3, seed=2)
        with pytest.raises(DimMismatchError):
            certify(solve_equality(b, y), other, y[: other.out_dim])

    def test_zero_instance(self):
        coll = random_collection(4, 2, 6, seed=1)
        b, _, _ = planted_instance(coll, 2, 4, seed=2)
        sol = solve_equality(b, np.zeros(b.out_dim))
        assert certify(sol, b, np.zeros(b.out_dim)).ok

    def test_tampered_estimate_flagged(self):
        coll = random_collection(4, 2, 6, seed=3)
        b, truth, y = planted_instance(coll, 2, 4, seed=4)
        sol = solve_equality(b, y)
        doubled = dataclasses.replace(
            sol,
            estimate=sol.estimate + sol.estimate,
        )
        rep = certify(doubled, b, y)
        assert not rep.primal_ok
        assert not rep.ok

    def test_perturbing_zero_block_increases_objective(self):
        coll = random_collection(4, 2, 8, seed=5)
        b, truth, y = planted_instance(coll, 1, 3, seed=6)
        sol = solve_equality(b, y)
        assert sol.status == "converged"
        c = coeff_vector(sol.estimate)
        dense = b.support_matrix(range(coll.size))
        pinv = np.linalg.pinv(dense)
        norms = [np.linalg.norm(c[b.block_slice(j)]) for j in range(coll.size)]
        j_zero = int(np.argmin(norms))
        rng = np.random.default_rng(7)
        perturbed = c.copy()
        perturbed[b.block_slice(j_zero)] += 1e-3 * rng.standard_normal(
            b.block_dims[j_zero]
        )
        projected = perturbed - pinv @ (dense @ perturbed - y)
        assert np.linalg.norm(dense @ projected - y) <= 1e-9
        obj_perturbed = float(
            np.sum(
                [np.linalg.norm(projected[b.block_slice(j)]) for j in range(coll.size)]
            )
        )
        assert obj_perturbed > sol.objective + 1e-8


class TestMuFRecoveryCap:
    def test_recovery_below_cap(self):
        # coherent-but-mild family: measured mu_f must admit s = 2
        coll = angle_family(2, 6, math.asin(math.sqrt(0.2)))
        m = 6
        tested = 0
        for seed in range(50):
            a = sample_ensemble(EnsembleSpec("gaussian", m, 6, seed=seed))
            a = a / np.linalg.norm(a, axis=0)
            mu, mu_f = matrix_coherences(a, coll)
            cap = (1.0 + 1.0 / mu_f) / 2.0 if mu_f > 0 else math.inf
            s = 2
            if s >= cap:
                continue
            tested += 1
            x = random_sparse_signal(coll, s, seed=seed + 1000)
            b = compose_with_bases(vector_operator(a, coll.ambient_dim), coll)
            truth = coeff_vector(x)
            sol = solve_equality(b, b.matvec(truth))
            assert sol.status == "converged"
            assert rel_err(sol, truth) <= 1e-6
        assert tested >= 25
