import dataclasses
import math
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusioncs import measurement, solver
from fusioncs.errors import (
    DimMismatchError,
    InvalidSparsityError,
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
    build_collection,
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
    support_columns,
    support_unions,
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


def dense_operator(matrix, k=2):
    """The operator whose B is ``matrix``: a scalar operator on subspaces
    that are each all of R^k."""
    coll = SubspaceCollection(tuple(np.eye(k) for _ in range(matrix.shape[1] // k)))
    return compose_with_bases(scalar_operator(matrix), coll)


def rel_err(sol, truth):
    est = coeff_vector(sol.estimate)
    return float(np.linalg.norm(est - truth) / np.linalg.norm(truth))


def single_block_solves(scale):
    """Equality solves of each one-block signal on three random planes of
    R^5 through a 5 x 6 B, as (b, truth, y, solution)."""
    rng = np.random.default_rng(21)
    coll = SubspaceCollection(tuple(_orthonormalize(rng.standard_normal((5, 2))) for _ in range(3)))
    b = compose_with_bases(vector_operator(rng.standard_normal((1, 3)), 5), coll)
    for j in range(3):
        truth = np.concatenate([rng.standard_normal(2) if i == j else np.zeros(2) for i in range(3)])
        y = scale * b.matvec(truth)
        yield b, truth, y, solve_equality(b, y)


def assert_support_dual(b, sol):
    """B_S^T nu = g_S on the estimate's support S (g the subgradient) and
    every block of B^T nu off S in the unit ball."""
    est = coeff_vector(sol.estimate)
    cols = est != 0.0
    k = b.collection.block_dim
    norms = solver._block_norms_flat(est, k)
    g = est / np.repeat(np.maximum(norms, 1e-300), k)
    np.testing.assert_allclose(b.matrix[:, cols].T @ sol.dual_vector, g[cols], rtol=0, atol=1e-9)
    off = solver._block_norms_flat(b.matrix.T @ sol.dual_vector, k)[norms == 0.0]
    assert np.all(off <= 1.0 + solver.TOL_DUAL)


def exit_gives_up(stack, k, support, c, nu):
    """A support exit that gives up on every program of its stack."""
    return c, nu


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
        coll = random_collection(4, 2, 8, seed=5)
        b, truth, y = planted_instance(coll, 2, 3, seed=5)
        sol = solve_equality(b, y, max_iters=1)
        assert sol.status == "max_iters"
        assert sol.iterations == 1

    def test_max_iters_must_be_positive(self):
        coll = random_collection(4, 2, 8, seed=2)
        b, _, y = planted_instance(coll, 2, 3, seed=3)
        with pytest.raises(ValueError):
            solve_equality(b, y, max_iters=0)

    def test_complementarity_support_certified_in_two_steps(self):
        # the support read off complementarity at the step whose gap test
        # first passes gives the certified estimate
        coll = random_collection(4, 2, 8, seed=2)
        b, truth, y = planted_instance(coll, 2, 3, seed=3)
        sol = solve_equality(b, y)
        assert sol.status == "converged"
        assert certify(sol, b, y).ok
        assert rel_err(sol, truth) <= 1e-10

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_detected_support_exit(self, scale):
        # every solve must end through the support that complementarity
        # detects, whose least-squares fit is the estimate, and not through
        # the interior-point gap
        for b, truth, y, sol in single_block_solves(scale):
            assert sol.status == "converged"
            assert sol.iterations >= 1
            assert certify(sol, b, y).ok
            est = coeff_vector(sol.estimate)
            cols = est != 0.0
            fit = np.linalg.lstsq(b.matrix[:, cols], y, rcond=None)[0]
            assert np.linalg.norm(est[cols] - fit) <= 1e-12 * np.linalg.norm(fit)
            assert np.linalg.norm(est - scale * truth) <= 1e-9 * scale

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_narrow_support_exit_dual_solves_optimality_equations(self, scale):
        # each support has 2 coefficients against B's 5 rows: the dual is
        # the step's nu projected onto B_S^T nu = g_S
        for b, _, y, sol in single_block_solves(scale):
            cols = coeff_vector(sol.estimate) != 0.0
            assert 0 < np.count_nonzero(cols) <= b.out_dim
            assert_support_dual(b, sol)

    def test_wide_support_ends_on_the_dual_iterate(self, monkeypatch):
        # the optimal support has 6 coefficients against B's 4 rows, so no
        # least-squares fit on B's columns certifies: the solve ends on the
        # iterate that passed the gap test, c = -z1 moved onto B c = y, and
        # a strictly feasible nu
        b, _, y = planted_instance(random_collection(4, 2, 8, seed=0), 2, 1, seed=30)
        real_exits, iterates = solver._support_exits, []

        def exits(stack, k, support, c, nu):
            iterates.append(c[0].copy())
            return real_exits(stack, k, support, c, nu)

        monkeypatch.setattr(solver, "_support_exits", exits)
        sol = solve_equality(b, y)
        assert sol.status == "converged" and certify(sol, b, y).ok
        (c,) = iterates
        norms = solver._block_norms_flat(c, 2)
        assert np.count_nonzero(norms > 1e-6 * norms.max()) * 2 > b.out_dim
        assert np.array_equal(coeff_vector(sol.estimate), c * np.linalg.norm(y))
        assert sol.primal_residual <= 1e-14 and sol.dual_residual == 0.0

    def test_stalled_status(self, monkeypatch):
        # a singular matrix from the third solve on (the second step's
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

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, entry):
        coll = random_collection(4, 2, 8, seed=2)
        b, _, y = planted_instance(coll, 2, 3, seed=3)
        bad = y.copy()
        bad[4] = entry
        for call in (lambda: solve_equality(b, bad), lambda: solve_noisy(b, bad, 1e-3),
                     lambda: solve_noisy(b, y, abs(entry)), lambda: oracle_recover_exhaustive(b, bad, 2),
                     lambda: certify(solve_equality(b, y), b, bad)):
            with pytest.raises(ValueError, match="must be finite"):
                call()
        # a non-finite B fails once, where it is built, for the solves and the oracle alike
        a, phi = np.ones((3, 8)), np.ones((6, 32))
        a[1, 2] = phi[2, 5] = entry
        for op in (vector_operator(a, 4), scalar_operator(phi)):
            with pytest.raises(ValueError, match="the operator has non-finite entries"):
                compose_with_bases(op, coll)

    @pytest.mark.parametrize("shape", [(1,), (7,), (9,), (8, 1)])
    @pytest.mark.parametrize("entry", ["equality", "noisy", "oracle", "certify"])
    def test_y_of_wrong_shape_rejected(self, entry, shape):
        b, _, y = planted_instance(random_collection(4, 2, 5, seed=1), 2, 2, seed=2)
        assert b.out_dim == 8
        bad = np.ones(shape)
        call = {
            "equality": lambda: solve_equality(b, bad),
            "noisy": lambda: solve_noisy(b, bad, 1e-3),
            "oracle": lambda: oracle_recover_exhaustive(b, bad, 2),
            "certify": lambda: certify(solve_equality(b, y), b, bad),
        }[entry]
        with pytest.raises(ValueError, match=rf"expected y of length 8, got shape \({shape[0]},"):
            call()


def random_instance(seed, dims, d, rows, s, kind, scale):
    """A planted s-sparse instance on len(dims) random subspaces of dims[0]
    dimensions, measured by a vector (rows of A, times d) or scalar operator."""
    rng = np.random.default_rng(seed)
    coll = SubspaceCollection(tuple(_orthonormalize(rng.standard_normal((d, k))) for k in dims))
    if kind == "vector":
        op = vector_operator(rng.standard_normal((rows, len(dims))), d)
    else:
        op = scalar_operator(rng.standard_normal((rows * d, d * len(dims))))
    b = compose_with_bases(op, coll)
    support = rng.choice(len(dims), size=min(s, len(dims)), replace=False)
    truth = np.concatenate([rng.standard_normal(k) if j in support else np.zeros(k)
                            for j, k in enumerate(dims)])
    return b, scale * b.matvec(truth)


@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.sampled_from([(2,) * 6, (2,) * 8, (1,) * 7, (3,) * 4]),
    d=st.integers(3, 5),
    rows=st.integers(1, 2),
    s=st.integers(1, 3),
    kind=st.sampled_from(["vector", "scalar"]),
    log_scale=st.floats(-2.0, 2.0),
)
@settings(max_examples=80, deadline=None)
def test_support_system_never_adds_steps(seed, dims, d, rows, s, kind, log_scale):
    # the least-squares fit on the support, attempted once at the step whose
    # gap test passes, against the same solve ending only by that test
    b, y = random_instance(seed, dims, d, rows, s, kind, 10.0**log_scale)
    sol = solve_equality(b, y)
    with mock.patch.object(solver, "_support_exits", exit_gives_up):
        gap_exit = solve_equality(b, y)
    assert gap_exit.status == "converged"
    assert sol.status == "converged"
    assert certify(sol, b, y).ok
    assert sol.iterations == gap_exit.iterations
    assert abs(sol.objective - gap_exit.objective) <= 10 * solver.TOL_GAP * np.linalg.norm(y)


@pytest.mark.parametrize("kind", ["vector", "scalar"])
def test_gap_exit_returns_the_certified_iterate(monkeypatch, kind):
    # with the support emptied, no support fit passes, and every equality
    # solve that steps ends on the interior-point gap test: its estimate is
    # the Newton iterate that test certified, rescaled by ||y|| and
    # feasible to TOL_PRIMAL as it stands
    real_exits = solver._support_exits
    iterates = []

    def empty_support(stack, k, support, c, nu):
        iterates.append(c[0].copy())
        return real_exits(stack, k, np.zeros_like(support), c, nu)

    monkeypatch.setattr(solver, "_support_exits", empty_support)
    for seed in range(12):
        dims = ((2,) * 6, (1,) * 6)[seed % 2]
        b, y = random_instance(seed, dims, 4, 1, 2, kind, 10.0 ** (seed % 5 - 2))
        iterates.clear()
        sol = solve_equality(b, y)
        assert sol.status == "converged" and sol.iterations > 0
        assert len(iterates) == 1
        assert np.array_equal(coeff_vector(sol.estimate), iterates[-1] * np.linalg.norm(y))
        assert certify(sol, b, y).ok
        assert sol.primal_residual <= solver.TOL_PRIMAL


class TestSupportKKT:
    """The support exit's solve of a support's optimality system, B_S c = y
    by least squares and B_S^T nu = g_S by projection, and its give-up
    returns, alone and in a stack. The exit starts from c = 0 and nu = 0,
    which it returns when it gives up."""

    @staticmethod
    def exits(b, y, support, k=2):
        stack = solver._Stack(b=b, y=y, eta=np.zeros(len(b)), ynorm=solver._norms(y))
        fit, nu = solver._support_exits(stack, k, support, np.zeros((len(b), b.shape[2])), np.zeros(y.shape))
        return [(c * norm, n) if c.any() else None for c, n, norm in zip(fit, nu, stack.ynorm)]

    def alone(self, b, y, support):
        return self.exits(b[None], y[None], np.array(support)[None])[0]

    @staticmethod
    def orthonormal(seed, rows=8, cols=8):
        # B with orthonormal columns: the dual projection of a support's
        # subgradient leaves every other block of B^T nu at zero
        return np.linalg.qr(np.random.default_rng(seed).standard_normal((rows, cols)))[0]

    def test_masked_support_matches_its_columns_alone(self):
        # blocks 1 and 3 of four: the masked fit equals lstsq on B_S alone
        # but for rounding and is zero off S, and B_S^T nu = g_S
        b = self.orthonormal(3)
        cols = np.repeat([False, True, False, True], 2)
        x = np.where(cols, np.random.default_rng(4).standard_normal(8), 0.0)
        c, nu = self.alone(b, b @ x, [False, True, False, True])
        alone = np.linalg.lstsq(b[:, cols], b @ x, rcond=None)[0]
        assert np.all(c[~cols] == 0.0)
        assert np.linalg.norm(c[cols] - alone) <= 1e-12 * np.linalg.norm(alone)
        np.testing.assert_allclose((b.T @ nu)[cols], solver._subgradients(c, 2)[cols], rtol=0, atol=1e-12)

    def test_zero_block(self):
        # y uses block 1 alone: block 3's fit is rounding, leaves S, and the
        # dual is projected on block 1 only
        b = self.orthonormal(5)
        x = np.zeros(8)
        x[2:4] = [1.0, -2.0]
        c, nu = self.alone(b, b @ x, [False, True, False, True])
        assert np.all(c[6:] == 0.0) and np.linalg.norm(c - x) <= 1e-12
        assert np.linalg.norm(b[:, 6:].T @ nu) <= 1e-12

    def test_singular_system(self):
        # two equal blocks of B_S make the masked system singular
        b = self.orthonormal(6)
        b[:, 2:4] = b[:, :2]
        assert self.alone(b, b[:, :2] @ [1.0, 1.0], [True, True, False, False]) is None

    def test_non_finite_iterate(self, monkeypatch):
        # unpatched, the fit is taken: only the NaN ends the attempt
        b = self.orthonormal(7)
        y = b[:, :2] @ [1.0, 1.0]
        assert self.alone(b, y, [True, False, False, False]) is not None
        real_solve = np.linalg.solve
        calls = []

        def solve(a, rhs):
            calls.append(None)
            return np.full_like(real_solve(a, rhs), np.nan)

        monkeypatch.setattr("fusioncs.solver.np.linalg.solve", solve)
        assert self.alone(b, y, [True, False, False, False]) is None
        assert calls

    def test_stack_matches_each_support_alone_independent(self):
        # taken fits, a singular masked system, which sends the stack slice
        # by slice, and a fit that misses y, in one stack: every support
        # gets the bits (or the None) of its attempt alone
        b = np.stack([self.orthonormal(seed) for seed in range(5)])
        b[3, :, 2:4] = b[3, :, :2]
        support = np.array([[True, False, True, False]] * 5)
        support[3] = [True, True, False, False]
        x = np.random.default_rng(8).standard_normal((5, 8)) * np.repeat(support, 2, axis=1)
        y = np.einsum("ipw,iw->ip", b, x)
        y[4] += b[4, :, 2]  # y leaves the span of block 0 and 2
        alone = [self.alone(*args) for args in zip(b, y, support)]
        assert [fit is None for fit in alone] == [False, False, False, True, True]
        for rows in (range(5), [0, 2, 3]):
            rows = list(rows)
            for fit, one in zip(self.exits(b[rows], y[rows], support[rows]), [alone[i] for i in rows]):
                assert (fit is None) == (one is None)
                assert fit is None or (fit[0].tobytes(), fit[1].tobytes()) == (one[0].tobytes(), one[1].tobytes())


class TestSupportExits:
    """The masked support fits of an equality program's exit, against lstsq
    on each support, and the stacks that mix support widths."""

    def test_fit_and_dual_match_lstsq_independent(self):
        # full-rank supports on blocks of 2, narrower than and as wide as
        # B's 6 rows, in one stack: with one refinement step, P^T y is the
        # least-squares fit on S and P r the minimum-norm solution of
        # B_S^T nu = r_S, as lstsq gives them; each row has the bits of its
        # stack of one
        rng = np.random.default_rng(5)
        supports = np.array([[0, 1, 0, 0, 0, 0, 0, 0], [1, 0, 1, 0, 0, 0, 0, 1], [1, 1, 0, 1, 0, 0, 0, 0],
                             [0, 0, 1, 0, 1, 0, 1, 0], [0, 0, 0, 0, 0, 0, 1, 1], [0, 0, 0, 1, 0, 1, 0, 0]], dtype=bool)
        mask = np.repeat(supports, 2, axis=1)
        assert mask.sum(axis=1).tolist() == [2, 6, 6, 6, 4, 4]
        b, y, r = rng.standard_normal((6, 6, 16)), rng.standard_normal((6, 6)), rng.standard_normal((6, 16))
        maps, ok = solver._dual_maps(b, mask)
        assert ok.all()
        for i, (b_i, y_i, r_i, cols) in enumerate(zip(b, y, r, mask)):
            fit, nu = np.zeros(16), np.linalg.lstsq(b_i[:, cols].T, r_i[cols], rcond=None)[0]
            fit[cols] = np.linalg.lstsq(b_i[:, cols], y_i, rcond=None)[0]
            c = maps[i].T @ y_i
            c += maps[i].T @ (y_i - b_i @ c)
            step = maps[i] @ r_i
            step += maps[i] @ (r_i - b_i.T @ step)
            assert np.linalg.norm(c - fit) <= 1e-12 * np.linalg.norm(fit)
            assert np.linalg.norm(step - nu) <= 1e-12 * np.linalg.norm(nu)
            alone, _ = solver._dual_maps(b[i:i + 1], mask[i:i + 1])
            assert alone.tobytes() == maps[i:i + 1].tobytes()

    def test_mixed_width_stack_matches_solves_alone_independent(self, monkeypatch):
        # B is 4 x 16 (m = 1): a one-block optimum is narrower than B, and
        # its fit is taken, a three-block one wider, and its iterate kept,
        # and one exit of the stack holds both; each solution equals its
        # solve alone bit for bit
        coll = random_collection(4, 2, 8, seed=0)
        cases = [planted_instance(coll, s, 1, seed=40 + 3 * i + s)[::2] for i in range(4) for s in (1, 2, 3)]
        single = [full_bits(solve_equality(b, y)) for b, y in cases]
        real_exits, taken = solver._support_exits, []

        def exits(stack, k, support, c, nu):
            fit, dual = real_exits(stack, k, support, c, nu)
            taken.append(set((fit != c).any(axis=1).tolist()))
            return fit, dual

        monkeypatch.setattr(solver, "_support_exits", exits)
        sols = solver.solve_many(*zip(*cases), [0.0] * len(cases))
        assert [full_bits(sol) for sol in sols] == single
        assert {False, True} in taken
        for (b, y), sol in zip(cases, sols):
            assert sol.status == "converged" and certify(sol, b, y).ok


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

    # The ball program runs on the thin SVD B = U_r S_r V_r^T, through
    # ||B c - y||^2 = ||S_r V_r^T c - U_r^T y||^2 + ||y_perp||^2, y_perp the
    # part of y outside the range of B. The program, its objective and its certificate must not depend
    # on how B's rows are written.

    def test_rotated_rows_keep_the_objective(self):
        rng = np.random.default_rng(70)
        for b, y, eta in ball_instances(3):
            u, _ = np.linalg.qr(rng.standard_normal((b.out_dim, b.out_dim)))
            rotated_b = dense_operator(u @ b.matrix)
            sol, rotated = solve_noisy(b, y, eta), solve_noisy(rotated_b, u @ y, eta)
            assert sol.status == rotated.status == "converged"
            assert certify(sol, b, y).ok and certify(rotated, rotated_b, u @ y).ok
            assert abs(rotated.objective - sol.objective) <= solver.TOL_GAP

    def test_zero_rows_move_into_the_radius(self):
        # zero rows of B with entries t of y add t to y_perp: the program at
        # radius hypot(eta, ||t||) is the same program
        rng = np.random.default_rng(71)
        for b, y, eta in ball_instances(3):
            t = 0.1 * rng.standard_normal(5)
            padded_b = dense_operator(np.vstack([b.matrix, np.zeros((5, b.in_dim))]))
            padded_y = np.concatenate([y, t])
            sol = solve_noisy(b, y, eta)
            padded = solve_noisy(padded_b, padded_y, math.hypot(eta, float(np.linalg.norm(t))))
            assert padded.status == "converged" and certify(padded, padded_b, padded_y).ok
            assert abs(padded.objective - sol.objective) <= solver.TOL_GAP

    def test_radius_at_the_distance_from_the_range(self):
        # eta just below, at and just above rho = ||y_perp||: the reduced
        # radius sqrt(eta^2 - rho^2) is zero or near it, and the probe must
        # still lie strictly inside the ball
        for b, y, _ in ball_instances(3):
            rho = float(np.linalg.norm(y - b.matrix @ np.linalg.lstsq(b.matrix, y, rcond=None)[0]))
            for eta in (rho * (1.0 - 1e-12), rho, rho * (1.0 + 1e-14)):
                sol = solve_noisy(b, y, eta)
                assert sol.status == "converged" and certify(sol, b, y).ok

    def test_infeasible_exactly_when_no_iterate_can_stop(self):
        # the probe, the point nearest y, decides infeasibility by the stop
        # test's own primal check: eta a few TOL_PRIMAL ||y|| below rho is
        # infeasible at once, and eta within TOL_PRIMAL ||y|| of rho converges
        for b, y, _ in ball_instances(3):
            ynorm = float(np.linalg.norm(y))
            rho = float(np.linalg.norm(y - b.matrix @ np.linalg.lstsq(b.matrix, y, rcond=None)[0]))
            sol = solve_noisy(b, y, rho - 5 * solver.TOL_PRIMAL * ynorm)
            assert (sol.status, sol.iterations) == ("infeasible", 0)
            sol = solve_noisy(b, y, rho - 0.5 * solver.TOL_PRIMAL * ynorm)
            assert sol.status == "converged" and certify(sol, b, y).ok

    @pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6, 1e8, 1e10])
    def test_ill_conditioned_tall_b(self, kappa):
        # a 24 x 12 B with singular values from 1 to 1 / kappa
        rng = np.random.default_rng(round(math.log10(kappa)))
        cases = []
        for i in range(4):
            u, _ = np.linalg.qr(rng.standard_normal((24, 12)))
            v, _ = np.linalg.qr(rng.standard_normal((12, 12)))
            matrix = u @ np.diag(np.geomspace(1.0, 1.0 / kappa, 12)) @ v.T
            truth = np.zeros(12)
            truth[[2, 3, 8, 9]] = rng.standard_normal(4)
            cases.append((dense_operator(matrix), add_noise(matrix @ truth, 1e-3, seed=i), 1e-3))
        for (b, y, _), sol in zip(cases, solver.solve_many(*zip(*cases))):
            assert sol.status == "converged" and certify(sol, b, y).ok


def bits(sol):
    return (coeff_vector(sol.estimate).tobytes(), sol.dual_vector.tobytes(), sol.status, sol.iterations)


def full_bits(sol):
    return bits(sol) + (sol.primal_residual, sol.dual_residual, sol.duality_gap, sol.objective)


def repeated_blocks_instance(seed, repeats):
    """B with 16 rows over 16 coefficients (d=4, k=2, N=8, m=4) whose odd
    blocks 1, 3, ... up to ``repeats`` of them repeat the block before, so
    B's null space has width 2 * repeats, and a y in its range."""
    rng = np.random.default_rng(seed)
    bases = [_orthonormalize(rng.standard_normal((4, 2))) for _ in range(8)]
    a = rng.standard_normal((4, 8))
    for j in range(repeats):
        bases[2 * j + 1], a[:, 2 * j + 1] = bases[2 * j], a[:, 2 * j]
    b = compose_with_bases(vector_operator(a, 4), SubspaceCollection(tuple(bases)))
    truth = np.concatenate([np.zeros(10), rng.standard_normal(2), np.zeros(2), rng.standard_normal(2)])
    return b, b.matvec(truth)


def ball_instances(count):
    """Criterion 9's shape (B 48 x 12) with noise of norm eta: every solve
    takes several Newton steps."""
    coll = orthogonal_collection(12, 2, 6)
    out = []
    for i in range(count):
        b, _, clean = planted_instance(coll, 2, 4, seed=40 + i, scale=0.5)
        eta = (1e-3, 1e-2, 1e-1)[i % 3]
        out.append((b, add_noise(clean, eta, seed=60 + i), eta))
    return out


class TestSolveMany:
    def test_stack_mixing_null_space_widths_independent(self):
        # injective (probe exit) and null widths 2 and 4, equality and ball
        # programs, interleaved in one call: each equals its own solve
        cases = []
        for seed in range(3):
            for repeats in (0, 1, 2):
                b, y = repeated_blocks_instance(seed, repeats)
                assert b.in_dim - np.linalg.matrix_rank(b.matrix) == 2 * repeats
                cases += [(b, y, 0.0), (b, y, 1e-3 * float(np.linalg.norm(y)))]
        sols = solver.solve_many(*zip(*cases))
        assert len(sols) == len(cases)
        assert {sol.iterations > 0 for sol in sols} == {True, False}
        for (b, y, eta), sol in zip(cases, sols):
            assert bits(sol) == bits(solve_noisy(b, y, eta))
            assert sol.status == "converged" and certify(sol, b, y).ok

    def test_singular_trial_stalls_alone_independent(self, monkeypatch):
        # the second step's predictor (the third stacked Newton solve) is
        # singular for one trial: the stack is solved again slice by slice,
        # that trial alone ends stalled after one step, with the bits of
        # the same failure in a solve of its own, and the others keep theirs
        cases = ball_instances(3)
        clean = [solve_noisy(*case) for case in cases]
        real_solve = np.linalg.solve
        stacked, singular = [], []

        def patch(target):
            stacked.clear()
            singular.clear()

            def solve(a, rhs):
                if a.ndim == 3:
                    stacked.append(None)
                    if len(stacked) == 3:
                        singular.append(a[target].copy())
                        raise np.linalg.LinAlgError("singular matrix")
                elif singular and np.array_equal(a, singular[0]):
                    raise np.linalg.LinAlgError("singular matrix")
                return real_solve(a, rhs)

            monkeypatch.setattr("fusioncs.solver.np.linalg.solve", solve)

        patch(1)
        sols = solver.solve_many(*zip(*cases))
        assert [sol.status for sol in sols] == ["converged", "stalled", "converged"]
        assert sols[1].iterations == 1 < min(sol.iterations for sol in clean)
        assert bits(sols[0]) == bits(clean[0]) and bits(sols[2]) == bits(clean[2])
        patch(0)
        assert bits(solve_noisy(*cases[1])) == bits(sols[1])

    def test_matches_single_solves_in_any_order_independent(self):
        cases = ball_instances(6) + [(b, y, 0.0) for b, y in
                                     (repeated_blocks_instance(seed, 1) for seed in range(4))]
        single = [bits(solve_noisy(*case)) for case in cases]
        order = np.random.default_rng(0).permutation(len(cases))
        sols = solver.solve_many(*zip(*(cases[i] for i in order)))
        assert [bits(sol) for sol in sols] == [single[i] for i in order]

    def test_shared_factors_and_stacked_support_systems_independent(self, monkeypatch):
        # one operator shared by four eta rows, a rank-deficient B among
        # full-rank Bs of its shape, equality and ball programs, and
        # equality programs that reach their support exits together: each
        # solution equals its solve alone bit for bit, each distinct
        # operator is factored once, by one SVD per matrix shape, and the
        # support exits run in stacks
        coll = random_collection(4, 2, 8, seed=0)
        wide = [planted_instance(coll, 2, 1, seed=30 + i)[::2] for i in range(4)]
        cases = [(b, y, 0.0) for b, y in wide]
        b, y = wide[0]
        cases += [(b, y, f * float(np.linalg.norm(y))) for f in (1e-3, 1e-2, 1e-1)]
        for seed in range(2):
            for repeats in (0, 1):
                b, y = repeated_blocks_instance(seed, repeats)
                cases += [(b, y, 0.0), (b, y, 1e-3 * float(np.linalg.norm(y)))]
        single = [full_bits(solve_noisy(*case)) for case in cases]
        real_svd, real_exits = np.linalg.svd, solver._support_exits
        svds, exit_rows = [], []

        def svd(a, **kwargs):
            svds.append(a.shape)
            return real_svd(a, **kwargs)

        def exits(stack, *args):
            exit_rows.append(len(stack.b))
            return real_exits(stack, *args)

        monkeypatch.setattr("fusioncs.solver.np.linalg.svd", svd)
        monkeypatch.setattr(solver, "_support_exits", exits)
        sols = solver.solve_many(*zip(*cases))
        assert [full_bits(sol) for sol in sols] == single
        assert {sol.status for sol in sols} == {"converged"}
        assert svds == [(4, 4, 16), (4, 16, 16)]
        assert max(exit_rows) >= 2

    def test_probe_exits_leave_their_stack_independent(self):
        # on criterion 9's injective 48 x 12 shape, one call holds ball
        # programs the probe finds infeasible (eta below the distance from
        # y to B's range), zero exits (eta = ||y||) and ball programs that
        # step, and an infeasible equality program among equality programs
        # the probe settles exactly: each leaves its stack with the bits
        # of its solve alone
        coll = orthogonal_collection(12, 2, 6)
        cases = []
        for i, eta in enumerate((1e-3, 1e-2, 1e-1)):
            b, _, clean = planted_instance(coll, 2, 4, seed=40 + i, scale=0.5)
            y = add_noise(clean, eta, seed=60 + i)
            dist = float(np.linalg.norm(y - b.matrix @ np.linalg.lstsq(b.matrix, y, rcond=None)[0]))
            cases += [(b, y, 0.5 * dist), (b, y, eta), (b, y, float(np.linalg.norm(y))), (b, clean, 0.0)]
        cases.insert(5, (b, y, 0.0))  # a noisy y is out of B's range
        single = [full_bits(solve_noisy(*case)) for case in cases]
        sols = solver.solve_many(*zip(*cases))
        assert [full_bits(sol) for sol in sols] == single
        assert {sol.status for sol in sols} == {"infeasible", "converged"}
        assert [i for i, sol in enumerate(sols) if sol.status == "infeasible"] == [0, 4, 5, 9]
        assert [i for i, sol in enumerate(sols) if sol.iterations > 0] == [1, 6, 10]

    def test_non_integer_max_iters_rejected(self, monkeypatch):
        b, y = repeated_blocks_instance(0, 1)
        monkeypatch.setattr("fusioncs.solver.np.linalg.svd", lambda a, **kwargs: pytest.fail("factored"))
        for bad in (2.5, 2.0, "3", True, np.bool_(True)):
            with pytest.raises(ValueError, match="max_iters must be an integer"):
                solver.solve_many([b], [y], [0.0], max_iters=bad)
        monkeypatch.undo()
        assert solver.solve_many([b], [y], [0.0], max_iters=np.int64(50))[0].status == "converged"

    def test_eta_that_is_not_a_real_number_rejected(self, monkeypatch):
        b, y = repeated_blocks_instance(0, 1)
        monkeypatch.setattr("fusioncs.solver.np.linalg.svd", lambda a, **kwargs: pytest.fail("factored"))
        for bad in ("0.1", True, False, np.bool_(True)):
            with pytest.raises(ValueError, match="eta must be a real number"):
                solver.solve_many([b], [y], [bad])
        with pytest.raises(ValueError, match="eta must be a real number"):
            solve_noisy(b, y, "0.1")
        monkeypatch.undo()
        # Python and numpy reals are accepted
        eta = 1e-3 * float(np.linalg.norm(y))
        for good in (eta, np.float64(eta), np.float32(eta), 0, np.int64(0)):
            assert solver.solve_many([b], [y], [good])[0].status == "converged"

    def test_inputs_checked(self):
        b, y = repeated_blocks_instance(0, 1)
        assert solver.solve_many([], [], []) == []
        for ops, ys, etas in (([b], [y, y], [0.0]), ([b, b], [y, y], [0.0])):
            with pytest.raises(ValueError, match="as many"):
                solver.solve_many(ops, ys, etas)
        with pytest.raises(ValueError, match="nonnegative"):
            solver.solve_many([b, b], [y, y], [0.0, -1e-3])
        with pytest.raises(ValueError, match="max_iters"):
            solver.solve_many([b], [y], [0.0], max_iters=0)


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

    @pytest.mark.parametrize("y_len, a_len, message", [
        (6, 2, "expected 3 coefficients, got (2,)"),
        (5, 3, "expected y of length 6, got (5,)"),
    ])
    def test_shapes_checked(self, y_len, a_len, message):
        with pytest.raises(ValueError) as err:
            closed_form_orthogonal(np.zeros(y_len), np.ones(a_len), orthogonal_collection(6, 2, 3))
        assert str(err.value) == message

    def test_not_orthogonal_rejected(self):
        coll = angle_family(2, 3, 0.5)
        with pytest.raises(NotOrthogonalError):
            closed_form_orthogonal(np.zeros(coll.ambient_dim), np.ones(3), coll)

    @pytest.mark.parametrize("y, a", [
        ([1.0, math.nan, 0.0, 0.0], [1.0, 2.0]),
        ([1.0, 0.0, 0.0, 0.0], [math.inf, 2.0]),
    ])
    def test_non_finite_input_rejected(self, y, a):
        with pytest.raises(ValueError, match="must be finite"):
            closed_form_orthogonal(np.array(y), a, orthogonal_collection(4, 2, 2))


class TestOracle:
    def test_planted_recovery(self):
        coll = random_collection(4, 2, 8, seed=0)
        b, truth, y = planted_instance(coll, 2, 5, seed=1)
        rec, unique = oracle_recover_exhaustive(b, y, 2)
        assert rec is not None
        assert np.linalg.norm(coeff_vector(rec) - truth) <= 1e-9
        assert type(unique) is bool and unique

    def test_zero_rhs(self):
        coll = random_collection(4, 2, 6, seed=2)
        b, _, _ = planted_instance(coll, 2, 4, seed=3)
        rec, unique = oracle_recover_exhaustive(b, np.zeros(b.out_dim), 2)
        assert rec is not None
        assert norm_21(rec) == 0.0
        assert type(unique) is bool and unique

    def test_unreachable_rhs(self):
        coll = random_collection(4, 2, 6, seed=4)
        a = sample_ensemble(EnsembleSpec("gaussian", 4, 6, seed=5))
        b = compose_with_bases(vector_operator(a, 4), coll)
        rng = np.random.default_rng(6)
        y = rng.standard_normal(b.out_dim)  # generic: no s-sparse fit with m > sk
        rec, unique = oracle_recover_exhaustive(b, y, 1)
        assert rec is None
        assert type(unique) is bool and not unique

    def test_negative_sparsity_rejected(self):
        coll = random_collection(4, 2, 6, seed=2)
        b, _, y = planted_instance(coll, 2, 4, seed=3)
        with pytest.raises(InvalidSparsityError, match="s=-1"):
            oracle_recover_exhaustive(b, y, -1)
        assert oracle_recover_exhaustive(b, y, 0) == (None, False)

    @pytest.mark.parametrize("s", [2.0, 2.5, True])
    def test_non_integer_sparsity_rejected(self, s):
        b, _, y = planted_instance(random_collection(4, 2, 6, seed=2), 2, 4, seed=3)
        with pytest.raises(InvalidSparsityError) as err:
            oracle_recover_exhaustive(b, y, s)
        assert str(err.value) == f"s={s!r} must be an integer"
        rec, unique = oracle_recover_exhaustive(b, y, np.int64(2))
        ref, ref_unique = oracle_recover_exhaustive(b, y, 2)
        assert np.array_equal(coeff_vector(rec), coeff_vector(ref)) and unique == ref_unique

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
        assert type(unique) is bool and not unique
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

    def test_planted_recovery_on_every_support(self):
        rng = np.random.default_rng(11)
        coll = SubspaceCollection(tuple(_orthonormalize(rng.standard_normal((4, 3))) for _ in range(4)))
        b = compose_with_bases(vector_operator(rng.standard_normal((3, 4)), 4), coll)
        for supp in combinations(range(4), 2):
            coeffs = [rng.standard_normal(3) if j in supp else np.zeros(3) for j in range(4)]
            truth = np.concatenate(coeffs)
            rec, unique = oracle_recover_exhaustive(b, b.matvec(truth), 2)
            assert unique
            assert np.linalg.norm(coeff_vector(rec) - truth) <= 1e-10

    def test_sparsity_above_the_block_count_is_the_block_count_independent(self):
        b, _, y = planted_instance(random_collection(4, 2, 4, seed=3), 2, 2, seed=4)
        for rhs in (y, np.random.default_rng(5).standard_normal(b.out_dim)):
            rec, unique = oracle_recover_exhaustive(b, rhs, 1000)
            ref, ref_unique = oracle_recover_exhaustive(b, rhs, 4)
            assert np.array_equal(coeff_vector(rec), coeff_vector(ref)) and unique == ref_unique

    def test_guard(self):
        coll = random_collection(4, 2, 40, seed=7)
        b, _, y = planted_instance(coll, 2, 4, seed=8)
        with pytest.raises(TooLargeError):
            oracle_recover_exhaustive(b, y, 20)

    def test_guard_counts_every_level(self, monkeypatch):
        # N = 30, k = 1, s = 29: the top level holds 30 supports, but the
        # levels below it about 10^9 together
        monkeypatch.setattr(solver, "_screen_residuals", mock.Mock(side_effect=AssertionError("screened")))
        rng = np.random.default_rng(61)
        b = self.dense_blocks(*rng.standard_normal((30, 24, 1)))
        with pytest.raises(TooLargeError):
            oracle_recover_exhaustive(b, rng.standard_normal(24), 29)


def oracle_instances():
    """(name, B, y, s) for the oracle's screens: random, repeated-column
    (rank-deficient), three-dimensional blocks, wide (w >= md) and
    near-tolerance B, a tall B whose unions are padded, a B with a single
    union and one with none, each y also scaled by 1e-3 and 1e3."""
    rng = np.random.default_rng(40)
    base = []
    for seed in range(3):
        b, _, y = planted_instance(random_collection(4, 2, 7, seed=seed), 2, 3, seed=seed + 20)
        base += [("planted", b, y, 3), ("random", b, rng.standard_normal(b.out_dim), 2)]
    base.append(("zero", b, np.zeros(b.out_dim), 2))
    p, q, r = rng.standard_normal((3, 12))
    repeated = TestOracle.dense_blocks(np.column_stack([p, q]), np.column_stack([q, r]),
                                       np.column_stack([p, q]), rng.standard_normal((12, 2)))
    base += [("repeated", repeated, p + r, 2), ("repeated", repeated, p + q, 3)]
    coll = SubspaceCollection(tuple(_orthonormalize(rng.standard_normal((4, 3))) for _ in range(4)))
    cubes = compose_with_bases(vector_operator(rng.standard_normal((3, 4)), 4), coll)
    planted = np.concatenate([np.zeros(3), rng.standard_normal(6), np.zeros(3)])
    base += [("k3", cubes, cubes.matvec(planted), 3), ("k3", cubes, rng.standard_normal(12), 4)]
    wide = compose_with_bases(vector_operator(rng.standard_normal((1, 6)), 4), random_collection(4, 2, 6, seed=5))
    base.append(("wide", wide, rng.standard_normal(4), 3))
    # a fit at half the accept tolerance: y leaves range(B) by 0.5e-8 (1 + ||y||)
    b, _, y = planted_instance(random_collection(4, 2, 5, seed=6), 2, 4, seed=7)
    g = rng.standard_normal(b.out_dim)
    off = g - b.matrix @ np.linalg.lstsq(b.matrix, g, rcond=None)[0]
    base.append(("near_tol", b, y + off * (0.5e-8 * (1.0 + np.linalg.norm(y)) / np.linalg.norm(off)), 2))
    # 16 rows, k = 2, s = 2: unions of two of the groups {0, 1, 2}, {3, 4, 5}
    # and {6}, padded to six blocks; (1, 6) spans two groups, (3, 4) one
    tall = TestOracle.dense_blocks(*rng.standard_normal((7, 16, 2)))
    for support in ((1, 6), (3, 4)):
        planted = np.zeros(14)
        planted[support_columns(np.array([support]), 2)[0]] = rng.standard_normal(4)
        base.append(("tall", tall, tall.matvec(planted), 2))
    base.append(("tall", tall, rng.standard_normal(16), 2))
    # 12 rows, four blocks of k = 2, s = 2: one union holds every block
    whole = TestOracle.dense_blocks(*rng.standard_normal((4, 12, 2)))
    base += [("one_union", whole, rng.standard_normal(12), 2),
             ("one_union", whole, whole.matvec(np.concatenate([np.zeros(4), rng.standard_normal(4)])), 2)]
    # 8 rows, k = 2, s = 4: no union of four blocks has a residual entry
    b, _, y = planted_instance(random_collection(4, 2, 5, seed=8), 2, 2, seed=9)
    base.append(("no_union", b, y, 4))
    return [(name, b, scale * y, s) for name, b, y, s in base for scale in (1e-3, 1.0, 1e3)]


def lstsq_residual(m_s, y):
    return float(np.linalg.norm(m_s @ np.linalg.lstsq(m_s, y, rcond=None)[0] - y))


def reference_oracle(b, y, s):
    """lstsq on every support, level by level, with the oracle's accept
    tolerance and tie rule (the first of the smallest block norm sums)."""
    ynorm = float(np.linalg.norm(y))
    accept_tol = 1e-8 * (1.0 + ynorm)
    if ynorm <= accept_tol:
        return np.zeros(b.in_dim), True
    k = b.collection.block_dim
    blocks = [np.arange(j * k, j * k + k) for j in range(b.collection.size)]
    for level in range(1, s + 1):
        fits = []
        for support in combinations(range(b.collection.size), level):
            cols = np.concatenate([blocks[j] for j in support])
            m_s = b.matrix[:, cols]
            c_s = np.linalg.lstsq(m_s, y, rcond=None)[0]
            if float(np.linalg.norm(m_s @ c_s - y)) <= accept_tol:
                vec = np.zeros(b.in_dim)
                vec[cols] = c_s
                fits.append((solver._norm21_flat(vec, k), vec, m_s))
        if fits:
            best = fits[0]
            for fit in fits[1:]:
                if fit[0] < best[0] - 1e-15:
                    best = fit
            return best[1], len(fits) == 1 and np.linalg.matrix_rank(best[2]) == best[2].shape[1]
    return None, False


class TestOracleScreen:
    def test_screen_never_above_lstsq_residual(self):
        wide = 0
        for name, b, y, s in oracle_instances():
            ynorm = float(np.linalg.norm(y))
            accept_tol = 1e-8 * (1.0 + ynorm)
            for level in range(1, s + 1):
                supports = np.array(list(combinations(range(b.collection.size), level)))
                cols = support_columns(supports, b.collection.block_dim)
                screen = solver._screen_residuals(b.matrix, y, cols)
                if cols.shape[1] >= b.out_dim:
                    # y lies in the span of Q's first w >= md columns
                    assert np.all(screen == 0.0), (name, level)
                    wide += len(cols)
                lstsq = np.array([lstsq_residual(b.matrix[:, c], y) for c in cols])
                assert np.all(screen <= lstsq + 1e-10 * (1.0 + ynorm)), (name, level)
                # implied by the bound above at the shipped screen factor
                accepted = lstsq <= accept_tol
                assert np.all(screen[accepted] <= solver._SCREEN_FACTOR * accept_tol), (name, level)
        assert wide > 0

    def test_union_never_above_lstsq_residual_independent(self):
        covered = 0
        for name, b, y, s in oracle_instances():
            n, k = b.collection.size, b.collection.block_dim
            tol = 1e-10 * (1.0 + float(np.linalg.norm(y)))
            unions, masks = support_unions(n, k, s, b.out_dim)
            screen = solver._screen_residuals(b.matrix, y, unions)
            for level in range(1, s + 1):
                for support in combinations(range(n), level):
                    cols = support_columns(np.array([support]), k)[0]
                    inside = masks[:, list(support)].all(axis=1)
                    # every support lies inside some union, when there are any
                    assert inside.any() == (len(unions) > 0), (name, support)
                    for u in np.nonzero(inside)[0]:
                        assert set(cols) <= set(unions[u]), (name, support)
                        assert screen[u] <= lstsq_residual(b.matrix[:, cols], y) + tol, (name, support)
                        covered += 1
        assert covered > 0

    def test_unions_clear_most_supports_independent(self, monkeypatch):
        # criterion-2-style instances: 16 rows, k = 2, s = 3, 469 supports
        screened = []
        screen = solver._screen_residuals
        monkeypatch.setattr(solver, "_screen_residuals",
                            lambda matrix, y, cols: screened.append(len(cols)) or screen(matrix, y, cols))
        supports = sum(math.comb(14, level) for level in (1, 2, 3))
        for seed in range(4):
            b, truth, y = planted_instance(random_collection(4, 2, 14, seed=seed), 3, 4, seed=seed + 30)
            screened.clear()
            rec, unique = oracle_recover_exhaustive(b, y, 3)
            assert unique and np.linalg.norm(coeff_vector(rec) - truth) <= 1e-9 * np.linalg.norm(truth)
            assert 0 < sum(screened) <= supports // 3, seed

    def test_streamed_level_is_union_screened_independent(self, monkeypatch):
        screened = []
        screen = solver._screen_residuals
        monkeypatch.setattr(solver, "_screen_residuals",
                            lambda matrix, y, cols: screened.append(cols.tolist()) or screen(matrix, y, cols))
        b, _, y = planted_instance(random_collection(4, 2, 14, seed=0), 3, 4, seed=30)
        rec, unique = oracle_recover_exhaustive(b, y, 3)
        tabled = [row for rows in screened for row in rows]
        screened.clear()
        # the unions and levels 1 and 2 stay tabled; level 3 streams
        monkeypatch.setattr(measurement, "_TABLE_ENTRIES", 35 * 6 * 3)
        assert math.comb(14, 3) * 3 * 3 > measurement._TABLE_ENTRIES
        got, got_unique = oracle_recover_exhaustive(b, y, 3)
        assert np.array_equal(coeff_vector(got), coeff_vector(rec)) and got_unique == unique
        assert len(screened[0]) == 35  # the first screen is the unions'
        # the same rows reach the screen, far fewer than the 469 supports
        assert [row for rows in screened for row in rows] == tabled
        assert len(tabled) <= 35 + 469 // 3

    def test_screen_reads_r_of_the_same_qr(self):
        # the raw Householder array holds the R of mode="r", bit for bit
        for name, b, y, s in oracle_instances():
            supports = np.array(list(combinations(range(b.collection.size), s)))
            cols = support_columns(supports, b.collection.block_dim)
            w = cols.shape[1]
            aug = np.concatenate([np.moveaxis(b.matrix[:, cols], 0, 1),
                                  np.broadcast_to(y[:, None], (len(cols), len(y), 1))], axis=2)
            r = np.linalg.qr(aug, mode="r")
            assert np.array_equal(solver._screen_residuals(b.matrix, y, cols),
                                  np.linalg.norm(r[:, w:, w], axis=1)), name

    def test_oracle_equals_lstsq_enumeration_independent(self):
        outcomes = set()
        for name, b, y, s in oracle_instances():
            est, unique = oracle_recover_exhaustive(b, y, s)
            ref, ref_unique = reference_oracle(b, y, s)
            assert type(unique) is bool and unique == ref_unique, name
            if ref is None:
                assert est is None, name
            else:
                assert np.array_equal(coeff_vector(est), ref), name
            outcomes.add((ref is None, ref_unique))
        # the instances reach every kind of answer: none, unique and not unique
        assert outcomes == {(True, False), (False, True), (False, False)}


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
        k = coll.block_dim
        blocks = [slice(j * k, j * k + k) for j in range(coll.size)]
        norms = [np.linalg.norm(c[blocks[j]]) for j in range(coll.size)]
        j_zero = int(np.argmin(norms))
        rng = np.random.default_rng(7)
        perturbed = c.copy()
        perturbed[blocks[j_zero]] += 1e-3 * rng.standard_normal(k)
        projected = perturbed - pinv @ (dense @ perturbed - y)
        assert np.linalg.norm(dense @ projected - y) <= 1e-9
        obj_perturbed = float(
            np.sum(
                [np.linalg.norm(projected[blocks[j]]) for j in range(coll.size)]
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


def l1_reference(matrix, y):
    """min ||c||_1 s.t. B c = y, for y in the range of B, with no solver.

    The program is a linear program, so some optimum is a basic solution:
    c_S = B_S^-1 y on r columns S, once B is reduced to r = rank(B) rows
    spanning its row space. Every r-subset is solved, by one stacked solve
    per chunk of :func:`fusioncs.measurement.support_chunks`; a singular
    B_S is skipped, and so is one whose solve does not fit y.
    """
    u, sigma, _ = np.linalg.svd(matrix, full_matrices=False)
    r = int(np.sum(sigma > max(matrix.shape) * np.finfo(float).eps * sigma[0]))
    b, rhs = u[:, :r].T @ matrix, u[:, :r].T @ y
    best = math.inf
    for _, cols in measurement.support_chunks(matrix.shape[1], 1, r, r * r):
        sub = np.moveaxis(b[:, cols], 0, 1)
        try:
            sols = np.linalg.solve(sub, np.broadcast_to(rhs[:, None], (len(sub), r, 1)))[:, :, 0]
        except np.linalg.LinAlgError:
            sols = np.full((len(sub), r), np.nan)
            for i, a in enumerate(sub):
                try:
                    sols[i] = np.linalg.solve(a, rhs)
                except np.linalg.LinAlgError:
                    pass
        fits = np.linalg.norm((sub @ sols[:, :, None])[:, :, 0] - rhs, axis=1) <= 1e-9 * np.linalg.norm(rhs)
        if fits.any():
            best = min(best, float(np.abs(sols[fits]).sum(axis=1).min()))
    return best


@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 10),
    extra=st.integers(1, 6),
    deficit=st.integers(0, 2),
    s=st.integers(1, 16),
    log_alpha=st.floats(-6.0, 6.0),
)
@settings(max_examples=40, deadline=None)
def test_k1_objective_matches_exact_reference(seed, p, extra, deficit, s, log_alpha):
    # k = 1: the equality program is a linear program, and enumerating the
    # basic solutions gives its exact optimum at any scale of y; a B of
    # rank p - deficit has rows that repeat combinations of the others
    rng = np.random.default_rng(seed)
    n = min(16, p + extra)
    rank = max(1, p - deficit)
    matrix = rng.standard_normal((p, rank)) @ rng.standard_normal((rank, n))
    b = compose_with_bases(scalar_operator(matrix), build_collection([np.ones((1, 1))] * n))
    truth = np.zeros(n)
    truth[rng.choice(n, size=min(s, n), replace=False)] = rng.standard_normal(min(s, n))
    y = 10.0**log_alpha * (matrix @ truth)
    ref = l1_reference(matrix, y)
    sol = solve_equality(b, y)
    if sol.status == "converged":
        assert abs(sol.objective - ref) <= 1e-9 * ref, (sol.objective, ref)


@pytest.mark.parametrize("kappa", [1e6, 1e7, 1e8, 1e10, 1e12])
def test_ill_conditioned_wide_b(kappa):
    # a 10 x 16 B with singular values from 1 to 1 / kappa and y = B x for a
    # 2-sparse x: y is in the range of B, so no solve is infeasible, and
    # the factor's rank is numpy's
    rng = np.random.default_rng(round(math.log10(kappa)) + 40)
    coll = build_collection([np.eye(2)] * 8)
    cases = []
    for _ in range(40):
        u, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        v, _ = np.linalg.qr(rng.standard_normal((16, 10)))
        matrix = u @ np.diag(np.geomspace(1.0, 1.0 / kappa, 10)) @ v.T
        truth = np.zeros(16)
        truth[support_columns(np.sort(rng.choice(8, size=2, replace=False))[None], 2)[0]] = rng.standard_normal(4)
        b = compose_with_bases(scalar_operator(matrix), coll)
        cases.append((b, matrix @ truth, 0.0))
    for b, _, _ in cases:
        assert solver._factor(b.matrix[None])[3][0] == np.linalg.matrix_rank(b.matrix)
    sols = solver.solve_many(*zip(*cases))
    assert not any(sol.status == "infeasible" for sol in sols)
    for (b, y, _), sol in zip(cases, sols):
        if sol.status == "converged" or kappa <= 1e8:
            assert sol.status == "converged" and certify(sol, b, y).ok


def scale_instance(seed):
    """An s = 2 instance on random d=4, k=2, N=8 subspaces through an
    unscaled 3 x 8 Gaussian vector operator: B is 12 x 16."""
    coll = random_collection(4, 2, 8, seed=5000 + seed)
    a = np.random.default_rng(9000 + seed).standard_normal((3, 8))
    b = compose_with_bases(vector_operator(a, 4), coll)
    return b, b.matvec(coeff_vector(random_sparse_signal(coll, 2, seed=7000 + seed)))


@given(seed=st.integers(0, 10**6), log_alpha=st.floats(-6.0, 6.0), ball=st.booleans())
@settings(max_examples=40, deadline=None)
def test_objective_scales_with_y_and_eta(seed, log_alpha, ball):
    # solve(B, alpha y, alpha eta) is alpha times solve(B, y, eta): it
    # converges, passes certify, and its objective is alpha times the
    # unit-scale one to ten times the gap tolerance
    b, y = scale_instance(seed)
    eta = 0.05 * float(np.linalg.norm(y)) if ball else 0.0
    alpha = 10.0**log_alpha
    base, scaled = solve_noisy(b, y, eta), solve_noisy(b, alpha * y, alpha * eta)
    assert base.status == scaled.status == "converged"
    assert certify(scaled, b, alpha * y).ok
    assert abs(scaled.objective - alpha * base.objective) <= 10 * solver.TOL_GAP * alpha * base.objective
