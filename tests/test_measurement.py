import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import fusioncs
from fusioncs.errors import (
    DimMismatchError,
    InvalidDimsError,
    SchemaError,
    ZeroColumnError,
)
from fusioncs.frames import (
    SubspaceCollection,
    _orthonormalize,
    orthogonal_collection,
    random_collection,
)
from fusioncs.measurement import (
    EnsembleSpec,
    add_noise,
    adjoint,
    apply,
    compose_with_bases,
    matrix_coherences,
    matrix_from_dict,
    matrix_to_dict,
    psi2_norm,
    sample_ensemble,
    scalar_operator,
    subgaussian_alpha,
    vector_operator,
)
from fusioncs.signals import coeff_vector, from_coeff_vector, random_sparse_signal, to_ambient


class TestEnsembles:
    def test_bernoulli_entries(self):
        mat = sample_ensemble(EnsembleSpec("bernoulli", 50, 40, seed=0))
        assert set(np.unique(mat)) == {-1.0, 1.0}

    def test_deterministic(self):
        spec = EnsembleSpec("gaussian", 20, 30, seed=7)
        assert np.array_equal(sample_ensemble(spec), sample_ensemble(spec))

    def test_gaussian_variance(self):
        mat = sample_ensemble(EnsembleSpec("gaussian", 1000, 1000, seed=1))
        assert 0.99 <= mat.var() <= 1.01

    @pytest.mark.parametrize("dist", ["gaussian", "bernoulli", "uniform_scaled"])
    def test_moments(self, dist):
        mat = sample_ensemble(EnsembleSpec(dist, 1000, 1000, seed=3))
        assert abs(mat.mean()) <= 5e-3
        assert abs(mat.var() - 1.0) <= 1e-2

    def test_invalid_dims(self):
        with pytest.raises(InvalidDimsError):
            EnsembleSpec("gaussian", 0, 5, seed=0)

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            EnsembleSpec("cauchy", 5, 5, seed=0)


class TestSubgaussianParameters:
    def test_unit_alpha_cases(self):
        assert subgaussian_alpha("gaussian") == 1.0
        assert subgaussian_alpha("bernoulli") == 1.0

    def test_uniform_alpha_against_tail_oracle(self):
        a = math.sqrt(3.0)
        alpha = subgaussian_alpha("uniform_scaled")
        ts = np.linspace(1e-6, a - 1e-6, 20000)
        tails = 1.0 - ts / a
        # the bound holds at alpha and is tight: shrinking alpha breaks it
        assert np.all(2.0 * np.exp(-(ts**2) / (2 * alpha**2)) >= tails - 1e-12)
        shrunk = 0.98 * alpha
        assert np.any(2.0 * np.exp(-(ts**2) / (2 * shrunk**2)) < tails)

    def test_psi2_closed_forms(self):
        assert psi2_norm("gaussian") == pytest.approx(2.0 / math.sqrt(3.0))
        assert psi2_norm("bernoulli") == pytest.approx(1.0 / math.sqrt(2.0 * math.log(2.0)))

    def test_psi2_uniform_against_quadrature(self):
        c = psi2_norm("uniform_scaled")
        a = math.sqrt(3.0)
        val, _ = integrate.quad(lambda x: math.exp(x * x / (2 * c * c)) / (2 * a), -a, a)
        assert val == pytest.approx(2.0, abs=1e-9)


def test_import_leaves_scipy_solvers_unloaded():
    # scipy is imported only inside the uniform_scaled branches above, so the
    # library and its CLI start without scipy.optimize and scipy.special
    src = str(Path(fusioncs.__file__).resolve().parent.parent)
    code = (
        "import sys, fusioncs, fusioncs.cli; "
        "print(sorted(m for m in ('scipy.optimize', 'scipy.special') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestApplyAdjoint:
    def test_zero_maps_to_zero(self):
        coll = random_collection(3, 1, 4, seed=0)
        a = sample_ensemble(EnsembleSpec("gaussian", 2, 4, seed=1))
        op = vector_operator(a, 3)
        assert np.all(apply(op, np.zeros(12)) == 0.0)

    def test_all_ones_row_sums_blocks(self):
        d, n = 3, 4
        op = vector_operator(np.ones((1, n)), d)
        x = np.arange(float(d * n))
        y = apply(op, x)
        assert np.allclose(y, x.reshape(n, d).sum(axis=0))

    def test_matches_kronecker_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 6))
            d = int(rng.integers(1, 5))
            a = rng.standard_normal((m, n))
            scale = float(rng.uniform(0.5, 2.0))
            op = vector_operator(a, d, scale=scale)
            x = rng.standard_normal(d * n)
            oracle = scale * (np.kron(a, np.eye(d)) @ x)
            assert np.allclose(apply(op, x), oracle, atol=1e-12)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(9)
        coll = random_collection(4, 2, 5, seed=2)
        a = sample_ensemble(EnsembleSpec("gaussian", 3, 5, seed=3))
        vec_op = vector_operator(a, 4, scale=0.7)
        phi = sample_ensemble(EnsembleSpec("gaussian", 6, 20, seed=4))
        sc_op = scalar_operator(phi, scale=1.3)
        for op in (vec_op, sc_op):
            for _ in range(100):
                x = rng.standard_normal(op.ambient_dim)
                y = rng.standard_normal(op.output_dim)
                assert apply(op, x) @ y == pytest.approx(x @ adjoint(op, y), abs=1e-10)

    def test_adjoint_zero(self):
        op = vector_operator(np.ones((2, 3)), 4)
        assert np.all(adjoint(op, np.zeros(8)) == 0.0)

    def test_adjoint_e1_row(self):
        d, n = 3, 4
        a = np.zeros((1, n))
        a[0, 0] = 1.0
        op = vector_operator(a, d)
        y = np.arange(1.0, d + 1)
        out = adjoint(op, y)
        assert np.allclose(out[:d], y)
        assert np.all(out[d:] == 0.0)

    def test_dim_mismatch(self):
        op = vector_operator(np.ones((2, 3)), 4)
        with pytest.raises(DimMismatchError):
            apply(op, np.zeros(5))
        with pytest.raises(DimMismatchError):
            adjoint(op, np.zeros(5))

    def test_accepts_block_signal(self):
        coll = random_collection(4, 2, 5, seed=2)
        x = random_sparse_signal(coll, 2, seed=3)
        a = sample_ensemble(EnsembleSpec("gaussian", 3, 5, seed=4))
        op = vector_operator(a, 4)
        assert np.allclose(apply(op, x), apply(op, to_ambient(x)), atol=1e-15)


class TestCoefficientOperator:
    def test_zero(self):
        coll = random_collection(4, 2, 5, seed=2)
        a = sample_ensemble(EnsembleSpec("gaussian", 3, 5, seed=4))
        b = compose_with_bases(vector_operator(a, 4), coll)
        assert np.all(b.matvec(np.zeros(10)) == 0.0)

    def test_matches_ambient_application(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            d = int(rng.integers(2, 5))
            k = int(rng.integers(1, d + 1))
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            coll = random_collection(d, k, n, seed=trial)
            if rng.random() < 0.5:
                op = vector_operator(rng.standard_normal((m, n)), d, scale=0.8)
            else:
                op = scalar_operator(rng.standard_normal((m, d * n)), scale=1.2)
            b = compose_with_bases(op, coll)
            x = random_sparse_signal(coll, max(1, n // 2), seed=trial + 1,
                                     amplitude_law="gaussian_blocks")
            lhs = b.matvec(coeff_vector(x))
            rhs = apply(op, to_ambient(x))
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_orthogonal_block_column_norms(self):
        coll = orthogonal_collection(8, 2, 4)
        a = sample_ensemble(EnsembleSpec("gaussian", 3, 4, seed=5))
        scale = 0.5
        b = compose_with_bases(vector_operator(a, 8, scale=scale), coll)
        dense = b.support_matrix(range(4))
        for j in range(4):
            cols = dense[:, 2 * j : 2 * (j + 1)]
            expected = scale**2 * np.sum(a[:, j] ** 2)
            for c in range(2):
                assert np.sum(cols[:, c] ** 2) == pytest.approx(expected, abs=1e-12)

    def test_support_matrix_matches_matvec(self):
        coll = random_collection(4, 2, 5, seed=2)
        a = sample_ensemble(EnsembleSpec("gaussian", 3, 5, seed=4))
        b = compose_with_bases(vector_operator(a, 4, scale=1.7), coll)
        dense = b.support_matrix(range(5))
        rng = np.random.default_rng(0)
        c = rng.standard_normal(b.in_dim)
        assert np.allclose(dense @ c, b.matvec(c), atol=1e-12)
        y = rng.standard_normal(b.out_dim)
        assert np.allclose(dense.T @ y, b.rmatvec(y), atol=1e-12)

    def test_rejects_incompatible(self):
        coll = random_collection(4, 2, 5, seed=2)
        with pytest.raises(DimMismatchError):
            compose_with_bases(vector_operator(np.ones((2, 4)), 4), coll)
        with pytest.raises(DimMismatchError):
            compose_with_bases(vector_operator(np.ones((2, 5)), 3), coll)
        with pytest.raises(DimMismatchError):
            compose_with_bases(scalar_operator(np.ones((2, 19))), coll)

    @pytest.mark.parametrize("dims", [(2, 2, 2, 2, 2), (1, 2, 2, 1)])
    @pytest.mark.parametrize("kind", ["vector", "scalar"])
    def test_matrix_is_definitional_product(self, kind, dims):
        # the same bits as the definition: scale * [A[:, j] (x) U_j]_j for a
        # vector operator, scale * [Phi_j U_j]_j for a scalar one
        rng = np.random.default_rng(len(dims))
        d = 5
        bases = tuple(_orthonormalize(rng.standard_normal((d, k))) for k in dims)
        coll = SubspaceCollection(bases)
        n = len(dims)
        if kind == "vector":
            a = rng.standard_normal((3, n))
            b = compose_with_bases(vector_operator(a, d, scale=0.7), coll)
            blocks = [np.kron(a[:, [j]], u) for j, u in enumerate(bases)]
        else:
            phi = rng.standard_normal((7, d * n))
            b = compose_with_bases(scalar_operator(phi, scale=0.7), coll)
            blocks = [phi[:, j * d:(j + 1) * d] @ u for j, u in enumerate(bases)]
        assert np.array_equal(b.matrix, 0.7 * np.hstack(blocks))

    def test_isometry_in_expectation(self):
        coll = random_collection(6, 2, 4, seed=8)
        x = random_sparse_signal(coll, 2, seed=9)
        xvec = coeff_vector(x) / np.linalg.norm(coeff_vector(x))
        m = 3
        total = 0.0
        trials = 2000
        for t in range(trials):
            a = sample_ensemble(EnsembleSpec("gaussian", m, 4, seed=10_000 + t))
            b = compose_with_bases(vector_operator(a, 6, scale=1.0 / math.sqrt(m)), coll)
            total += float(np.sum(b.matvec(xvec) ** 2))
        assert total / trials == pytest.approx(1.0, rel=0.05)


class TestNoise:
    def test_eta_zero(self):
        y = np.arange(5.0)
        assert np.array_equal(add_noise(y, 0.0, seed=1), y)

    def test_exact_norm(self):
        y = np.arange(5.0)
        for eta in (1e-6, 0.1, 3.0):
            noisy = add_noise(y, eta, seed=2)
            assert np.linalg.norm(noisy - y) == pytest.approx(eta, abs=1e-12)

    def test_deterministic(self):
        y = np.arange(5.0)
        assert np.array_equal(add_noise(y, 0.5, seed=3), add_noise(y, 0.5, seed=3))


class TestMatrixCoherences:
    def test_orthogonal_subspaces_zero_mu_f(self):
        coll = orthogonal_collection(8, 2, 4)
        a = sample_ensemble(EnsembleSpec("gaussian", 3, 4, seed=5))
        mu, mu_f = matrix_coherences(a, coll)
        assert mu_f == 0.0
        assert mu > 0.0

    def test_orthogonal_columns_zero_mu(self):
        coll = random_collection(6, 2, 3, seed=1)
        mu, mu_f = matrix_coherences(np.eye(3), coll)
        assert mu == 0.0
        assert mu_f == 0.0

    def test_mu_f_bounded_by_lambda_mu(self):
        from fusioncs.frames import coherence

        rng = np.random.default_rng(4)
        for trial in range(50):
            coll = random_collection(5, 2, 4, seed=trial)
            a = rng.standard_normal((3, 4))
            mu, mu_f = matrix_coherences(a, coll)
            lam = coherence(coll).lambda_
            assert mu_f <= lam * mu + 1e-12

    def test_zero_column(self):
        coll = random_collection(5, 2, 3, seed=1)
        a = np.ones((4, 3))
        a[:, 1] = 0.0
        with pytest.raises(ZeroColumnError):
            matrix_coherences(a, coll)


class TestMatrixSerialization:
    def test_round_trip(self):
        mat = sample_ensemble(EnsembleSpec("gaussian", 3, 4, seed=6))
        back = matrix_from_dict(matrix_to_dict(mat))
        assert np.array_equal(mat, back)

    def test_schema_errors(self):
        doc = matrix_to_dict(np.ones((2, 2)))
        doc["data"] = doc["data"][:-1]
        with pytest.raises(SchemaError):
            matrix_from_dict(doc)
        with pytest.raises(SchemaError):
            matrix_from_dict({"version": 1, "rows": 2, "cols": 2})


class TestUnequalBlockDimensions:
    def make_ragged(self):
        rng = np.random.default_rng(3)
        from fusioncs.frames import SubspaceCollection, _orthonormalize

        bases = tuple(
            _orthonormalize(rng.standard_normal((5, k))) for k in (1, 2, 2, 1)
        )
        return SubspaceCollection(bases)

    def test_collection_reports_max_dim(self):
        coll = self.make_ragged()
        assert coll.block_dim == 2
        assert coll.block_dims == (1, 2, 2, 1)

    def test_coefficient_operator_ragged(self):
        from fusioncs.signals import BlockSignal, coeff_vector

        coll = self.make_ragged()
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, 4))
        b = compose_with_bases(vector_operator(a, 5), coll)
        assert b.in_dim == 6
        x = BlockSignal(tuple(rng.standard_normal(k) for k in (1, 2, 2, 1)), coll)
        lhs = b.matvec(coeff_vector(x))
        rhs = apply(vector_operator(a, 5), to_ambient(x))
        assert np.allclose(lhs, rhs, atol=1e-12)
        dense = b.support_matrix(range(4))
        assert dense.shape == (15, 6)
        assert np.allclose(dense @ coeff_vector(x), lhs, atol=1e-12)
        y = rng.standard_normal(15)
        assert np.allclose(dense.T @ y, b.rmatvec(y), atol=1e-12)

    @pytest.mark.parametrize("kind", ["vector", "scalar"])
    def test_every_support_against_unit_vector_columns(self, kind):
        from fusioncs.rip import exact_frip, scalar_rip_on_H

        coll = self.make_ragged()
        rng = np.random.default_rng(6)
        if kind == "vector":
            op = vector_operator(rng.standard_normal((2, 4)), 5, scale=0.7)
        else:
            op = scalar_operator(rng.standard_normal((3, 20)))
        b = compose_with_bases(op, coll)
        # column i is the measurement of the signal with coefficient vector e_i
        full = np.column_stack(
            [apply(op, to_ambient(from_coeff_vector(coll, e))) for e in np.eye(6)]
        )
        edges = np.cumsum((0, 1, 2, 2, 1))

        def reference(supp):
            return np.hstack([full[:, edges[j] : edges[j + 1]] for j in supp])

        def delta(m_s):
            sv = np.linalg.svd(m_s, compute_uv=False)
            smin = sv[-1] if len(sv) == m_s.shape[1] else 0.0
            return max(sv[0] ** 2 - 1.0, 1.0 - smin**2)

        for s in range(1, 5):
            supports = list(combinations(range(4), s))
            for supp in supports + [supp[::-1] for supp in supports]:
                np.testing.assert_allclose(
                    b.support_matrix(supp), reference(supp), rtol=0, atol=1e-12
                )
            expected = max(delta(reference(supp)) for supp in supports)
            if kind == "vector":
                got = exact_frip(op.matrix, coll, s, op.scale).value
            else:
                got = scalar_rip_on_H(op.matrix, coll, s).value
            assert abs(got - expected) <= 1e-12

    def test_ragged_solve_round_trip(self):
        from fusioncs.signals import BlockSignal, coeff_vector
        from fusioncs.solver import solve_equality

        coll = self.make_ragged()
        rng = np.random.default_rng(5)
        coeffs = [np.zeros(k) for k in (1, 2, 2, 1)]
        coeffs[1] = rng.standard_normal(2)
        x = BlockSignal(tuple(coeffs), coll)
        a = rng.standard_normal((2, 4))
        b = compose_with_bases(vector_operator(a, 5), coll)
        y = b.matvec(coeff_vector(x))
        sol = solve_equality(b, y)
        assert sol.status == "converged"
        err = np.linalg.norm(coeff_vector(sol.estimate) - coeff_vector(x))
        assert err <= 1e-6
