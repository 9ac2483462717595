import math
import os
import subprocess
import sys
from itertools import combinations, product
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
from fusioncs import measurement
from fusioncs.measurement import (
    EnsembleSpec,
    MeasurementOperator,
    add_noise,
    apply,
    coefficient_operators,
    compose_with_bases,
    matrix_coherences,
    matrix_from_dict,
    matrix_to_dict,
    psi2_norm,
    sample_ensemble,
    scalar_operator,
    subgaussian_alpha,
    support_chunks,
    support_unions,
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

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, 2**64, 2**100])
    def test_draws_match_default_rng_reference_independent(self, seed):
        # the matrices and the noise drawn as one default_rng(seed) call
        # draws them, bit for bit, for every seed default_rng takes
        expected = {
            "gaussian": np.random.default_rng(seed).standard_normal((3, 5)),
            "bernoulli": np.random.default_rng(seed).integers(0, 2, size=(3, 5)).astype(float) * 2.0 - 1.0,
            "uniform_scaled": np.random.default_rng(seed).uniform(-math.sqrt(3.0), math.sqrt(3.0), size=(3, 5)),
        }
        for distribution, mat in expected.items():
            assert sample_ensemble(EnsembleSpec(distribution, 3, 5, seed)).tobytes() == mat.tobytes()
        y = np.arange(1.0, 6.0)
        e = np.random.default_rng(seed).standard_normal(5)
        e *= 0.25 / np.linalg.norm(e)
        assert add_noise(y, 0.25, seed).tobytes() == (y + e).tobytes()

    def test_numpy_integer_dims_accepted(self):
        spec = EnsembleSpec("gaussian", np.int64(2), np.int32(3), seed=0)
        assert np.array_equal(sample_ensemble(spec), sample_ensemble(EnsembleSpec("gaussian", 2, 3, seed=0)))


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

    def test_uniform_alpha_is_the_supremum(self):
        # alpha^2 = sup over 0 < t < a of t^2 / (2 ln(2 / (1 - t/a))), read off a
        # grid whose spacing, 9e-6, puts the grid's maximum within 1e-10 of it
        a = math.sqrt(3.0)
        ts = np.linspace(1e-9, a - 1e-9, 200_001)
        sup = np.max(ts**2 / (2.0 * np.log(2.0 / (1.0 - ts / a))))
        assert subgaussian_alpha("uniform_scaled") ** 2 == pytest.approx(sup, rel=1e-9)

    def test_psi2_closed_forms(self):
        assert psi2_norm("gaussian") == pytest.approx(2.0 / math.sqrt(3.0))
        assert psi2_norm("bernoulli") == pytest.approx(1.0 / math.sqrt(2.0 * math.log(2.0)))

    def test_psi2_uniform_against_quadrature(self):
        c = psi2_norm("uniform_scaled")
        a = math.sqrt(3.0)
        val, _ = integrate.quad(lambda x: math.exp(x * x / (2 * c * c)) / (2 * a), -a, a)
        assert val == pytest.approx(2.0, abs=1e-9)


def test_import_leaves_scipy_solvers_unloaded():
    # every ensemble constant is a tabled number, so neither importing the
    # library and its CLI nor using every constant, a uniform_scaled bound
    # table included, loads any part of scipy
    src = str(Path(fusioncs.__file__).resolve().parent.parent)
    code = (
        "import sys, fusioncs, fusioncs.cli\n"
        "from fusioncs.experiments import ExperimentConfig, run_bound_table\n"
        "from fusioncs.measurement import DISTRIBUTIONS, psi2_norm, subgaussian_alpha\n"
        "for dist in DISTRIBUTIONS:\n"
        "    subgaussian_alpha(dist), psi2_norm(dist)\n"
        "run_bound_table(ExperimentConfig(experiment='bound_table', family='orthogonal', d=8, k=2, N=4,\n"
        "                                 sparsity_grid=(2,), measurement_grid=(1,), ensemble='uniform_scaled'))\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
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

    def test_dim_mismatch(self):
        op = vector_operator(np.ones((2, 3)), 4)
        with pytest.raises(DimMismatchError):
            apply(op, np.zeros(5))

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

    @pytest.mark.parametrize("dims", [(2, 2, 2, 2, 2), (1, 1, 1, 1)])
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

    @pytest.mark.parametrize("dims", [(2,) * 8, (3, 3, 3, 3)])
    def test_vector_matrix_matches_kron_blocks_independent(self, dims):
        # the one-broadcast build against the per-block np.kron definition,
        # bit for bit, at the phase sweep's shapes (d = 4, m = 1..6)
        rng = np.random.default_rng(len(dims))
        for m in range(1, 7):
            bases = tuple(_orthonormalize(rng.standard_normal((4, k))) for k in dims)
            a = rng.standard_normal((m, len(dims)))
            b = compose_with_bases(vector_operator(a, 4, scale=1.0 / math.sqrt(m)), SubspaceCollection(bases))
            blocks = [np.kron(a[:, j:j + 1], u) for j, u in enumerate(bases)]
            assert np.array_equal(b.matrix, 1.0 / math.sqrt(m) * np.hstack(blocks))

    @pytest.mark.parametrize("kind", ["vector", "scalar"])
    @pytest.mark.parametrize("dims", [(2,) * 8, (3, 3, 3, 3)])
    def test_stacked_operators_match_each_alone_independent(self, kind, dims):
        # one broadcast over a stack of measurement matrices gives each
        # operator the bits of compose_with_bases on its matrix alone, and
        # one non-finite entry anywhere in the stack fails the whole build
        rng = np.random.default_rng(len(dims))
        coll = SubspaceCollection(tuple(_orthonormalize(rng.standard_normal((4, k))) for k in dims))
        mats = rng.standard_normal((5, 3, len(dims)) if kind == "vector" else (5, 12, 4 * len(dims)))
        ops = coefficient_operators(kind, mats, 0.7, coll)
        make = {"vector": lambda m: vector_operator(m, 4, scale=0.7), "scalar": lambda m: scalar_operator(m, 0.7)}[kind]
        for op, m in zip(ops, mats):
            alone = compose_with_bases(make(m), coll)
            assert op.matrix.tobytes() == alone.matrix.tobytes() and not op.matrix.flags.writeable
            assert (op.out_dim, op.in_dim, op.collection) == (alone.out_dim, alone.in_dim, coll)
        mats[3, 1, 0] = math.inf
        with pytest.raises(ValueError, match="the operator has non-finite entries"):
            coefficient_operators(kind, mats, 0.7, coll)

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


class TestSupportTables:
    """Every s-support of n blocks of k columns, as chunks with their
    columns, sliced from one table per level or streamed above its cap."""

    @staticmethod
    def streamed(n, k, s, entries):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measurement, "_TABLE_ENTRIES", 0)
            return list(support_chunks(n, k, s, entries))

    @staticmethod
    def tabled(n, k, s, entries):
        return list(support_chunks(n, k, s, entries))

    @staticmethod
    def assert_same(got, expected):
        assert len(got) == len(expected)
        for (chunk, cols), (ref_chunk, ref_cols) in zip(got, expected):
            assert np.array_equal(chunk, ref_chunk) and np.array_equal(cols, ref_cols)

    @pytest.mark.parametrize("dims", [(2,) * 9, (3,) * 9])
    def test_table_equals_streamed_enumeration(self, dims):
        n, k = len(dims), dims[0]
        for s in (1, 2, 4, 9):
            for entries in (1, 64, 2**15, 2**20):
                got = self.tabled(n, k, s, entries)
                self.assert_same(got, self.streamed(n, k, s, entries))
                size = max(1, measurement._CHUNK_ENTRIES // entries)
                assert [len(chunk) for chunk, _ in got[:-1]] == [size] * (len(got) - 1)
                assert np.shares_memory(got[0][0], self.tabled(n, k, s, entries)[0][0])
                assert np.array_equal(np.concatenate([chunk for chunk, _ in got]),
                                      list(combinations(range(n), s)))
                # block j is columns j*k, ..., j*k + k - 1, in the support's order
                assert np.array_equal(np.concatenate([cols for _, cols in got]),
                                      [np.hstack([range(j * k, j * k + k) for j in supp])
                                       for supp in combinations(range(n), s)])

    def test_chunk_size_takes_effect_without_keying_the_table(self, monkeypatch):
        before = self.tabled(8, 2, 3, 16)
        misses = measurement._support_table.cache_info().misses
        monkeypatch.setattr(measurement, "_CHUNK_ENTRIES", 16 * 5)
        after = self.tabled(8, 2, 3, 16)
        assert [len(chunk) for chunk, _ in after] == [5] * 11 + [1]
        assert len(before) != len(after)
        assert measurement._support_table.cache_info().misses == misses
        assert np.shares_memory(before[0][0], after[0][0]) and np.shares_memory(before[0][1], after[0][1])
        self.assert_same(after, self.streamed(8, 2, 3, 16))

    def test_table_arrays_read_only(self):
        for chunk, cols in self.tabled(6, 2, 3, 9):
            for array in (chunk, cols):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[0] = 0

    def test_table_above_the_cap_streams(self, monkeypatch):
        misses = measurement._support_table.cache_info().misses
        # each support takes s indices and s * k columns
        monkeypatch.setattr(measurement, "_TABLE_ENTRIES", math.comb(7, 3) * (3 + 6) - 1)
        got = self.tabled(7, 2, 3, 10)
        assert measurement._support_table.cache_info().misses == misses
        assert got[0][0].flags.writeable and got[0][1].flags.writeable
        monkeypatch.undo()
        tabled = self.tabled(7, 2, 3, 10)
        assert not tabled[0][0].flags.writeable
        self.assert_same(got, tabled)


class TestSupportUnions:
    """The exhaustive oracle's unions of blocks."""

    @staticmethod
    def blocks(cols, k):
        return [set((row[::k] // k).tolist()) for row in cols]

    def test_unions_and_owners_follow_the_group_rule(self):
        for n, k, s, rows in product(range(1, 9), (1, 2), range(1, 5), range(1, 19)):
            if s > n:
                continue
            cols, masks = support_unions(n, k, s, rows)
            g = (rows - 1) // k // s
            groups = -(-n // g) if g else 0
            combos = list(combinations(range(groups), min(s, groups))) if g else []
            assert len(cols) == len(combos) and masks.shape == (len(combos), n)
            assert cols.shape[1] < rows
            width = min(s * g, n)
            for union, mask, combo in zip(self.blocks(cols, k), masks, combos):
                inside = {j for j in range(n) if j // g in combo}
                assert union == inside | set(sorted(set(range(n)) - inside)[:width - len(inside)])
                assert union == set(np.nonzero(mask)[0].tolist())
            if not g:
                continue
            # each support lies inside its owner: the union of its own
            # groups and the lowest-index others
            for level in range(1, s + 1):
                for support in combinations(range(n), level):
                    own = sorted({j // g for j in support})
                    others = [q for q in range(groups) if q not in own]
                    owner = combos.index(tuple(sorted(own + others[:len(combos[0]) - len(own)])))
                    assert masks[owner, list(support)].all()

    def test_arrays_read_only_and_shared(self):
        for array in support_unions(14, 2, 3, 16):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        assert support_unions(14, 2, 3, 16) is support_unions(14, 2, 3, 16)

    def test_size_rule_keeps_every_support(self, monkeypatch):
        # 35 unions of six blocks of two columns: 35 * 6 * 3 indices
        monkeypatch.setattr(measurement, "_TABLE_ENTRIES", 35 * 6 * 3)
        cols, masks = support_unions(14, 2, 3, 16)
        assert cols.shape == (35, 12) and masks.shape == (35, 14)
        monkeypatch.setattr(measurement, "_TABLE_ENTRIES", 35 * 6 * 3 - 1)
        cols, masks = support_unions(14, 2, 3, 16)
        assert cols.shape == (0, 0) and masks.shape == (0, 14)


def test_import_builds_no_union_table():
    src = str(Path(fusioncs.__file__).resolve().parent.parent)
    code = ("import fusioncs, fusioncs.cli; from fusioncs import measurement as m; "
            "print(m._support_unions.cache_info().currsize, m._support_table.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "0"]


def _coefficient_operator():
    # B is (2 * 4) x 3: one column per block of the three 1-dimensional subspaces
    return compose_with_bases(vector_operator(np.ones((2, 3)), 4), orthogonal_collection(4, 1, 3))


# case -> (the call, the error it raises, the error's message)
INPUT_CHECKS = {
    "alpha_unknown_law": (lambda: subgaussian_alpha("cauchy"), ValueError, "unknown distribution 'cauchy'"),
    "psi2_unknown_law": (lambda: psi2_norm("cauchy"), ValueError, "unknown distribution 'cauchy'"),
    "operator_unknown_kind": (lambda: MeasurementOperator("matrix", np.eye(2)), ValueError,
                              "unknown operator kind 'matrix'"),
    "operator_vector_matrix": (lambda: scalar_operator(np.ones(3)), InvalidDimsError,
                               "operator matrix must be two-dimensional"),
    "operator_no_block_dim": (lambda: MeasurementOperator("vector", np.eye(2)), InvalidDimsError,
                              "vector operators need a positive block_dim"),
    "operator_zero_block_dim": (lambda: vector_operator(np.eye(2), 0), InvalidDimsError,
                                "vector operators need a positive block_dim"),
    "matvec_length": (lambda: _coefficient_operator().matvec(np.zeros(4)), DimMismatchError,
                      "expected length 3, got (4,)"),
    "rmatvec_length": (lambda: _coefficient_operator().rmatvec(np.zeros(3)), DimMismatchError,
                       "expected length 8, got (3,)"),
    "noise_negative_eta": (lambda: add_noise(np.ones(3), -1.0, seed=0), ValueError,
                           "eta must be nonnegative and finite"),
    "noise_nan_eta": (lambda: add_noise(np.ones(3), math.nan, seed=0), ValueError,
                      "eta must be nonnegative and finite"),
    "noise_inf_eta": (lambda: add_noise(np.ones(3), math.inf, seed=0), ValueError,
                      "eta must be nonnegative and finite"),
    "coherences_vector": (lambda: matrix_coherences(np.ones(3), orthogonal_collection(4, 1, 3)),
                          InvalidDimsError, "A must be a matrix"),
    "coherences_columns": (lambda: matrix_coherences(np.ones((2, 2)), orthogonal_collection(4, 1, 3)),
                           DimMismatchError, "A has 2 columns for 3 subspaces"),
    "spec_fractional_rows": (lambda: EnsembleSpec("gaussian", 2.5, 3, seed=0), InvalidDimsError,
                             "need integer rows, cols >= 1, got 2.5x3"),
    "spec_float_cols": (lambda: EnsembleSpec("gaussian", 2, 2.0, seed=0), InvalidDimsError,
                        "need integer rows, cols >= 1, got 2x2.0"),
    "spec_bool_rows": (lambda: EnsembleSpec("gaussian", True, 3, seed=0), InvalidDimsError,
                       "need integer rows, cols >= 1, got Truex3"),
    "spec_zero_rows": (lambda: EnsembleSpec("gaussian", 0, 3, seed=0), InvalidDimsError,
                       "need integer rows, cols >= 1, got 0x3"),
    "to_dict_vector": (lambda: matrix_to_dict(np.ones(3)), InvalidDimsError, "only matrices serialize to JSON"),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_input_checks(case):
    call, error, message = INPUT_CHECKS[case]
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
