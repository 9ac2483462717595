import math
from itertools import combinations

import numpy as np
import pytest

from fusioncs import measurement, rip
from fusioncs.errors import DimMismatchError, InvalidParamError, ModeError, TooLargeError
from fusioncs.experiments import ExperimentConfig, run_frip_sweep
from fusioncs.frames import SubspaceCollection, _orthonormalize, orthogonal_collection, random_collection
from fusioncs.measurement import EnsembleSpec, compose_with_bases, sample_ensemble, vector_operator
from fusioncs.rip import (
    RipEstimate,
    classical_rip,
    exact_frip,
    mc_frip,
    recovery_sufficient,
    scalar_rip_on_H,
)


def kron_materialize(a, d, scale=1.0):
    return scale * np.kron(a, np.eye(d))


def every_support_max(op, chunks):
    """Reference for rip._max_over_supports: every support through eigvalsh,
    the enumeration as it was before supports were pruned."""
    gram = op.matrix.T @ op.matrix
    value, worst, count = -math.inf, None, 0
    for chunk, cols in chunks:
        eig = np.linalg.eigvalsh(gram[cols[:, :, None], cols[:, None, :]])
        smax2, smin2 = np.maximum(eig[:, -1], 0.0), np.maximum(eig[:, 0], 0.0)
        deltas = np.maximum(smax2 - 1.0, 1.0 - smin2)
        i = int(np.argmax(deltas))
        if deltas[i] > value:
            value, worst = float(deltas[i]), tuple(int(j) for j in chunk[i])
        count += len(chunk)
    return value, worst, count


class TestExactFrip:
    def test_isometry_has_zero_constant(self):
        n = 5
        coll = random_collection(4, 2, n, seed=0)
        a = math.sqrt(n) * np.eye(n)
        for s in (1, 2, 5):
            est = exact_frip(a, coll, s, scale=1.0 / math.sqrt(n))
            assert est.value == pytest.approx(0.0, abs=1e-12)
            assert est.mode == "exact"
            assert est.supports_evaluated == math.comb(n, s)

    def test_s1_closed_form(self):
        m, n = 4, 6
        coll = random_collection(5, 2, n, seed=1)
        a = sample_ensemble(EnsembleSpec("gaussian", m, n, seed=2))
        est = exact_frip(a, coll, 1, scale=1.0 / math.sqrt(m))
        expected = max(abs(np.sum(a[:, j] ** 2) / m - 1.0) for j in range(n))
        assert est.value == pytest.approx(expected, abs=1e-12)
        worst = max(range(n), key=lambda j: abs(np.sum(a[:, j] ** 2) / m - 1.0))
        assert est.worst_support == (worst,)

    def test_monotone_in_s(self):
        rng = np.random.default_rng(3)
        for trial in range(50):
            n = int(rng.integers(3, 7))
            coll = random_collection(4, 2, n, seed=trial)
            m = int(rng.integers(2, 6))
            a = sample_ensemble(EnsembleSpec("gaussian", m, n, seed=trial + 99))
            values = [
                exact_frip(a, coll, s, scale=1.0 / math.sqrt(m)).value
                for s in range(1, n + 1)
            ]
            assert all(x <= y + 1e-12 for x, y in zip(values, values[1:]))

    def test_guards(self):
        coll = random_collection(4, 2, 30, seed=4)
        a = np.ones((2, 30))
        with pytest.raises(TooLargeError):
            exact_frip(a, coll, 15)
        wide = random_collection(128, 110, 3, seed=5)
        with pytest.raises(TooLargeError):
            exact_frip(np.ones((2, 3)), wide, 2)


class TestMcFrip:
    def test_never_exceeds_exact(self):
        rng = np.random.default_rng(6)
        for trial in range(100):
            n = int(rng.integers(3, 7))
            s = int(rng.integers(1, n + 1))
            coll = random_collection(4, 2, n, seed=trial)
            a = sample_ensemble(EnsembleSpec("gaussian", 3, n, seed=trial + 7))
            exact = exact_frip(a, coll, s)
            mc = mc_frip(a, coll, s, trials=5, seed=trial)
            assert mc.mode == "monte_carlo"
            assert mc.value <= exact.value + 1e-12

    def test_equals_exact_when_supports_covered(self):
        coll = random_collection(4, 2, 4, seed=8)
        a = sample_ensemble(EnsembleSpec("gaussian", 3, 4, seed=9))
        exact = exact_frip(a, coll, 2)
        mc = mc_frip(a, coll, 2, trials=300, seed=10)
        assert mc.value == pytest.approx(exact.value, abs=1e-12)

    def test_single_support_level(self):
        coll = random_collection(4, 2, 4, seed=11)
        a = sample_ensemble(EnsembleSpec("gaussian", 3, 4, seed=12))
        exact = exact_frip(a, coll, 4)
        mc = mc_frip(a, coll, 4, trials=1, seed=13)
        assert mc.value == pytest.approx(exact.value, abs=1e-12)

    def test_deterministic(self):
        coll = random_collection(4, 2, 5, seed=14)
        a = sample_ensemble(EnsembleSpec("gaussian", 3, 5, seed=15))
        r1 = mc_frip(a, coll, 2, trials=20, seed=16)
        r2 = mc_frip(a, coll, 2, trials=20, seed=16)
        assert r1.value == r2.value
        assert r1.worst_support == r2.worst_support

    def test_column_count_checked(self):
        coll = random_collection(4, 2, 5, seed=17)
        with pytest.raises(DimMismatchError):
            mc_frip(np.ones((3, 7)), coll, 2, trials=5, seed=18)


class TestScalarRip:
    def test_identity_operator(self):
        coll = random_collection(3, 1, 4, seed=17)
        phi = np.eye(12)
        est = scalar_rip_on_H(phi, coll, 2)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_matches_materialized_kronecker(self):
        rng = np.random.default_rng(18)
        for trial in range(100):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(2, 5))
            k = int(rng.integers(1, d + 1))
            m = int(rng.integers(1, 5))
            s = int(rng.integers(1, min(n, 3) + 1))
            coll = random_collection(d, k, n, seed=trial)
            a = sample_ensemble(EnsembleSpec("gaussian", m, n, seed=trial + 31))
            scale = 1.0 / math.sqrt(m)
            fusion = exact_frip(a, coll, s, scale=scale)
            scalar = scalar_rip_on_H(kron_materialize(a, d, scale), coll, s)
            assert scalar.value == pytest.approx(fusion.value, abs=1e-12)
            assert scalar.worst_support == fusion.worst_support

    def test_doubling_phi_scales_upper_side(self):
        coll = random_collection(3, 1, 4, seed=19)
        phi = 1.5 * np.eye(12)
        base = scalar_rip_on_H(phi, coll, 2)
        doubled = scalar_rip_on_H(2.0 * phi, coll, 2)
        assert 1.0 + doubled.value == pytest.approx(4.0 * (1.0 + base.value), abs=1e-10)


class TestClassicalRip:
    def test_orthogonal_columns(self):
        m = 6
        a = math.sqrt(m) * np.eye(m)[:, :4]
        est = classical_rip(a, 2, scale=1.0 / math.sqrt(m))
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_s1_formula(self):
        m, n = 5, 7
        a = sample_ensemble(EnsembleSpec("gaussian", m, n, seed=20))
        est = classical_rip(a, 1, scale=1.0 / math.sqrt(m))
        expected = max(abs(np.sum(a[:, j] ** 2) / m - 1.0) for j in range(n))
        assert est.value == pytest.approx(expected, abs=1e-12)

    def test_fusion_below_classical(self):
        rng = np.random.default_rng(21)
        for trial in range(100):
            n = int(rng.integers(3, 7))
            d = int(rng.integers(2, 5))
            k = int(rng.integers(1, d + 1))
            m = int(rng.integers(2, 6))
            coll = random_collection(d, k, n, seed=trial + 1000)
            a = sample_ensemble(EnsembleSpec("gaussian", m, n, seed=trial + 53))
            scale = 1.0 / math.sqrt(m)
            for s in range(1, min(3, n) + 1):
                fusion = exact_frip(a, coll, s, scale=scale)
                classical = classical_rip(a, s, scale=scale)
                assert fusion.value <= classical.value + 1e-12


class TestStackedEnumeration:
    """Supports go through in chunks of stacked Gram blocks, and a support
    whose bound stays below the running maximum skips eigvalsh; results must
    equal evaluating every support, wherever the chunks break."""

    @pytest.mark.parametrize("per_chunk", [1, 7])
    @pytest.mark.parametrize("unit_blocks", [False, True])
    def test_chunk_size_does_not_change_results_independent(self, monkeypatch, per_chunk, unit_blocks):
        rng = np.random.default_rng(30)
        k = 1 if unit_blocks else 2
        for n in (6, 10):
            coll = random_collection(4, k, n, seed=31)
            s, m = 3, 3
            a = rng.standard_normal((m, n))
            phi = rng.standard_normal((10, 4 * n))
            worst = k * s
            calls = [
                (lambda: exact_frip(a, coll, s, 0.6), worst),
                (lambda: scalar_rip_on_H(phi, coll, s), worst),
                (lambda: mc_frip(a, coll, s, trials=30, seed=32, scale=0.6), worst),
                (lambda: classical_rip(a, s, 0.6), s),
            ]
            for call, cols in calls:
                monkeypatch.setattr(rip, "_max_over_supports", every_support_max)
                reference = call()
                monkeypatch.undo()
                for chunk_entries in (None, per_chunk * cols**2):
                    for seeds in (rip._SEEDS, 1):
                        if chunk_entries is not None:
                            monkeypatch.setattr(measurement, "_CHUNK_ENTRIES", chunk_entries)
                        monkeypatch.setattr(rip, "_SEEDS", seeds)
                        got = call()
                        monkeypatch.undo()
                        assert got == reference
                        assert got.value.hex() == reference.value.hex()

    @pytest.mark.parametrize("one_per_chunk", [False, True])
    def test_all_ties_report_first_support(self, monkeypatch, one_per_chunk):
        if one_per_chunk:
            monkeypatch.setattr(measurement, "_CHUNK_ENTRIES", 1)
        est = classical_rip(np.eye(5), 2)
        assert est.value == 0.0
        assert est.worst_support == (0, 1)
        assert est.supports_evaluated == 10
        # every Gram block of coordinate subspaces under an identity is exactly I
        est = exact_frip(np.eye(4), orthogonal_collection(8, 2, 4), 2)
        assert est.value == 0.0
        assert est.worst_support == (0, 1)

    @pytest.mark.parametrize("seed", [33, 34])
    def test_mc_frip_matches_per_draw_loop(self, seed):
        n, s, trials = 7, 3, 40
        coll = random_collection(4, 2, n, seed=seed)
        a = sample_ensemble(EnsembleSpec("gaussian", 3, n, seed=seed + 1))
        scale = 1.0 / math.sqrt(3)
        b = compose_with_bases(vector_operator(a, 4, scale), coll)
        rng = np.random.default_rng(seed)
        value, worst = -math.inf, None
        for _ in range(trials):
            supp = tuple(int(j) for j in np.sort(rng.choice(n, size=s, replace=False)))
            m_s = b.support_matrix(supp)
            sv = np.linalg.svd(m_s, compute_uv=False)
            smin2 = sv[-1] ** 2 if m_s.shape[0] >= m_s.shape[1] else 0.0
            delta = max(sv[0] ** 2 - 1.0, 1.0 - smin2)
            if delta > value:
                value, worst = delta, supp
        est = mc_frip(a, coll, s, trials=trials, seed=seed, scale=scale)
        assert est.value == pytest.approx(value, abs=1e-12)
        assert est.worst_support == worst
        assert est.supports_evaluated == trials


def zero_row_instance(rng):
    """B whose blocks 0 and 1 are exactly orthonormal and orthogonal to the
    rest: coordinate bases under unit columns e_0, e_1 of A, so rows 0 and 1
    of the block-norm matrix are exactly zero and the others are not."""
    bases = (np.eye(4)[:, :2], np.eye(4)[:, 2:]) + tuple(
        _orthonormalize(rng.standard_normal((4, 2))) for _ in range(8))
    a = np.zeros((5, 10))
    a[0, 0] = a[1, 1] = 1.0
    a[2:, 2:] = rng.standard_normal((3, 8))
    return compose_with_bases(vector_operator(a, 4), SubspaceCollection(bases))


class TestPruning:
    """The Collatz-Wielandt bound that lets a support skip eigvalsh."""

    @staticmethod
    def check_bounds(b):
        """_block_norms against one norm per block, and on every support of
        up to 4 blocks: the constant within the widened bound, and the
        bound never above the row sums. Returns the block norms."""
        gram = b.matrix.T @ b.matrix
        h = gram - np.eye(b.in_dim)
        k = b.collection.block_dim
        blocks = [slice(j * k, j * k + k) for j in range(b.collection.size)]
        c = np.array([[np.linalg.norm(h[bi, bj], 2) for bj in blocks] for bi in blocks])
        norms = rip._block_norms(b, gram)
        np.testing.assert_allclose(norms, c, rtol=1e-12, atol=1e-14)
        assert np.array_equal(norms, norms.T)
        for s in (1, 2, 3, 4):
            supports = np.array(list(combinations(range(len(blocks)), s)))
            for supp, bound in zip(supports, rip._bounds(norms, supports)):
                cols = np.concatenate([np.arange(b.in_dim)[blocks[j]] for j in supp])
                delta = np.max(np.abs(np.linalg.eigvalsh(h[np.ix_(cols, cols)])))
                assert delta <= bound * (1.0 + rip._MARGIN) + rip._TINY
                assert bound <= max(sum(norms[i, j] for j in supp) for i in supp) * (1.0 + 1e-12)
        return norms

    @pytest.mark.parametrize("unit_blocks", [False, True])
    def test_bound_holds_on_every_support(self, unit_blocks):
        rng = np.random.default_rng(50 + unit_blocks)
        for trial in range(6):
            coll = random_collection(4, 1 if unit_blocks else 2, 10, seed=trial)
            m = int(rng.integers(1, 7))
            self.check_bounds(compose_with_bases(
                vector_operator(rng.standard_normal((m, 10)), 4, 1 / math.sqrt(m)), coll))

    def test_bound_holds_with_zero_rows(self):
        # an identity A on coordinate subspaces: every block norm is zero
        norms = self.check_bounds(compose_with_bases(vector_operator(np.eye(10), 20),
                                                     orthogonal_collection(20, 2, 10)))
        assert not norms.any()
        norms = self.check_bounds(zero_row_instance(np.random.default_rng(52)))
        assert not norms[:2].any() and norms[2:].any(axis=1).all()

    def test_overflowing_bound_falls_back_to_row_sums_independent(self):
        # block norms near 1e200: C_S C_S 1 overflows, so the row sums bound
        norms = np.full((5, 5), 1e200)
        supports = np.array(list(combinations(range(5), 3)))
        with np.errstate(all="raise"):
            bounds = rip._bounds(norms, supports)
        assert np.array_equal(bounds, np.full(len(supports), 3e200))
        # an operator of such block norms gives the values of every support
        rng = np.random.default_rng(56)
        a, coll = 1e80 * rng.standard_normal((3, 6)), random_collection(4, 2, 6, seed=57)
        b = compose_with_bases(vector_operator(a, 4), coll)
        assert rip._block_norms(b, b.matrix.T @ b.matrix).min() > 1e155
        for s in (2, 3):
            got = exact_frip(a, coll, s)
            supports = np.array(list(combinations(range(6), s)))
            value, worst, count = every_support_max(b, [(supports, measurement.support_columns(supports, 2))])
            assert (got.value.hex(), got.worst_support, got.supports_evaluated) == (value.hex(), worst, count)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_operator_rejected(self, bad):
        a = np.ones((3, 6))
        a[0, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            classical_rip(a, 2)

    def test_an_eighth_of_the_supports_reach_eigvalsh(self, monkeypatch):
        # the exact cells of the benchmark's support enumeration, at its
        # seeds 0, 1 and 2: d=4, k=2, N=16, s=4, m in {4, 8}, 2 trials each
        eigvalsh, sent = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: sent.append(len(g)) or eigvalsh(g))
        for base_seed in (5, 6, 7):
            sent.clear()
            config = ExperimentConfig(experiment="frip_sweep", family="random", d=4, k=2, N=16,
                                      sparsity_grid=(4,), measurement_grid=(4, 8), trials_per_cell=2,
                                      base_seed=base_seed)
            assert [cell.mode for cell in run_frip_sweep(config)] == ["exact", "exact"]
            assert sum(sent) <= 4 * math.comb(16, 4) / 8, base_seed


class TestRecoverySufficient:
    def test_threshold(self):
        def est(value, mode="exact"):
            return RipEstimate(s=2, value=value, mode=mode, supports_evaluated=1, worst_support=(0,))

        assert recovery_sufficient(est(0.0))
        assert not recovery_sufficient(est(0.5))
        assert recovery_sufficient(est(0.41))
        assert not recovery_sufficient(est(math.sqrt(2.0) - 1.0))

    def test_mode_guard(self):
        bad = RipEstimate(s=2, value=0.0, mode="monte_carlo", supports_evaluated=1, worst_support=(0,))
        with pytest.raises(ModeError):
            recovery_sufficient(bad)


class TestConcentration:
    def test_median_decreases_as_m_doubles(self):
        coll = orthogonal_collection(6, 2, 3)
        s = 2
        medians = []
        for m in (8, 16, 32):
            deltas = []
            for t in range(200):
                a = sample_ensemble(EnsembleSpec("gaussian", m, 3, seed=40_000 + 97 * m + t))
                deltas.append(exact_frip(a, coll, s, scale=1.0 / math.sqrt(m)).value)
            medians.append(float(np.median(deltas)))
        assert medians[0] > medians[1] > medians[2]


# case -> (the call, the error it raises, the error's message)
INPUT_CHECKS = {
    # finite entries, but the Gram entry 2e400 overflows
    "gram_overflow": (lambda: exact_frip(np.full((1, 2), 1e200), SubspaceCollection((np.ones((1, 1)),) * 2), 1),
                      ValueError, "the operator has non-finite entries"),
    "mc_no_blocks": (lambda: mc_frip(np.ones((2, 3)), orthogonal_collection(3, 1, 3), 0, trials=5, seed=0),
                     ValueError, "s=0 outside [1, 3]"),
    "mc_too_many_blocks": (lambda: mc_frip(np.ones((2, 3)), orthogonal_collection(3, 1, 3), 4, trials=5, seed=0),
                           ValueError, "s=4 outside [1, 3]"),
    "exact_float_s": (lambda: exact_frip(np.ones((2, 3)), orthogonal_collection(3, 1, 3), 2.0),
                      ValueError, "s=2.0 must be an integer"),
    "exact_bool_s": (lambda: exact_frip(np.ones((2, 3)), orthogonal_collection(3, 1, 3), True),
                     ValueError, "s=True must be an integer"),
    "mc_fractional_s": (lambda: mc_frip(np.ones((2, 3)), orthogonal_collection(3, 1, 3), 2.5, trials=5, seed=0),
                        ValueError, "s=2.5 must be an integer"),
    "mc_bool_s": (lambda: mc_frip(np.ones((2, 3)), orthogonal_collection(3, 1, 3), True, trials=5, seed=0),
                  ValueError, "s=True must be an integer"),
    "mc_fractional_trials": (lambda: mc_frip(np.ones((2, 3)), orthogonal_collection(3, 1, 3), 2, trials=2.5, seed=0),
                             InvalidParamError, "trials=2.5 must be a positive integer"),
    "mc_float_trials": (lambda: mc_frip(np.ones((2, 3)), orthogonal_collection(3, 1, 3), 2, trials=5.0, seed=0),
                        InvalidParamError, "trials=5.0 must be a positive integer"),
    "mc_bool_trials": (lambda: mc_frip(np.ones((2, 3)), orthogonal_collection(3, 1, 3), 2, trials=True, seed=0),
                       InvalidParamError, "trials=True must be a positive integer"),
    "mc_no_trials": (lambda: mc_frip(np.ones((2, 3)), orthogonal_collection(3, 1, 3), 2, trials=0, seed=0),
                     InvalidParamError, "trials=0 must be a positive integer"),
    "scalar_fractional_s": (lambda: scalar_rip_on_H(np.ones((2, 9)), orthogonal_collection(3, 1, 3), 2.5),
                            ValueError, "s=2.5 must be an integer"),
    "classical_float_s": (lambda: classical_rip(np.ones((2, 3)), 2.0), ValueError, "s=2.0 must be an integer"),
    "classical_bool_s": (lambda: classical_rip(np.ones((2, 3)), True), ValueError, "s=True must be an integer"),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_input_checks(case):
    call, error, message = INPUT_CHECKS[case]
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_numpy_integer_sparsity_accepted():
    a, coll = np.ones((2, 3)), orthogonal_collection(3, 1, 3)
    assert exact_frip(a, coll, np.int64(2)) == exact_frip(a, coll, 2)
    assert mc_frip(a, coll, np.int32(2), trials=5, seed=0) == mc_frip(a, coll, 2, trials=5, seed=0)
    assert classical_rip(a, np.int64(2)) == classical_rip(a, 2)
    assert mc_frip(a, coll, 2, trials=np.int64(5), seed=0) == mc_frip(a, coll, 2, trials=5, seed=0)
