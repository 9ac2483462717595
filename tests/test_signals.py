import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusioncs.errors import DimMismatchError, InvalidSparsityError, SchemaError
from fusioncs.frames import SubspaceCollection, orthogonal_collection, random_collection
from fusioncs.signals import (
    BlockSignal,
    best_s_term,
    block_norms,
    coeff_vector,
    from_coeff_vector,
    norm_2,
    norm_21,
    norm_2inf,
    random_sparse_signal,
    signal_from_dict,
    signal_to_dict,
    support,
    to_ambient,
    zero_signal,
)


def signal_with_block_norms(norms):
    """One-dimensional blocks with prescribed norms."""
    n = len(norms)
    coll = orthogonal_collection(n, 1, n)
    return BlockSignal(tuple(np.array([float(v)]) for v in norms), coll)


class TestRandomSparseSignal:
    def test_full_support(self):
        coll = random_collection(4, 2, 5, seed=0)
        x = random_sparse_signal(coll, 5, seed=1)
        assert support(x, 1e-12) == set(range(5))

    def test_deterministic(self):
        coll = random_collection(4, 2, 5, seed=0)
        a = random_sparse_signal(coll, 2, seed=42)
        b = random_sparse_signal(coll, 2, seed=42)
        for u, v in zip(a.coeffs, b.coeffs):
            assert np.array_equal(u, v)

    def test_draws_match_per_block_reference_independent(self):
        # the same generator calls in the same order, each unit block
        # normalized by np.linalg.norm's value, bit for bit, for every seed
        # default_rng takes
        rng = np.random.default_rng(6)
        coll = SubspaceCollection(tuple(np.linalg.qr(rng.standard_normal((4, 3)))[0] for _ in range(5)))
        for seed, s in ((1, 1), (2, 3), (3, 5), (2**64 - 1, 2), (2**64, 4), (2**100, 3)):
            gen = np.random.default_rng(seed)
            expected = np.zeros((5, 3))
            for j in np.sort(gen.choice(5, size=s, replace=False)).tolist():
                g = gen.standard_normal(3)
                expected[j] = g / np.linalg.norm(g)
            assert coeff_vector(random_sparse_signal(coll, s, seed)).tobytes() == expected.tobytes()

    def test_unit_norm_blocks_l21(self):
        coll = random_collection(6, 3, 8, seed=0)
        for s in (1, 3, 8):
            x = random_sparse_signal(coll, s, seed=s)
            assert norm_21(x) == pytest.approx(s, abs=1e-10)

    def test_support_size_over_seeds(self):
        coll = random_collection(5, 2, 7, seed=0)
        for seed in range(100):
            x = random_sparse_signal(coll, 3, seed=seed)
            assert len(support(x, 1e-12)) == 3

    def test_gaussian_blocks(self):
        coll = random_collection(5, 2, 7, seed=0)
        x = random_sparse_signal(coll, 4, seed=3, amplitude_law="gaussian_blocks")
        assert len(support(x, 1e-12)) == 4

    def test_invalid_sparsity(self):
        coll = random_collection(5, 2, 7, seed=0)
        with pytest.raises(InvalidSparsityError):
            random_sparse_signal(coll, 0, seed=0)
        with pytest.raises(InvalidSparsityError):
            random_sparse_signal(coll, 8, seed=0)

    def test_numpy_integer_sparsity_accepted(self):
        coll = random_collection(5, 2, 7, seed=0)
        assert np.array_equal(coeff_vector(random_sparse_signal(coll, np.int64(3), seed=4)),
                              coeff_vector(random_sparse_signal(coll, 3, seed=4)))


class TestNorms:
    def test_zero_signal(self):
        coll = random_collection(4, 2, 3, seed=0)
        z = zero_signal(coll)
        assert norm_21(z) == 0.0
        assert norm_2(z) == 0.0
        assert norm_2inf(z) == 0.0

    def test_single_block(self):
        coll = random_collection(4, 2, 3, seed=0)
        x = random_sparse_signal(coll, 1, seed=5, amplitude_law="gaussian_blocks")
        assert norm_21(x) == pytest.approx(norm_2(x))
        assert norm_2inf(x) == pytest.approx(norm_2(x))

    def test_three_four_five(self):
        x = signal_with_block_norms([3.0, 4.0])
        assert norm_21(x) == pytest.approx(7.0)
        assert norm_2(x) == pytest.approx(5.0)
        assert norm_2inf(x) == pytest.approx(4.0)

    def test_norm_sandwich(self):
        rng = np.random.default_rng(0)
        coll = random_collection(5, 2, 6, seed=0)
        for trial in range(1000):
            s = int(rng.integers(1, 7))
            x = random_sparse_signal(coll, s, seed=trial, amplitude_law="gaussian_blocks")
            n2, n21, n2inf = norm_2(x), norm_21(x), norm_2inf(x)
            assert n2 <= n21 + 1e-12
            assert n21 <= math.sqrt(coll.size) * n2 + 1e-12
            assert n2inf <= n2 + 1e-12

    def test_coefficient_ambient_isometry(self):
        coll = random_collection(7, 3, 5, seed=1)
        x = random_sparse_signal(coll, 3, seed=2, amplitude_law="gaussian_blocks")
        assert norm_2(x) == pytest.approx(np.linalg.norm(to_ambient(x)), abs=1e-10)


class TestBestSTerm:
    def test_already_sparse(self):
        coll = random_collection(5, 2, 6, seed=0)
        x = random_sparse_signal(coll, 2, seed=9)
        approx, sigma = best_s_term(x, 4)
        assert sigma == 0.0
        assert np.allclose(coeff_vector(approx), coeff_vector(x))

    def test_hand_case(self):
        x = signal_with_block_norms([3.0, 1.0, 2.0])
        approx, sigma = best_s_term(x, 1)
        assert sigma == pytest.approx(3.0)
        assert support(approx, 0.0) == {0}

    def test_s_zero(self):
        x = signal_with_block_norms([3.0, 1.0, 2.0])
        approx, sigma = best_s_term(x, 0)
        assert sigma == pytest.approx(norm_21(x))
        assert norm_21(approx) == 0.0

    def test_invalid(self):
        x = signal_with_block_norms([1.0, 2.0])
        with pytest.raises(InvalidSparsityError):
            best_s_term(x, 3)

    def test_numpy_integer_s_accepted(self):
        x = signal_with_block_norms([3.0, 1.0, 2.0])
        (got, got_sigma), (want, want_sigma) = best_s_term(x, np.int64(2)), best_s_term(x, 2)
        assert np.array_equal(coeff_vector(got), coeff_vector(want)) and got_sigma == want_sigma

    @pytest.mark.parametrize("seed", range(20))
    def test_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        coll = random_collection(4, 2, n, seed=seed)
        x = random_sparse_signal(coll, n, seed=seed + 500, amplitude_law="gaussian_blocks")
        norms = block_norms(x)
        for s in range(n + 1):
            _, sigma = best_s_term(x, s)
            brute = min(
                np.sum(norms[[j for j in range(n) if j not in set(keep)]])
                for keep in combinations(range(n), s)
            )
            assert sigma == brute

    def test_monotone_in_s(self):
        coll = random_collection(4, 2, 7, seed=3)
        x = random_sparse_signal(coll, 7, seed=4, amplitude_law="gaussian_blocks")
        sigmas = [best_s_term(x, s)[1] for s in range(8)]
        assert all(a >= b - 1e-15 for a, b in zip(sigmas, sigmas[1:]))
        assert sigmas[-1] == 0.0

    def test_tie_breaks_to_lower_index(self):
        x = signal_with_block_norms([2.0, 2.0, 1.0])
        approx, _ = best_s_term(x, 1)
        assert support(approx, 0.0) == {0}


@given(
    norms=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=8),
    s=st.integers(min_value=0, max_value=8),
)
@settings(max_examples=100, deadline=None)
def test_best_s_term_properties(norms, s):
    s = min(s, len(norms))
    x = signal_with_block_norms(norms)
    approx, sigma = best_s_term(x, s)
    assert len(support(approx, 0.0)) <= s
    assert sigma == pytest.approx(norm_21(x - approx), abs=1e-12)


class TestSupportAndConversions:
    def test_zero_support_empty(self):
        coll = random_collection(4, 2, 3, seed=0)
        assert support(zero_signal(coll)) == set()

    def test_tol_zero_generic_full(self):
        coll = random_collection(4, 2, 3, seed=0)
        x = random_sparse_signal(coll, 3, seed=1, amplitude_law="gaussian_blocks")
        assert support(x, 0.0) == {0, 1, 2}

    def test_nan_tol_rejected(self):
        x = signal_with_block_norms([1.0, 0.0])
        with pytest.raises(ValueError, match="tol"):
            support(x, math.nan)

    def test_coeff_vector_round_trip(self):
        coll = random_collection(6, 2, 4, seed=5)
        x = random_sparse_signal(coll, 3, seed=7)
        back = from_coeff_vector(coll, coeff_vector(x))
        assert np.allclose(coeff_vector(back), coeff_vector(x))

    def test_arithmetic(self):
        coll = random_collection(6, 2, 4, seed=5)
        x = random_sparse_signal(coll, 2, seed=8)
        y = random_sparse_signal(coll, 2, seed=9)
        z = (x + y) - y
        assert np.allclose(coeff_vector(z), coeff_vector(x), atol=1e-14)

    def test_copied_on_construction_and_read_only(self):
        coll = random_collection(6, 2, 3, seed=5)
        blocks = [np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])]
        x = BlockSignal(tuple(blocks), coll)
        blocks[0][0] = -1.0
        assert x.coeffs[0].tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            x.coeffs[1][0] = 0.0
        vec = coeff_vector(x)
        vec[:] = 0.0
        assert coeff_vector(x).tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        back = from_coeff_vector(coll, vec)
        vec[0] = 9.0
        assert coeff_vector(back)[0] == 0.0
        with pytest.raises(ValueError):
            back.coeffs[0][0] = 1.0

    def test_identity_equality_and_hash(self):
        # equal draws are distinct signals; values compare through coeff_vector
        coll = random_collection(4, 2, 3, seed=0)
        x = random_sparse_signal(coll, 2, seed=1)
        y = random_sparse_signal(coll, 2, seed=1)
        assert x == x
        assert x != y
        assert len({x, y, x}) == 2
        assert np.array_equal(coeff_vector(x), coeff_vector(y))

    def test_block_shape_validated(self):
        coll = random_collection(6, 2, 4, seed=5)
        with pytest.raises(DimMismatchError):
            BlockSignal((np.zeros(2), np.zeros(3), np.zeros(2), np.zeros(2)), coll)


class TestSerialization:
    def test_round_trip(self):
        coll = random_collection(5, 2, 4, seed=11, label="sig-test")
        x = random_sparse_signal(coll, 2, seed=12)
        doc = signal_to_dict(x)
        assert doc["collection"] == "sig-test"
        back = signal_from_dict(doc, coll)
        assert np.allclose(coeff_vector(back), coeff_vector(x), atol=1e-15)

    def test_schema_mismatch(self):
        coll = random_collection(5, 2, 4, seed=11)
        other = random_collection(5, 2, 3, seed=11)
        doc = signal_to_dict(random_sparse_signal(coll, 2, seed=12))
        with pytest.raises(SchemaError):
            signal_from_dict(doc, other)
        del doc["coeffs"]
        with pytest.raises(SchemaError):
            signal_from_dict(doc, coll)

    @pytest.mark.parametrize("field, value", [("k", True), ("N", 2.0), ("N", 0), ("k", "1")])
    def test_dims_must_be_positive_integers(self, field, value):
        # JSON's true equals 1 and 2.0 equals 2, but neither is an integer
        coll = orthogonal_collection(4, 1, 2)
        doc = signal_to_dict(random_sparse_signal(coll, 1, seed=0))
        assert signal_from_dict(doc, coll).num_blocks == 2
        doc[field] = value
        with pytest.raises(SchemaError, match=f"^{field}: must be a positive integer$"):
            signal_from_dict(doc, coll)


def _signal_pair(op):
    # two signals on equal but distinct collections
    x, y = (random_sparse_signal(orthogonal_collection(4, 2, 2), 1, seed=0) for _ in range(2))
    return op(x, y)


# case -> (the call, the error it raises, the error's message)
INPUT_CHECKS = {
    "block_count": (lambda: BlockSignal((np.ones(2),), orthogonal_collection(4, 2, 2)), DimMismatchError,
                    "1 blocks for a collection of 2 subspaces"),
    "add_across_collections": (lambda: _signal_pair(lambda x, y: x + y), DimMismatchError,
                               "signals bound to different collections"),
    "subtract_across_collections": (lambda: _signal_pair(lambda x, y: x - y), DimMismatchError,
                                    "signals bound to different collections"),
    "unknown_amplitude_law": (lambda: random_sparse_signal(orthogonal_collection(4, 2, 2), 1, seed=0,
                                                           amplitude_law="laplace"),
                              ValueError, "unknown amplitude law 'laplace'"),
    "float_sparsity": (lambda: random_sparse_signal(orthogonal_collection(4, 2, 2), 2.0, seed=0),
                       InvalidSparsityError, "s=2.0 must be an integer"),
    "fractional_sparsity": (lambda: random_sparse_signal(orthogonal_collection(4, 2, 2), 2.5, seed=0),
                            InvalidSparsityError, "s=2.5 must be an integer"),
    "bool_sparsity": (lambda: random_sparse_signal(orthogonal_collection(4, 2, 2), True, seed=0),
                      InvalidSparsityError, "s=True must be an integer"),
    "best_s_term_fractional": (lambda: best_s_term(signal_with_block_norms([1.0, 2.0]), 1.5),
                               InvalidSparsityError, "s=1.5 must be an integer"),
    "best_s_term_float": (lambda: best_s_term(signal_with_block_norms([1.0, 2.0]), 2.0),
                          InvalidSparsityError, "s=2.0 must be an integer"),
    "best_s_term_bool": (lambda: best_s_term(signal_with_block_norms([1.0, 2.0]), True),
                         InvalidSparsityError, "s=True must be an integer"),
    "coeff_vector_length": (lambda: from_coeff_vector(orthogonal_collection(4, 2, 2), np.zeros(3)),
                            DimMismatchError, "expected length 4, got shape (3,)"),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_input_checks(case):
    call, error, message = INPUT_CHECKS[case]
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
