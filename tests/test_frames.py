import math

import numpy as np
import pytest

from fusioncs import bounds
from fusioncs.errors import (
    InvalidAngleError,
    InvalidDimsError,
    IndexOutOfRangeError,
    NonpositiveWeightError,
    OrthonormalityError,
    RankDeficientError,
    SameIndexError,
    SchemaError,
    ShapeMismatchError,
    SingleSubspaceError,
    TooManySubspacesError,
)
from fusioncs.frames import (
    SubspaceCollection,
    _orthonormalize,
    _pair_singular_values,
    angle_family,
    build_collection,
    coherence,
    collection_from_dict,
    collection_to_dict,
    fusion_frame_bounds,
    load_collection,
    orthogonal_collection,
    packing_diameter,
    principal_angles,
    random_collection,
    save_collection,
    spectral_distance,
)


def random_orthogonal(k, rng):
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


class TestBuildCollection:
    def test_orthonormal_input_is_fixed_point(self):
        coll = random_collection(5, 2, 3, seed=0)
        rebuilt = build_collection([np.array(u) for u in coll.bases])
        for u, v in zip(coll.bases, rebuilt.bases):
            assert np.max(np.abs(u - v)) <= 1e-12

    def test_normalizes_single_column(self):
        coll = build_collection([np.array([[2.0], [0.0]])])
        assert np.allclose(coll.bases[0], [[1.0], [0.0]])

    def test_rank_deficient_rejected(self):
        col = np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])
        with pytest.raises(RankDeficientError):
            build_collection([col])
        # the first deficient basis of a stack is named
        with pytest.raises(RankDeficientError) as info:
            build_collection([np.eye(3, 2), col, col])
        assert info.value.index == 1

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            build_collection([np.eye(3, 2), np.eye(4, 2)])

    def test_direct_construction_validates(self):
        bad = np.array([[1.0, 0.5], [0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(OrthonormalityError):
            SubspaceCollection((bad,))
        # the first basis off orthonormality is named
        with pytest.raises(OrthonormalityError, match="^basis 2 deviates"):
            SubspaceCollection((np.eye(3)[:, :2], np.eye(3)[:, 1:], bad, 2.0 * np.eye(3)[:, :2]))

    def test_bases_kept_read_only_independent(self):
        # the bases are checked in one stacked Gram product and kept as
        # read-only copies with their input bits, in input order
        rng = np.random.default_rng(4)
        mats = [_orthonormalize(rng.standard_normal((5, 2))) for _ in range(6)]
        coll = SubspaceCollection(tuple(mats))
        assert coll.block_dim == 2
        for u, m in zip(coll.bases, mats):
            assert u.tobytes() == m.tobytes() and not u.flags.writeable
        mats[0][0, 0] = 7.0
        assert coll.bases[0][0, 0] != 7.0


class TestConstructors:
    def test_random_collection_deterministic(self):
        a = random_collection(6, 2, 4, seed=123)
        b = random_collection(6, 2, 4, seed=123)
        for u, v in zip(a.bases, b.bases):
            assert np.array_equal(u, v)

    def test_random_collection_matches_one_basis_at_a_time(self):
        # the stacked draw and QR give the bits of N separate ones
        for d, k, n in [(4, 2, 16), (8, 3, 5), (6, 1, 12), (3, 3, 2)]:
            for seed in range(5):
                rng = np.random.default_rng(seed)
                expected = [_orthonormalize(rng.standard_normal((d, k))) for _ in range(n)]
                for u, v in zip(random_collection(d, k, n, seed=seed).bases, expected, strict=True):
                    assert np.array_equal(u, v)

    def test_random_collection_full_dim_coherence_one(self):
        coll = random_collection(3, 3, 3, seed=5)
        assert coherence(coll).lambda_ == pytest.approx(1.0, abs=1e-10)

    def test_random_collection_dims_checked(self):
        with pytest.raises(InvalidDimsError):
            random_collection(2, 3, 4, seed=0)

    def test_random_collection_respects_packing_floor(self):
        floor = bounds.lambda_lower_bound(16, 2, 8)
        for seed in range(100):
            coll = random_collection(16, 2, 8, seed=seed)
            assert coherence(coll).lambda_ >= floor - 1e-9

    def test_orthogonal_collection(self):
        coll = orthogonal_collection(6, 2, 3)
        assert coherence(coll).lambda_ == 0.0
        fb = fusion_frame_bounds(coll, np.ones(3))
        assert fb.lower == pytest.approx(1.0, abs=1e-12)
        assert fb.upper == pytest.approx(1.0, abs=1e-12)

    def test_numpy_integer_dims_accepted(self):
        d, k, n = np.int64(4), np.int32(2), np.int64(3)
        pairs = [(random_collection(d, k, n, seed=1), random_collection(4, 2, 3, seed=1)),
                 (orthogonal_collection(np.int64(6), k, n), orthogonal_collection(6, 2, 3)),
                 (angle_family(k, n, 0.3), angle_family(2, 3, 0.3))]
        for got, want in pairs:
            assert all(np.array_equal(u, v) for u, v in zip(got.bases, want.bases, strict=True))

    def test_orthogonal_collection_too_many(self):
        with pytest.raises(TooManySubspacesError):
            orthogonal_collection(4, 2, 3)

    def test_angle_family_endpoints(self):
        flat = angle_family(2, 3, 0.0)
        ortho = orthogonal_collection(2 * 4, 2, 3)
        for u, v in zip(flat.bases, ortho.bases):
            assert np.allclose(u, v, atol=1e-12)
        assert coherence(flat).lambda_ == pytest.approx(0.0, abs=1e-12)

        merged = angle_family(2, 3, math.pi / 2)
        assert coherence(merged).lambda_ == pytest.approx(1.0, abs=1e-12)

    def test_angle_family_quarter(self):
        coll = angle_family(2, 4, math.pi / 6)
        assert coherence(coll).lambda_ == pytest.approx(0.25, abs=1e-10)

    def test_angle_family_bad_theta(self):
        with pytest.raises(InvalidAngleError):
            angle_family(2, 3, -0.1)
        with pytest.raises(InvalidAngleError):
            angle_family(2, 3, 2.0)

    @pytest.mark.parametrize("theta", np.linspace(0.0, math.pi / 2, 20))
    def test_angle_family_coherence_grid(self, theta):
        coll = angle_family(2, 4, float(theta))
        expected = math.sin(theta) ** 2
        if coll.size >= 2:
            assert coherence(coll).lambda_ == pytest.approx(expected, abs=1e-10)


class TestCoherence:
    def test_identical_pair(self):
        u = random_collection(4, 2, 1, seed=9).bases[0]
        coll = SubspaceCollection((u, np.array(u)))
        rep = coherence(coll)
        assert rep.lambda_ == pytest.approx(1.0, abs=1e-12)

    def test_line_pair_quarter_angle(self):
        coll = angle_family(1, 2, math.pi / 4)
        assert coherence(coll).lambda_ == pytest.approx(0.5, abs=1e-12)

    def test_single_subspace_rejected(self):
        coll = random_collection(4, 2, 1, seed=0)
        with pytest.raises(SingleSubspaceError):
            coherence(coll)

    def test_report_consistency(self):
        coll = random_collection(8, 2, 5, seed=3)
        rep = coherence(coll)
        i, j = rep.argmax_pair
        assert rep.pairwise_sigma[i, j] == rep.lambda_
        assert 0.0 <= rep.lambda_ <= 1.0 + 1e-12
        assert rep.min_principal_angle == pytest.approx(math.acos(rep.lambda_))
        assert np.isnan(rep.pairwise_sigma[0, 0])

    @pytest.mark.parametrize("dims", [(2,) * 7, (3,) * 16, (1,) * 6])
    def test_matches_pairwise_loop_bit_for_bit(self, dims):
        rng = np.random.default_rng(sum(dims))
        bases = tuple(_orthonormalize(rng.standard_normal((6, k))) for k in dims)
        coll = SubspaceCollection(bases)
        n = len(dims)
        expected = np.full((n, n), np.nan)
        best, pair = -1.0, None
        for i in range(n):
            for j in range(i + 1, n):
                s = float(_pair_singular_values(coll, i, j)[0])
                expected[i, j] = expected[j, i] = s
                if s > best:
                    best, pair = s, (i, j)
        rep = coherence(coll)
        assert np.array_equal(rep.pairwise_sigma, expected, equal_nan=True)
        assert rep.lambda_ == best
        assert rep.argmax_pair == pair

    def test_ties_report_first_pair(self):
        # every pair is orthogonal: the first pair in row-major order wins
        rep = coherence(orthogonal_collection(12, 2, 6))
        assert rep.lambda_ == 0.0
        assert rep.argmax_pair == (0, 1)


class TestPairwiseGeometry:
    def test_principal_angles_identical(self):
        u = random_collection(5, 2, 1, seed=2).bases[0]
        coll = SubspaceCollection((u, np.array(u)))
        assert np.allclose(principal_angles(coll, 0, 1), 0.0, atol=1e-7)

    def test_principal_angles_orthogonal(self):
        coll = orthogonal_collection(8, 2, 2)
        assert np.allclose(principal_angles(coll, 0, 1), math.pi / 2)

    def test_principal_angles_angle_family(self):
        coll = angle_family(2, 2, math.pi / 6)
        expected = math.acos(0.25)
        assert np.allclose(principal_angles(coll, 0, 1), expected, atol=1e-12)

    def test_principal_angles_sorted(self):
        coll = random_collection(9, 3, 4, seed=11)
        ang = principal_angles(coll, 1, 3)
        assert np.all(np.diff(ang) >= 0)

    def test_pair_index_errors(self):
        coll = orthogonal_collection(6, 2, 3)
        with pytest.raises(SameIndexError):
            principal_angles(coll, 1, 1)
        with pytest.raises(IndexOutOfRangeError):
            principal_angles(coll, 0, 3)
        # an index is an integer: a float or a bool is not one
        with pytest.raises(IndexOutOfRangeError):
            principal_angles(coll, 0, 2.0)
        with pytest.raises(IndexOutOfRangeError):
            spectral_distance(coll, True, 2)

    def test_spectral_distance_extremes(self):
        u = random_collection(5, 2, 1, seed=2).bases[0]
        same = SubspaceCollection((u, np.array(u)))
        assert spectral_distance(same, 0, 1) == pytest.approx(0.0, abs=1e-7)
        ortho = orthogonal_collection(8, 2, 2)
        assert spectral_distance(ortho, 0, 1) == pytest.approx(1.0)

    def test_spectral_distance_point_six(self):
        theta = math.asin(math.sqrt(0.6))
        coll = angle_family(1, 2, theta)
        assert coherence(coll).lambda_ == pytest.approx(0.6, abs=1e-12)
        assert spectral_distance(coll, 0, 1) == pytest.approx(0.8, abs=1e-12)

    def test_packing_diameter_orthogonal(self):
        assert packing_diameter(orthogonal_collection(6, 2, 3)) == pytest.approx(1.0)

    def test_packing_identity_and_bound(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            d = int(rng.integers(3, 10))
            k = int(rng.integers(1, min(d, 4) + 1))
            n = int(rng.integers(2, 7))
            coll = random_collection(d, k, n, seed=1000 + trial)
            lam = coherence(coll).lambda_
            pack = packing_diameter(coll)
            assert pack**2 + lam**2 == pytest.approx(1.0, abs=1e-10)
            assert pack**2 <= (d - k) / d * n / (n - 1) + 1e-9


class TestFusionFrameBounds:
    def test_single_subspace(self):
        coll = random_collection(5, 2, 1, seed=4)
        fb = fusion_frame_bounds(coll, [1.0])
        assert fb.lower == pytest.approx(0.0, abs=1e-12)
        assert fb.upper == pytest.approx(1.0, abs=1e-12)

    def test_doubled_partition(self):
        base = orthogonal_collection(6, 2, 3)
        doubled = SubspaceCollection(base.bases + tuple(np.array(u) for u in base.bases))
        fb = fusion_frame_bounds(doubled, np.ones(6))
        assert fb.lower == pytest.approx(2.0, abs=1e-12)
        assert fb.upper == pytest.approx(2.0, abs=1e-12)

    def test_weights_validated(self):
        coll = orthogonal_collection(6, 2, 3)
        with pytest.raises(NonpositiveWeightError):
            fusion_frame_bounds(coll, [1.0, 0.0, 1.0])
        with pytest.raises(ShapeMismatchError):
            fusion_frame_bounds(coll, [1.0, 1.0])


class TestInvariants:
    def test_orthonormality_after_constructors(self):
        colls = [
            random_collection(7, 3, 4, seed=8),
            orthogonal_collection(8, 2, 4),
            angle_family(2, 5, 0.7),
        ]
        for coll in colls:
            for u in coll.bases:
                assert np.max(np.abs(u.T @ u - np.eye(u.shape[1]))) <= 1e-10

    def test_basis_invariance(self):
        rng = np.random.default_rng(17)
        coll = random_collection(8, 2, 4, seed=21)
        rotated = SubspaceCollection(
            tuple(u @ random_orthogonal(u.shape[1], rng) for u in coll.bases)
        )
        assert coherence(rotated).lambda_ == pytest.approx(
            coherence(coll).lambda_, abs=1e-9
        )
        assert packing_diameter(rotated) == pytest.approx(packing_diameter(coll), abs=1e-9)
        assert np.allclose(
            principal_angles(rotated, 0, 2), principal_angles(coll, 0, 2), atol=1e-9
        )
        assert spectral_distance(rotated, 1, 3) == pytest.approx(
            spectral_distance(coll, 1, 3), abs=1e-9
        )
        w = np.array([1.0, 2.0, 0.5, 1.5])
        fb0 = fusion_frame_bounds(coll, w)
        fb1 = fusion_frame_bounds(rotated, w)
        assert fb1.lower == pytest.approx(fb0.lower, abs=1e-9)
        assert fb1.upper == pytest.approx(fb0.upper, abs=1e-9)

    def test_angle_identity(self):
        coll = random_collection(8, 3, 5, seed=33)
        rep = coherence(coll)
        smallest = min(
            principal_angles(coll, i, j)[0]
            for i in range(5)
            for j in range(i + 1, 5)
        )
        assert rep.lambda_ == pytest.approx(math.cos(smallest), abs=1e-10)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        coll = random_collection(6, 2, 4, seed=77, label="demo")
        path = tmp_path / "coll.json"
        save_collection(coll, path)
        loaded = load_collection(path)
        assert loaded.label == "demo"
        for u, v in zip(coll.bases, loaded.bases):
            assert np.allclose(u, v, atol=1e-15)

    def test_nan_basis_rejected(self):
        # NaN fails every comparison, so the check tests what must hold
        with pytest.raises(OrthonormalityError, match="by nan"):
            SubspaceCollection((np.array([[math.nan], [0.0]]), np.array([[0.0], [1.0]])))

    def test_load_revalidates_orthonormality(self):
        coll = orthogonal_collection(4, 2, 2)
        doc = collection_to_dict(coll)
        doc["bases"][0][0] = 0.5
        with pytest.raises(OrthonormalityError):
            collection_from_dict(doc)

    def test_schema_errors(self):
        coll = orthogonal_collection(4, 2, 2)
        doc = collection_to_dict(coll)
        del doc["d"]
        with pytest.raises(SchemaError):
            collection_from_dict(doc)
        doc = collection_to_dict(coll)
        doc["version"] = 2
        with pytest.raises(SchemaError):
            collection_from_dict(doc)
        doc = collection_to_dict(coll)
        doc["bases"][0] = doc["bases"][0][:-1]
        with pytest.raises(SchemaError):
            collection_from_dict(doc)


def _bases_short_by_one():
    doc = collection_to_dict(random_collection(3, 1, 2, seed=0))
    doc["bases"] = doc["bases"][:1]
    return collection_from_dict(doc)


# case -> (the call, the error it raises, the error's message)
INPUT_CHECKS = {
    "collection_no_bases": (lambda: SubspaceCollection(()), InvalidDimsError,
                            "a collection needs at least one subspace"),
    "collection_vector_basis": (lambda: SubspaceCollection((np.ones(3),)), InvalidDimsError,
                                "basis 0 is not a matrix"),
    "collection_scalar_basis": (lambda: SubspaceCollection((1.0,)), InvalidDimsError,
                                "basis 0 is not a matrix"),
    "collection_later_scalar_basis": (lambda: SubspaceCollection((np.eye(2), 1.0)), InvalidDimsError,
                                      "basis 1 is not a matrix"),
    "collection_ambient_mismatch": (lambda: SubspaceCollection((np.eye(4)[:, :2], np.eye(3)[:, :2])),
                                    ShapeMismatchError, "basis 1 has shape (3, 2), expected (4, 2)"),
    "collection_unequal_columns": (lambda: SubspaceCollection((np.eye(3)[:, :1], np.eye(3)[:, :2])),
                                   ShapeMismatchError, "basis 1 has shape (3, 2), expected (3, 1)"),
    "collection_no_columns": (lambda: SubspaceCollection((np.zeros((3, 0)),)), InvalidDimsError,
                              "basis 0 has 0 columns, ambient 3"),
    "collection_more_columns_than_rows": (lambda: SubspaceCollection((np.ones((2, 3)),)), InvalidDimsError,
                                          "basis 0 has 3 columns, ambient 2"),
    "build_no_bases": (lambda: build_collection([]), InvalidDimsError, "a collection needs at least one subspace"),
    "build_vector_basis": (lambda: build_collection([np.ones(3)]), InvalidDimsError, "basis 0 is not a matrix"),
    "random_no_subspaces": (lambda: random_collection(3, 2, 0, seed=0), InvalidDimsError,
                            "need N >= 1 and k >= 1"),
    "random_no_columns": (lambda: random_collection(3, 0, 2, seed=0), InvalidDimsError,
                          "need N >= 1 and k >= 1"),
    "orthogonal_no_columns": (lambda: orthogonal_collection(4, 0, 2), InvalidDimsError,
                              "invalid dimensions d=4, k=0, N=2"),
    "orthogonal_k_above_d": (lambda: orthogonal_collection(2, 3, 1), InvalidDimsError,
                             "invalid dimensions d=2, k=3, N=1"),
    "angle_no_subspaces": (lambda: angle_family(2, 0, 0.3), InvalidDimsError, "need N >= 1 and k >= 1"),
    "random_float_d": (lambda: random_collection(4.0, 2, 3, 1), InvalidDimsError, "d=4.0 must be an integer"),
    "random_bool_N": (lambda: random_collection(4, 2, True, 1), InvalidDimsError, "N=True must be an integer"),
    "orthogonal_bool_k": (lambda: orthogonal_collection(6, True, 3), InvalidDimsError, "k=True must be an integer"),
    "orthogonal_float_N": (lambda: orthogonal_collection(6, 2, 3.0), InvalidDimsError, "N=3.0 must be an integer"),
    "angle_float_N": (lambda: angle_family(2, 3.0, 0.3), InvalidDimsError, "N=3.0 must be an integer"),
    "angle_bool_k": (lambda: angle_family(True, 3, 0.3), InvalidDimsError, "k=True must be an integer"),
    "packing_one_subspace": (lambda: packing_diameter(random_collection(3, 1, 1, seed=0)),
                             SingleSubspaceError, "packing diameter needs at least two subspaces"),
    "frame_bounds_nan_weight": (lambda: fusion_frame_bounds(orthogonal_collection(4, 2, 2), [1.0, math.nan]),
                                NonpositiveWeightError, "weights must be strictly positive and finite"),
    "frame_bounds_inf_weight": (lambda: fusion_frame_bounds(orthogonal_collection(4, 2, 2), [math.inf, 1.0]),
                                NonpositiveWeightError, "weights must be strictly positive and finite"),
    "from_dict_bases_count": (_bases_short_by_one, SchemaError, "bases: expected 2 bases"),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_input_checks(case):
    call, error, message = INPUT_CHECKS[case]
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
