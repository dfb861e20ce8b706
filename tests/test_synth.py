import math

import numpy as np
import pytest

from unmix import (
    GenerationFailed,
    InvalidInput,
    gen_abundances,
    gen_cube,
    gen_endmembers,
    linear_mix,
)
from unmix.synth import GroundTruth, SyntheticSpec


class TestGenAbundances:
    def test_dense_dirichlet_moments(self):
        X = gen_abundances(3, 10_000, seed=1).data
        np.testing.assert_allclose(X.mean(axis=1), 1.0 / 3.0, atol=0.01)

    def test_columns_sum_to_one_exactly(self):
        X = gen_abundances(5, 200, seed=2)
        assert X.tag == "fully_constrained"
        np.testing.assert_allclose(X.data.sum(axis=0), 1.0, atol=1e-15)

    def test_k_one_gives_unit_vectors(self):
        X = gen_abundances(6, 50, K=1, seed=3).data
        assert np.all(np.sort(X, axis=0)[-1] == 1.0)
        assert np.all((X == 0).sum(axis=0) == 5)

    def test_sparse_support_size(self):
        X = gen_abundances(62, 40, K=4, seed=4).data
        nnz = (X > 0).sum(axis=0)
        np.testing.assert_array_equal(nnz, 4)
        np.testing.assert_allclose(X.sum(axis=0), 1.0, atol=1e-15)

    def test_k_larger_than_r_rejected(self):
        with pytest.raises(InvalidInput):
            gen_abundances(3, 5, K=4, seed=0)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(K=0), "K"),
            (dict(K=-1), "K"),
            (dict(K=1.0), "K"),
            (dict(seed=-1), "seed"),
            (dict(seed=1.0), "seed"),
            (dict(T=4.5), "T"),
            (dict(R=True), "R"),
            (dict(R=np.float64(3.0)), "R"),
        ],
        ids=["K0", "K-1", "float_K", "seed-1", "float_seed", "float_T", "bool_R", "numpy_float_R"],
    )
    def test_rejects_bad_sizes_naming_the_field(self, kwargs, field):
        # K = 0 would draw empty supports and divide 0 by 0 in the column sums
        with pytest.raises(InvalidInput, match=field):
            gen_abundances(**{"R": 3, "T": 4, **kwargs})
        gen_abundances(np.int64(3), np.int32(4), K=np.int8(2), seed=np.uint64(5))

    def test_deterministic(self):
        np.testing.assert_array_equal(
            gen_abundances(4, 30, K=2, seed=9).data, gen_abundances(4, 30, K=2, seed=9).data
        )


class TestGenCube:
    def test_noiseless_lmm_is_exact_mixing(self):
        M = gen_endmembers(3, 30, seed=5)
        spec = SyntheticSpec(model="lmm", R=3, L=30, T=12, snr_db=math.inf, seed=6)
        Y, truth = gen_cube(M, spec)
        np.testing.assert_array_equal(Y.data, linear_mix(M, truth.X_true))
        assert truth.noise_sigma == 0.0
        assert truth.corrupted_bands == ()

    def test_ppnmm_reduces_to_lmm_when_b_is_zero(self):
        M = gen_endmembers(3, 25, seed=7)
        spec = SyntheticSpec(
            model="ppnmm", R=3, L=25, T=10, snr_db=math.inf, seed=8, b_range=(-1e-12, 1e-12)
        )
        Y, truth = gen_cube(M, spec)
        np.testing.assert_allclose(Y.data, linear_mix(M, truth.X_true), atol=1e-10)
        assert truth.b is not None and truth.b.shape == (10,)

    def test_ppnmm_b_range_respected(self):
        M = gen_endmembers(3, 25, seed=7)
        spec = SyntheticSpec(model="ppnmm", R=3, L=25, T=500, snr_db=math.inf, seed=9)
        _, truth = gen_cube(M, spec)
        assert truth.b.min() > -3.0 and truth.b.max() < 3.0
        assert truth.b.max() > 1.0 and truth.b.min() < -1.0

    def test_empirical_snr_within_band(self):
        M = gen_endmembers(3, 244, seed=10)
        spec = SyntheticSpec(model="lmm", R=3, L=244, T=225, snr_db=30.0, seed=11)
        Y, truth = gen_cube(M, spec)
        S = linear_mix(M, truth.X_true)
        N = Y.data - S
        snr = 10.0 * math.log10(float(np.sum(S * S)) / float(np.sum(N * N)))
        assert 29.8 <= snr <= 30.2

    def test_corrupted_bands_are_uniform_and_recorded(self):
        M = gen_endmembers(3, 60, seed=12)
        spec = SyntheticSpec(model="lmm", R=3, L=60, T=300, snr_db=25.0, n_corrupt=10, seed=13)
        Y, truth = gen_cube(M, spec)
        bands = truth.corrupted_bands
        assert len(bands) == 10 and len(set(bands)) == 10
        assert all(0 <= b < 60 for b in bands)
        assert list(bands) == sorted(bands)
        corrupted_rows = Y.data[list(bands), :]
        assert corrupted_rows.min() >= 0.0 and corrupted_rows.max() <= 1.0
        # replaced rows decorrelate from the clean signal
        S = linear_mix(M, truth.X_true)
        for b in bands:
            r = np.corrcoef(corrupted_rows[list(bands).index(b)], S[b])[0, 1]
            assert abs(r) < 0.1

    def test_bit_reproducible(self):
        M = gen_endmembers(4, 50, seed=14)
        spec = SyntheticSpec(model="ppnmm", R=4, L=50, T=30, snr_db=20.0, n_corrupt=5, seed=15)
        Y1, t1 = gen_cube(M, spec)
        Y2, t2 = gen_cube(M, spec)
        np.testing.assert_array_equal(Y1.data, Y2.data)
        np.testing.assert_array_equal(t1.X_true.data, t2.X_true.data)
        np.testing.assert_array_equal(t1.b, t2.b)
        assert t1.corrupted_bands == t2.corrupted_bands

    def test_spec_validation(self):
        with pytest.raises(InvalidInput):
            SyntheticSpec(model="gbm", R=3, L=10, T=5, snr_db=20.0)
        with pytest.raises(InvalidInput):
            SyntheticSpec(model="lmm", R=3, L=10, T=5, snr_db=20.0, n_corrupt=11)
        # counts and seeds are integers, not floats or bools, so that gen_cube
        # never reaches numpy with them
        for name, bad in (
            ("R", 3.0), ("L", 10.0), ("T", 5.5), ("T", True), ("n_corrupt", 1.0),
            ("sparsity_K", 2.0), ("sparsity_K", 0), ("seed", 1.0), ("seed", False),
        ):
            with pytest.raises(InvalidInput, match=name):
                SyntheticSpec(**{"model": "lmm", "R": 3, "L": 10, "T": 5, "snr_db": 20.0, name: bad})
        with pytest.raises(InvalidInput):
            GroundTruth(
                X_true=gen_abundances(2, 3), corrupted_bands=(3, 1), b=None, noise_sigma=0.1, seed=0
            )

    def test_spec_rejects_minus_inf_snr(self):
        # gen_cube reads an infinite SNR as noiseless; only +inf means that
        with pytest.raises(InvalidInput, match=r"\+inf"):
            SyntheticSpec(model="lmm", R=3, L=10, T=5, snr_db=-math.inf)

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0, math.nan])
    def test_spec_rejects_snr_out_of_float_range(self, snr_db):
        # 10^(snr_db/10) overflows, underflows to 0, or is nan
        with pytest.raises(InvalidInput, match="snr_db"):
            SyntheticSpec(model="lmm", R=3, L=10, T=5, snr_db=snr_db)

    def test_spec_rejects_negative_seed(self):
        with pytest.raises(InvalidInput, match="seed"):
            SyntheticSpec(model="lmm", R=3, L=10, T=5, snr_db=20.0, seed=-1)


class TestGenEndmembers:
    def test_shape_and_range(self):
        M = gen_endmembers(3, 244, seed=16)
        assert M.data.shape == (244, 3)
        assert M.data.min() >= 0.0 and M.data.max() <= 1.0

    def test_pairwise_angle_constraint(self):
        M = gen_endmembers(20, 244, seed=17, min_angle_deg=10.0).data
        for i in range(20):
            for j in range(i + 1, 20):
                cosang = M[:, i] @ M[:, j] / (np.linalg.norm(M[:, i]) * np.linalg.norm(M[:, j]))
                assert math.degrees(math.acos(min(1.0, cosang))) >= 10.0

    def test_deterministic(self):
        np.testing.assert_array_equal(
            gen_endmembers(5, 80, seed=18).data, gen_endmembers(5, 80, seed=18).data
        )

    def test_generation_failure_on_impossible_angle(self):
        with pytest.raises(GenerationFailed):
            gen_endmembers(12, 16, seed=19, min_angle_deg=85.0)

    def test_r_bounded_by_l(self):
        with pytest.raises(InvalidInput):
            gen_endmembers(10, 5, seed=0)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(R=3, seed=-1), "seed"),
            (dict(R=0), "R"),
            (dict(R=3, min_angle_deg=math.nan), "min_angle_deg"),
            (dict(R=3, min_angle_deg=-5.0), "min_angle_deg"),
            (dict(R=2.5), "R"),
            (dict(R=True), "R"),
            (dict(R=3, L=20.0), "L"),
            (dict(R=3, seed=0.5), "seed"),
        ],
        ids=["seed", "R", "nan_angle", "negative_angle", "float_R", "bool_R", "float_L", "float_seed"],
    )
    def test_rejects_bad_arguments_naming_the_field(self, kwargs, field):
        # a nan angle compares false, so it would silently accept every
        # candidate; a float or bool R would fix the count by the loop's test
        with pytest.raises(InvalidInput, match=field):
            gen_endmembers(**{"L": 20, **kwargs})
