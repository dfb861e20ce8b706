import functools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from unmix import (
    DimensionMismatch,
    NonFiniteData,
    UndefinedMetric,
    ZeroNormSpectrum,
    evaluate_metric,
    rmse,
    sad,
    sre_db,
)
from unmix.metrics import LOWER_IS_BETTER, MetricResult


class TestRmse:
    def test_identity(self, rng):
        X = rng.uniform(size=(3, 7))
        assert rmse(X, X) == 0.0

    def test_constant_offset(self, rng):
        X = rng.uniform(size=(4, 6))
        c = 0.37
        assert rmse(X, X + c) == pytest.approx(c, rel=1e-12)

    def test_hand_value(self):
        X = np.array([[0.3], [0.7]])
        Xh = np.array([[0.5], [0.5]])
        assert rmse(X, Xh) == pytest.approx(0.2, rel=1e-12)

    def test_symmetry_and_norm_axioms(self, rng):
        A, B, C = (rng.uniform(size=(3, 5)) for _ in range(3))
        assert rmse(A, B) == rmse(B, A)
        assert rmse(A, C) <= rmse(A, B) + rmse(B, C) + 1e-15
        assert rmse(A, B) >= 0

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            rmse(rng.uniform(size=(3, 5)), rng.uniform(size=(3, 4)))


class TestSre:
    def test_zero_error_is_infinite(self, rng):
        X = rng.uniform(size=(3, 4))
        assert sre_db(X, X.copy()) == math.inf

    def test_equal_energy_is_zero_db(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        Xh = np.array([[0.0, 0.0], [0.0, 0.0]])
        assert sre_db(X, Xh) == pytest.approx(0.0, abs=1e-12)

    def test_hundredth_error_is_twenty_db(self):
        X = np.array([[1.0], [0.0]])
        Xh = X + np.array([[0.1], [0.0]])
        assert sre_db(X, Xh) == pytest.approx(20.0, rel=1e-12)

    def test_error_scaling_shifts_by_twenty_db(self, rng):
        X = rng.uniform(size=(4, 5))
        E = 0.01 * rng.standard_normal((4, 5))
        assert sre_db(X, X + 10 * E) == pytest.approx(sre_db(X, X + E) - 20.0, rel=1e-12)

    def test_all_zero_reference_rejected(self):
        with pytest.raises(UndefinedMetric):
            sre_db(np.zeros((2, 2)), np.ones((2, 2)))


class TestSad:
    def test_identity_is_zero(self, rng):
        Y = rng.uniform(0.1, 1.0, size=(10, 6))
        assert sad(Y, Y.copy()) == pytest.approx(0.0, abs=1e-7)

    def test_scale_invariance(self, rng):
        Y = rng.uniform(0.1, 1.0, size=(10, 6))
        assert sad(Y, 2.0 * Y) == pytest.approx(0.0, abs=1e-7)
        scales = rng.uniform(0.5, 3.0, size=6)
        base = sad(Y, Y + 0.05)
        assert sad(Y, (Y + 0.05) * scales[np.newaxis, :]) == pytest.approx(base, rel=1e-9)

    def test_orthogonal_columns(self):
        Y = np.array([[1.0], [0.0]])
        Yh = np.array([[0.0], [1.0]])
        assert sad(Y, Yh) == pytest.approx(math.pi / 2, rel=1e-12)

    def test_exclusion_drops_bands(self, rng):
        Y = rng.uniform(0.1, 1.0, size=(8, 5))
        Yh = Y.copy()
        Yh[2, :] = 5.0  # corrupt one band of the estimate
        assert sad(Y, Yh) > 1e-3
        assert sad(Y, Yh, exclude_bands=[2]) == pytest.approx(0.0, abs=1e-7)

    def test_zero_norm_spectrum_rejected(self):
        Y = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ZeroNormSpectrum):
            sad(Y, Y.copy())

    def test_clamping_handles_rounding(self):
        v = np.full((3, 1), 0.577350269189625731)
        assert sad(v, v * 3.0000000000000004) >= 0.0


class TestScaleRange:
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_huge_and_tiny_scales_leave_sre_and_sad_unchanged(self, rng, scale):
        A = rng.uniform(0.1, 1.0, size=(6, 5))
        B = A + 0.05 * rng.standard_normal((6, 5))
        assert sre_db(scale * A, scale * B) == pytest.approx(sre_db(A, B), rel=1e-12)
        assert sad(scale * A, scale * B) == pytest.approx(sad(A, B), rel=1e-12)

    def test_power_of_two_scaling_is_exact(self, rng):
        A = rng.uniform(0.1, 1.0, size=(6, 5))
        B = A + 0.05 * rng.standard_normal((6, 5))
        assert sre_db(2.0**600 * A, 2.0**600 * B) == sre_db(A, B)
        assert sad(2.0**-600 * A, 2.0**-600 * B) == sad(A, B)

    def test_sre_of_an_estimate_that_dwarfs_the_reference(self):
        # the squared error overflows float64; 10 log10(4 / (4 * 1e600)) = -6000 dB
        assert sre_db(np.ones((2, 2)), np.full((2, 2), 1e300)) == pytest.approx(-6000.0, rel=1e-12)
        assert sre_db(np.full((2, 2), 1e-300), np.full((2, 2), 1e300)) == pytest.approx(-12000.0, rel=1e-12)


class TestMetricResult:
    def test_evaluate_dispatch(self, rng):
        X = rng.uniform(size=(3, 7))
        res = evaluate_metric("RMSE", X, X)
        assert res == MetricResult("RMSE", 0.0, 7)
        assert evaluate_metric("SRE_dB", X, X).value == math.inf
        assert evaluate_metric("SAD_rad", X + 1.0, X + 1.0).value == pytest.approx(0.0, abs=1e-7)

    def test_invalid_values_rejected(self):
        with pytest.raises(Exception):
            MetricResult("RMSE", -0.1, 3)
        with pytest.raises(Exception):
            MetricResult("SAD_rad", 4.0, 3)
        with pytest.raises(Exception):
            MetricResult("NOPE", 0.0, 3)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_sre_infinite_only_at_zero_error(self, scale):
        X = np.array([[1.0], [2.0]])
        val = sre_db(X, X + scale * np.array([[1.0], [-0.5]]))
        assert math.isfinite(val)


# every metric entry point, each taking (truth, estimate)
METRIC_CALLS = {
    "rmse": rmse,
    "sre_db": sre_db,
    "sad": sad,
    **{f"evaluate-{name}": functools.partial(evaluate_metric, name) for name in LOWER_IS_BETTER},
}


class TestMemoryLayout:
    # the same values give the same bits whether either matrix is row- or
    # column-major: a whole-matrix sum runs in memory order
    @pytest.mark.parametrize("metric", [rmse, sre_db, sad], ids=["rmse", "sre_db", "sad"])
    def test_column_major_inputs_give_the_same_bits(self, metric):
        F = np.asfortranarray
        for seed in range(20):
            rng = np.random.default_rng(seed)
            A = rng.uniform(size=(4, 7))
            B = A + 1e-3 * rng.standard_normal((4, 7))
            expected = metric(A, B).hex()
            for pair in ((F(A), B), (A, F(B)), (F(A), F(B))):
                assert metric(*pair).hex() == expected


class TestNonFiniteInput:
    # a NaN or infinite entry in either matrix is named, not turned into a value
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("side", [0, 1], ids=["truth", "estimate"])
    @pytest.mark.parametrize("metric", METRIC_CALLS.values(), ids=list(METRIC_CALLS))
    def test_non_finite_entry_raises(self, metric, side, bad, rng):
        pair = [rng.uniform(0.1, 1.0, size=(4, 3)) for _ in range(2)]
        pair[side][2, 1] = bad
        with pytest.raises(NonFiniteData, match="finite"):
            metric(*pair)
