import math
import tracemalloc

import numpy as np
import pytest

from unmix import (
    DimensionMismatch,
    InvalidInput,
    band_weights,
    gradient_full,
    gradient_reduced_f1,
    objective_C,
    objective_reduced_f1,
    reconstruct_full,
    reduce_abundances,
    residual_cache,
    validate_problem,
)
from unmix import correntropy

from conftest import random_problem
from oracles import central_difference_gradient, max_relative_error


def tiny_handle():
    return validate_problem(np.array([[1.0]]), np.array([[1.0]]))


class TestObjective:
    def test_zero_residual_single_band(self):
        h = tiny_handle()
        assert objective_C(h, np.array([[1.0]]), 1.0) == -1.0

    def test_two_band_hand_value(self):
        # band 1 exact, band 2 with squared residual norm 2*ln 2 at sigma=1:
        # C = -(1 + exp(-ln 2)) = -1.5
        M = np.array([[1.0], [1.0]])
        r = math.sqrt(2.0 * math.log(2.0))
        Y = np.array([[2.0], [2.0 + r]])
        X = np.array([[2.0]])
        h = validate_problem(Y, M)
        assert objective_C(h, X, 1.0) == pytest.approx(-1.5, rel=1e-12)

    def test_lower_bound(self, rng):
        for _ in range(20):
            h, M, X, Y = random_problem(rng, L=8, R=3, T=4, residual_scale=0.5)
            sigma = rng.uniform(0.1, 5.0)
            c = objective_C(h, rng.standard_normal(X.shape), sigma)
            assert -h.L <= c < 0

    def test_permutation_invariance(self, rng):
        h, M, X, Y = random_problem(rng, L=10, R=3, T=6, residual_scale=0.2)
        sigma = 0.8
        base = objective_C(h, X, sigma)
        perm_t = rng.permutation(h.T)
        h_pix = validate_problem(Y[:, perm_t], M)
        assert objective_C(h_pix, X[:, perm_t], sigma) == pytest.approx(base, rel=1e-12)
        perm_l = rng.permutation(h.L)
        h_band = validate_problem(Y[perm_l, :], M[perm_l, :])
        assert objective_C(h_band, X, sigma) == pytest.approx(base, rel=1e-12)

    def test_repeat_evaluation_bit_identical(self, rng):
        h, M, X, Y = random_problem(rng, L=12, R=4, T=5, residual_scale=0.3)
        assert objective_C(h, X, 0.7) == objective_C(h, X, 0.7)

    def test_shape_check(self, rng):
        h, M, X, Y = random_problem(rng, L=6, R=3, T=4)
        with pytest.raises(DimensionMismatch):
            objective_C(h, X[:2], 1.0)

    def test_monotone_in_residual_scale_for_large_sigma(self, rng):
        # residuals of X2 are an exact rescaling of those of X1; with sigma far
        # above every band residual the objective must order like the energies
        h, M, X0, Y = random_problem(rng, L=10, R=3, T=5)
        delta = 0.05 * rng.standard_normal(X0.shape)
        X1 = X0 + delta
        X2 = X0 + 2.0 * delta
        eps1 = Y - M @ X1
        max_band = np.sqrt((eps1**2).sum(axis=1)).max()
        sigma = 1e3 * max_band
        e1 = np.linalg.norm(eps1)
        e2 = np.linalg.norm(Y - M @ X2)
        assert e1 < e2
        assert objective_C(h, X1, sigma) < objective_C(h, X2, sigma)


class TestGradients:
    def test_zero_at_global_minimizer(self, rng):
        h, M, X, Y = random_problem(rng, L=8, R=3, T=4)
        np.testing.assert_allclose(gradient_full(h, X, 0.5), 0.0, atol=1e-14)

    def test_full_matches_central_differences(self, rng):
        for _ in range(10):
            sigma = rng.uniform(0.1, 5.0)
            h, M, X, Y = random_problem(rng, L=10, R=3, T=5, residual_scale=0.3 * sigma)
            G = gradient_full(h, X, sigma)
            G_fd = central_difference_gradient(lambda Z: objective_C(h, Z, sigma), X)
            assert max_relative_error(G_fd, G) < 1e-6

    def test_large_sigma_limit_is_least_squares_gradient(self, rng):
        h, M, X, Y = random_problem(rng, L=10, R=3, T=5, residual_scale=0.05)
        sigma = 1e6
        G = gradient_full(h, X, sigma)
        G_ls = (1.0 / sigma**2) * (M.T @ (M @ X - Y))
        assert max_relative_error(G, G_ls) < 1e-3

    def test_reduced_matches_central_differences(self, rng):
        for _ in range(10):
            sigma = rng.uniform(0.1, 5.0)
            h, M, X, Y = random_problem(rng, L=8, R=3, T=4, residual_scale=0.3 * sigma)
            Xr = X[:-1] + 0.1 * rng.standard_normal((h.R - 1, h.T))
            G = gradient_reduced_f1(h, Xr, sigma)
            G_fd = central_difference_gradient(
                lambda Z: objective_reduced_f1(h, Z, sigma), Xr
            )
            assert max_relative_error(G_fd, G) < 1e-6

    def test_reduced_gradient_is_chain_rule_of_full(self, rng):
        h, M, X, Y = random_problem(rng, L=9, R=4, T=3, residual_scale=0.2)
        Xr = X[:-1]
        G_red = gradient_reduced_f1(h, Xr, 0.9)
        G_full = gradient_full(h, reconstruct_full(Xr), 0.9)
        np.testing.assert_array_equal(G_red, G_full[:-1] - G_full[-1:])


class TestReducedForm:
    def test_objective_equals_full_at_reconstruction(self, rng):
        h, M, X, Y = random_problem(rng, L=8, R=2, T=5, residual_scale=0.3)
        Xr = rng.standard_normal((1, 5))
        f1 = objective_reduced_f1(h, Xr, 1.1)
        c = objective_C(h, reconstruct_full(Xr), 1.1)
        assert f1 == c

    def test_all_zero_reduced_is_pure_last_endmember(self, rng):
        h, M, X, Y = random_problem(rng, L=6, R=3, T=4, residual_scale=0.1)
        Xr = np.zeros((2, 4))
        full = reconstruct_full(Xr)
        np.testing.assert_array_equal(full[-1], np.ones(4))
        assert objective_reduced_f1(h, Xr, 0.8) == pytest.approx(
            objective_C(h, full, 0.8), rel=1e-12
        )

    def test_zero_residual_reaches_lower_bound(self, rng):
        h, M, X, Y = random_problem(rng, L=7, R=3, T=4)
        assert objective_reduced_f1(h, X[:-1], 1.3) == pytest.approx(-h.L, rel=1e-12)

    def test_reconstruction_columns_sum_to_one(self, rng):
        Xr = rng.standard_normal((3, 8))
        np.testing.assert_allclose(reconstruct_full(Xr).sum(axis=0), 1.0, atol=1e-12)

    def test_reduce_then_reconstruct_roundtrip(self, rng):
        X = rng.dirichlet(np.ones(4), size=6).T
        np.testing.assert_allclose(reconstruct_full(reduce_abundances(X)), X, atol=1e-15)


class TestBandWeights:
    def test_zero_residual_band_weight_one(self, rng):
        h, M, X, Y = random_problem(rng, L=5, R=2, T=3)
        np.testing.assert_allclose(band_weights(h, X, 0.4), 1.0, atol=1e-15)

    def test_hand_value_point_one(self):
        # a single band whose residual energy is 2 sigma^2 ln 10
        sigma = 0.7
        energy = 2.0 * sigma**2 * math.log(10.0)
        M = np.array([[1.0]])
        Y = np.array([[math.sqrt(energy)]])
        h = validate_problem(Y, M)
        w = band_weights(h, np.array([[0.0]]), sigma)
        assert w[0] == pytest.approx(0.1, rel=1e-12)

    def test_weights_in_unit_interval(self, rng):
        h, M, X, Y = random_problem(rng, L=10, R=3, T=5, residual_scale=0.5)
        w = band_weights(h, X, 0.3)
        assert np.all(w >= 0) and np.all(w <= 1)

    def test_cache_consistency(self, rng):
        h, M, X, Y = random_problem(rng, L=6, R=2, T=4, residual_scale=0.2)
        cache = residual_cache(h, X, 0.6)
        recomputed = Y - M @ X
        assert np.max(np.abs(cache.eps - recomputed)) <= 1e-12 * max(
            1.0, np.max(np.abs(recomputed))
        )


KERNEL_PAIRS = [
    (objective_C, gradient_full, lambda X: X),
    (objective_reduced_f1, gradient_reduced_f1, lambda X: X[:-1, :]),
]


class TestKernelPassReuse:
    """An objective hands its kernel pass to the gradient at the same point;
    the shared pass changes no bit of either result."""

    @pytest.mark.parametrize("objective, gradient, variables", KERNEL_PAIRS, ids=["full", "reduced"])
    @pytest.mark.parametrize("workspace", [False, True], ids=["new-arrays", "workspace"])
    def test_objective_with_its_cache_returns_the_same_bits(
        self, objective, gradient, variables, workspace, rng
    ):
        h, M, X, Y = random_problem(rng, L=37, R=4, T=23, residual_scale=0.4)
        V = variables(X + 0.05 * rng.standard_normal(X.shape))
        out = np.empty((h.L, h.T)) if workspace else None
        value, cache = objective(h, V, 0.5, return_cache=True, out=out)
        assert value == objective(h, V, 0.5)
        assert value == -float(np.sum(cache.band_weights))
        assert cache.eps.shape == (h.L, h.T)
        # the cache holds the full matrix of its pass: the input array itself,
        # or the reconstruction of the reduced variables
        if objective is objective_C:
            assert cache.X is V
        else:
            np.testing.assert_array_equal(cache.X, reconstruct_full(V))
        if workspace:
            assert np.shares_memory(cache.eps, out)

    @pytest.mark.parametrize("objective, gradient, variables", KERNEL_PAIRS, ids=["full", "reduced"])
    @pytest.mark.parametrize("workspace", [False, True], ids=["new-arrays", "workspace"])
    def test_gradient_from_the_cache_returns_the_same_bits(
        self, objective, gradient, variables, workspace, rng
    ):
        h, M, X, Y = random_problem(rng, L=37, R=4, T=23, residual_scale=0.4)
        V = variables(X + 0.05 * rng.standard_normal(X.shape))
        out = np.empty((h.L, h.T)) if workspace else None
        _, cache = objective(h, V, 0.5, return_cache=True, out=out)
        eps = cache.eps.copy()
        expected = gradient(h, V, 0.5)
        G = gradient(h, V, 0.5, cache=cache, out=out)
        np.testing.assert_array_equal(G, expected)
        # the cache survives the gradient, so a second one reads it again
        np.testing.assert_array_equal(cache.eps, eps)
        np.testing.assert_array_equal(gradient(h, V, 0.5, cache=cache, out=out), expected)

    def test_cache_or_workspace_of_another_shape_is_rejected(self, rng):
        h, M, X, Y = random_problem(rng, L=12, R=3, T=5)
        h_other, _, X_other, _ = random_problem(rng, L=13, R=3, T=5)
        _, cache = objective_C(h_other, X_other, 0.5, return_cache=True)
        with pytest.raises(DimensionMismatch):
            gradient_full(h, X, 0.5, cache=cache)
        # the residual buffer is float64 of shape (L, T); the (2, L, T)
        # workspace of earlier versions is rejected too
        for out in (np.empty((13, 5)), np.empty((12, 5), dtype=np.float32), np.empty((2, 12, 5))):
            with pytest.raises(DimensionMismatch):
                objective_C(h, X, 0.5, out=out)


class TestLeanKernelPass:
    """A pass forms its band energies as one row-dot and the gradient as one
    product with the band weights folded into M': no L x T temporary, and
    results within rounding of the elementwise forms."""

    @staticmethod
    def recorded_energies(monkeypatch):
        """The band energies of every kernel pass made after the call."""
        seen, real = [], np.einsum

        def spy(subscripts, *operands, **kwargs):
            result = real(subscripts, *operands, **kwargs)
            if subscripts == "ij,ij->i":
                seen.append(result.copy())
            return result

        monkeypatch.setattr(correntropy.np, "einsum", spy)
        return seen

    @pytest.mark.parametrize("objective, gradient, variables", KERNEL_PAIRS, ids=["full", "reduced"])
    def test_a_pass_and_its_gradient_make_no_L_by_T_temporary(
        self, objective, gradient, variables, rng
    ):
        h, M, X, Y = random_problem(rng, L=200, R=3, T=2000, residual_scale=0.1)
        V = variables(X)
        buf = np.empty((h.L, h.T))
        objective(h, V, 0.5, return_cache=True, out=buf)  # first-call set-up
        tracemalloc.start()
        try:
            _, cache = objective(h, V, 0.5, return_cache=True, out=buf)
            G = gradient(h, V, 0.5, cache=cache)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert G.shape == V.shape
        # a weighted residual w * eps or a squares buffer would be L * T * 8 bytes
        assert peak < h.L * h.T * 8 / 2

    def test_band_energies_are_the_row_sums_of_squares_within_rounding(self, rng, monkeypatch):
        h, M, X, Y = random_problem(rng, L=244, R=3, T=2500, residual_scale=0.1)
        sigma = 2.0
        seen = self.recorded_energies(monkeypatch)
        _, cache = objective_C(h, X, sigma, return_cache=True)
        assert len(seen) == 1
        np.testing.assert_allclose(seen[0], np.sum(cache.eps * cache.eps, axis=1), rtol=4e-15, atol=0)
        np.testing.assert_array_equal(cache.band_weights, np.exp(-seen[0] / (2.0 * sigma**2)))

    def test_band_energies_do_not_depend_on_where_the_buffer_starts(self, rng, monkeypatch):
        # reruns in other processes get other addresses; every 8-byte offset
        # into a 64-byte line gives the same bits
        h, M, X, Y = random_problem(rng, L=244, R=3, T=2500, residual_scale=0.1)
        seen = self.recorded_energies(monkeypatch)
        results = []
        for k in range(8):
            big = np.empty(h.L * h.T + 8)
            buf = big[k : k + h.L * h.T].reshape(h.L, h.T)
            value, cache = objective_C(h, X, 2.0, return_cache=True, out=buf)
            assert np.shares_memory(cache.eps, buf)
            results.append((value, cache.band_weights))
        assert len(seen) == 8
        for energies, (value, weights) in zip(seen[1:], results[1:]):
            np.testing.assert_array_equal(energies, seen[0])
            np.testing.assert_array_equal(weights, results[0][1])
            assert value == results[0][0]

    @pytest.mark.parametrize("objective, gradient, variables", KERNEL_PAIRS, ids=["full", "reduced"])
    def test_gradient_matches_the_weighted_residual_form_within_rounding(
        self, objective, gradient, variables, rng
    ):
        h, M, X, Y = random_problem(rng, L=244, R=5, T=300, residual_scale=0.1)
        sigma = 0.8
        V = variables(X + 0.05 * rng.standard_normal(X.shape))
        _, cache = objective(h, V, sigma, return_cache=True)
        w, eps = cache.band_weights, cache.eps
        expected = -(M.T @ (w[:, np.newaxis] * eps)) / sigma**2
        if objective is objective_reduced_f1:
            expected = expected[:-1] - expected[-1:]
        G = gradient(h, V, sigma, cache=cache)
        # each form's sums of L products err by at most about L u times the
        # sum of the products' magnitudes
        scale = (np.abs(M.T) * w) @ np.abs(eps) / sigma**2
        if objective is objective_reduced_f1:
            scale = scale[:-1] + scale[-1:]
        bound = 2 * h.L * np.finfo(float).eps * scale
        assert np.all(np.abs(G - expected) <= bound)


# bandwidths whose 2 sigma^2 overflows, underflows to 0, or is subnormal (then
# the gradient's 1 / sigma^2 overflows)
OUT_OF_RANGE_SIGMAS = [1e170, 1e-200, 1e-155]


class TestBandwidthRange:
    @pytest.mark.parametrize("sigma", OUT_OF_RANGE_SIGMAS)
    @pytest.mark.parametrize("objective, gradient, variables", KERNEL_PAIRS, ids=["full", "reduced"])
    def test_sigma_with_2_sigma_squared_out_of_float_range_is_invalid(
        self, objective, gradient, variables, sigma, rng
    ):
        h, M, X, Y = random_problem(rng, L=6, R=3, T=4, residual_scale=0.2)
        V = variables(X)
        _, cache = objective(h, V, 0.5, return_cache=True)
        for call in (
            lambda: objective(h, V, sigma),
            lambda: gradient(h, V, sigma),
            lambda: gradient(h, V, sigma, cache=cache),
            lambda: residual_cache(h, X, sigma),
        ):
            with pytest.raises(InvalidInput, match="sigma"):
                call()
