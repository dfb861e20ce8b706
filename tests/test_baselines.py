import warnings

import numpy as np
import pytest

from unmix import (
    InvalidInput,
    MaxItersWarning,
    NonFiniteIterate,
    RankDeficiencyWarning,
    SingularNormalEquations,
    SolverConfig,
    SyntheticSpec,
    baselines,
    gen_cube,
    gen_endmembers,
    project_nonnegative,
    rmse,
    solve_fcls,
    solve_ls,
    soft_threshold,
    solve_sunsal_sparse,
    validate_problem,
)

from conftest import count_factorizations, random_problem
from oracles import (
    fcls_kkt_residual,
    nnls_enumeration,
    simplex_ls_enumeration,
    sparse_prox_fixed_point_residual,
)


class TestSolveLS:
    def test_identity_endmembers(self, rng):
        Y = rng.uniform(size=(4, 6))
        h = validate_problem(Y, np.eye(4))
        np.testing.assert_array_equal(solve_ls(h).data, Y)

    def test_consistent_system_recovers_truth(self, rng):
        h, M, X, Y = random_problem(rng, L=30, R=4, T=7)
        np.testing.assert_allclose(solve_ls(h).data, X, atol=1e-10)

    def test_normal_equation_orthogonality(self, rng):
        h, M, X, Y = random_problem(rng, L=25, R=5, T=9, residual_scale=0.4)
        X_ls = solve_ls(h).data
        resid = np.abs(M.T @ (Y - M @ X_ls)).max()
        assert resid < 1e-10 * np.linalg.norm(M) * np.linalg.norm(Y)

    def test_pixel_separable_bitwise(self, rng):
        h, M, X, Y = random_problem(rng, L=18, R=3, T=8, residual_scale=0.3)
        X_full = solve_ls(h).data
        for t in range(h.T):
            ht = validate_problem(Y[:, [t]], M)
            np.testing.assert_array_equal(solve_ls(ht).data[:, 0], X_full[:, t])

    def test_pixel_separable_bitwise_at_batched_blas_failure_shape(self, rng):
        # a batched BLAS triangular solve was off by 4.4e-16 at this shape
        h, M, X, Y = random_problem(rng, L=213, R=16, T=307, residual_scale=0.3)
        X_full = solve_ls(h).data
        for t in range(h.T):
            np.testing.assert_array_equal(solve_ls(validate_problem(Y[:, [t]], M)).data[:, 0], X_full[:, t])
        for k in (2, 5, 64, 306):
            np.testing.assert_array_equal(solve_ls(validate_problem(Y[:, :k], M)).data, X_full[:, :k])

    def test_pixel_separable_bitwise_at_one_endmember(self, rng):
        # numpy sums a reduction over single-entry rows pairwise, not in band
        # order: a lone pixel with one endmember is the shape that shows it
        for _ in range(20):
            L = int(rng.integers(20, 200))
            M = rng.uniform(0.05, 1.0, size=(L, 1))
            Y = rng.standard_normal((L, 5)) * 10.0 ** rng.uniform(-3, 3, size=(L, 1))
            Q, s, Vt = np.linalg.svd(M, full_matrices=False)
            X_full = solve_ls(validate_problem(Y, M)).data
            for t in range(5):
                sequential = 0.0
                for l in range(L):
                    sequential += Q[l, 0] * Y[l, t]
                assert X_full[0, t] == sequential * (Vt[0, 0] / s[0])
                assert solve_ls(validate_problem(Y[:, [t]], M)).data[0, 0] == X_full[0, t]

    def test_matches_lstsq(self, rng):
        M = rng.standard_normal((150, 12))
        Y = rng.standard_normal((150, 40))
        ref = np.linalg.lstsq(M, Y, rcond=None)[0]
        np.testing.assert_allclose(solve_ls(validate_problem(Y, M)).data, ref, rtol=1e-12, atol=0)

    def test_singular_matrix_raises(self, rng):
        m = rng.uniform(size=(10, 1))
        M = np.hstack([m, m])
        with pytest.warns(UserWarning):
            h = validate_problem(rng.uniform(size=(10, 3)), M)
        with pytest.raises(SingularNormalEquations):
            solve_ls(h)


class TestSolveFCLS:
    def test_pure_pixel_hits_vertex(self, rng):
        h, M, X, Y = random_problem(rng, L=20, R=3, T=1)
        h_pure = validate_problem(M[:, [1]], M)
        x = solve_fcls(h_pure).data[:, 0]
        np.testing.assert_allclose(x, [0.0, 1.0, 0.0], atol=1e-6)

    def test_noise_free_interior_recovery(self, rng):
        h, M, X, Y = random_problem(rng, L=30, R=4, T=6)
        np.testing.assert_allclose(solve_fcls(h).data, X, atol=1e-6)

    def test_feasibility(self, rng):
        h, M, X, Y = random_problem(rng, L=15, R=4, T=10, residual_scale=0.3)
        out = solve_fcls(h).data
        assert out.min() >= -1e-9
        np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-9)

    def test_kkt_residual_per_pixel(self, rng):
        h, M, X, Y = random_problem(rng, L=12, R=4, T=8, residual_scale=0.5)
        out = solve_fcls(h).data
        for t in range(h.T):
            assert fcls_kkt_residual(M, Y[:, t], out[:, t]) < 1e-6

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(5):
            h, M, X, Y = random_problem(rng, L=10, R=4, T=5, residual_scale=0.6)
            out = solve_fcls(h).data
            for t in range(h.T):
                expected = simplex_ls_enumeration(M, Y[:, t])
                np.testing.assert_allclose(out[:, t], expected, atol=1e-6)

    def test_objective_beats_projected_ls_start(self, rng):
        h, M, X, Y = random_problem(rng, L=14, R=3, T=6, residual_scale=0.4)
        out = solve_fcls(h).data
        start = np.maximum(solve_ls(h).data, 0.0)
        start /= start.sum(axis=0)
        assert np.linalg.norm(Y - M @ out) <= np.linalg.norm(Y - M @ start) + 1e-12

    def test_beats_random_feasible_points(self, rng):
        h, M, X, Y = random_problem(rng, L=10, R=3, T=4, residual_scale=0.5)
        out = solve_fcls(h).data
        obj = ((Y - M @ out) ** 2).sum(axis=0)
        for _ in range(100):
            cand = rng.dirichlet(np.ones(h.R), size=h.T).T
            cand_obj = ((Y - M @ cand) ** 2).sum(axis=0)
            assert np.all(obj <= cand_obj + 1e-10)


def test_ls_beats_random_points(rng):
    h, M, X, Y = random_problem(rng, L=10, R=3, T=4, residual_scale=0.5)
    out = solve_ls(h).data
    obj = ((Y - M @ out) ** 2).sum(axis=0)
    for _ in range(100):
        cand = rng.standard_normal((h.R, h.T))
        assert np.all(obj <= ((Y - M @ cand) ** 2).sum(axis=0) + 1e-10)


class TestSolveSunsalSparse:
    def test_lambda_zero_matches_nnls_oracle(self, rng):
        for _ in range(5):
            h, M, X, Y = random_problem(rng, L=10, R=4, T=5, residual_scale=0.6)
            out = solve_sunsal_sparse(h, 0.0).data
            for t in range(h.T):
                expected = nnls_enumeration(M, Y[:, t])
                np.testing.assert_allclose(out[:, t], expected, atol=1e-6)

    def test_lambda_zero_matches_scipy_nnls(self, rng):
        from scipy.optimize import nnls as scipy_nnls

        h, M, X, Y = random_problem(rng, L=12, R=4, T=6, residual_scale=0.5)
        out = solve_sunsal_sparse(h, 0.0).data
        for t in range(h.T):
            expected, _ = scipy_nnls(M, Y[:, t])
            np.testing.assert_allclose(out[:, t], expected, atol=1e-6)

    def test_huge_lambda_gives_zero(self, rng):
        h, M, X, Y = random_problem(rng, L=10, R=3, T=4)
        out = solve_sunsal_sparse(h, 1e6).data
        np.testing.assert_array_equal(out, 0.0)

    def test_prox_fixed_point(self, rng):
        h, M, X, Y = random_problem(rng, L=12, R=4, T=5, residual_scale=0.4)
        lam = 1e-2
        out = solve_sunsal_sparse(h, lam).data
        for t in range(h.T):
            assert sparse_prox_fixed_point_residual(M, Y[:, t], out[:, t], lam) < 1e-6

    def test_single_endmember_support_recovery(self, rng):
        h, M, X, Y = random_problem(rng, L=40, R=4, T=1)
        y = M[:, 2] + 0.001 * rng.standard_normal(40)
        h1 = validate_problem(y[:, None], M)
        out = solve_sunsal_sparse(h1, 1e-2).data[:, 0]
        assert np.flatnonzero(out > 1e-4).tolist() == [2]

    def test_nonnegative_output(self, rng):
        h, M, X, Y = random_problem(rng, L=10, R=3, T=6, residual_scale=0.8)
        assert solve_sunsal_sparse(h, 1e-3).data.min() >= 0.0

    def test_beats_random_feasible_points(self, rng):
        h, M, X, Y = random_problem(rng, L=10, R=3, T=4, residual_scale=0.5)
        lam = 5e-3
        out = solve_sunsal_sparse(h, lam).data
        obj = ((Y - M @ out) ** 2).sum(axis=0) + lam * np.abs(out).sum(axis=0)
        for _ in range(100):
            cand = np.abs(rng.standard_normal((h.R, h.T)))
            cand_obj = ((Y - M @ cand) ** 2).sum(axis=0) + lam * np.abs(cand).sum(axis=0)
            assert np.all(obj <= cand_obj + 1e-10)


@pytest.mark.parametrize(
    "solve, simplex",
    [(solve_fcls, True), (lambda h: solve_sunsal_sparse(h, 0.0), False)],
    ids=["fcls", "sunsal-sparse"],
)
def test_capped_solve_returns_tagged_feasible_result(monkeypatch, solve, simplex):
    # 5 iterations leave the equality-exact fcls iterate up to ~1.4e-4 below
    # 0, and end before the first polish try at iteration 10 (both solves
    # are polished there)
    M = gen_endmembers(3, 120, seed=0).data
    spec = SyntheticSpec(model="lmm", R=3, L=120, T=200, snr_db=30.0, n_corrupt=20, seed=1)
    Y, _ = gen_cube(M, spec)
    h = validate_problem(Y, M)
    monkeypatch.setattr(baselines, "_BASELINE_MAX_ITERS", 5)
    with pytest.warns(MaxItersWarning):
        out = solve(h)
    assert out.tag == ("fully_constrained" if simplex else "nonnegative")
    assert out.data.min() >= 0.0
    if simplex:
        np.testing.assert_allclose(out.data.sum(axis=0), 1.0, atol=1e-12)


def test_ill_conditioned_cube_converges_to_kkt_point():
    # R=20 endmembers at 10-degree separation: the mean-eigenvalue penalty
    # stalled both solves at the iteration cap, 1.2e-5 from a KKT point
    M = gen_endmembers(20, 244, seed=0).data
    spec = SyntheticSpec(model="lmm", R=20, L=244, T=20, snr_db=30.0, n_corrupt=10, seed=1)
    Y = gen_cube(M, spec)[0].data
    h = validate_problem(Y, M)
    X_fc = solve_fcls(h).data
    X_nn = solve_sunsal_sparse(h, 0.0).data
    for t in range(h.T):
        assert fcls_kkt_residual(M, Y[:, t], X_fc[:, t]) < 1e-6
        assert sparse_prox_fixed_point_residual(M, Y[:, t], X_nn[:, t], 0.0) < 1e-6


@pytest.mark.parametrize(
    "solve", [solve_fcls, lambda h: solve_sunsal_sparse(h, 0.0)], ids=["fcls", "sunsal-sparse"]
)
def test_duplicated_endmember_raises(solve):
    rng = np.random.default_rng(0)
    m = rng.uniform(size=(10, 1))
    with pytest.warns(UserWarning):
        h = validate_problem(rng.uniform(size=(10, 3)), np.hstack([m, m, rng.uniform(size=(10, 1))]))
    with pytest.raises(SingularNormalEquations):
        solve(h)


@pytest.mark.parametrize(
    "solve",
    [solve_ls, solve_fcls, lambda h: solve_sunsal_sparse(h, 0.0)],
    ids=["ls", "fcls", "sunsal-sparse"],
)
@pytest.mark.parametrize("eps, solves", [(1e-12, True), (1e-13, False)], ids=["solves", "raises"])
def test_near_collinear_endmembers_solve_or_raise_at_the_singular_value_threshold(solve, eps, solves):
    # the third column is the first plus eps d: s_min / s_max of M is about
    # 2.8e-13 at eps 1e-12 and 2.8e-14 at eps 1e-13, on either side of the
    # 1e-13 that every baseline applies to the singular values of M
    rng = np.random.default_rng(0)
    base, d = rng.uniform(size=(40, 2)), rng.uniform(size=40)
    M = np.column_stack([base, base[:, 0] + eps * d])
    s = np.linalg.svd(M, compute_uv=False)
    assert 2e-13 < s[-1] / s[0] / (eps / 1e-12) < 4e-13
    with pytest.warns(RankDeficiencyWarning):
        h = validate_problem(M @ rng.dirichlet(np.ones(3), size=12).T, M)
    if not solves:
        with pytest.raises(SingularNormalEquations):
            solve(h)
        return
    # whether this ill-posed solve converges or runs to its cap depends on
    # the BLAS's rounding, so the cap's warning is allowed
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MaxItersWarning)
        X = solve(h).data
    assert np.isfinite(X).all()


def test_baselines_fit_no_least_squares(monkeypatch, rng):
    # the ADMM set-up takes its own start from its SVD of M, so it neither
    # calls solve_ls nor fills the handle's cached least-squares fit
    ls_calls = []
    real_ls = baselines.solve_ls

    def counted_ls(*args, **kwargs):
        ls_calls.append(1)
        return real_ls(*args, **kwargs)

    monkeypatch.setattr(baselines, "solve_ls", counted_ls)
    for solve in (solve_fcls, lambda h: solve_sunsal_sparse(h, 1e-3)):
        h, M, X, Y = random_problem(rng, L=20, R=3, T=12)
        solve(h)
        assert ls_calls == []
        assert "least_squares" not in h.__dict__


def test_one_svd_of_m_per_problem(monkeypatch):
    # the rank warning, least squares, both baselines and the tuned solver
    # (its least-squares warm start and starting bandwidth) all read the
    # handle's one SVD
    from unmix import SolverConfig, cusal_fc

    M = gen_endmembers(3, 60, seed=0).data
    spec = SyntheticSpec(model="lmm", R=3, L=60, T=50, snr_db=30.0, n_corrupt=5, seed=1)
    Y = gen_cube(M, spec)[0].data
    calls = count_factorizations(monkeypatch)
    h = validate_problem(Y, M)
    solve_ls(h)
    solve_fcls(h)
    for lam in (0.0, 1e-4, 1e-2):
        solve_sunsal_sparse(h, lam)
    cusal_fc(h, SolverConfig(sigma_auto=True, max_outer_iters=30))
    assert calls == {"svd": 1, "qr": 0, "cond": 0}


def test_the_handle_factors_are_cached_and_read_only(rng):
    h, M, X, Y = random_problem(rng, L=20, R=3, T=4)
    Q, s, Vt = h.svd
    assert h.svd is h.svd
    np.testing.assert_allclose((Q * s) @ Vt, M, rtol=0, atol=1e-14)
    for a in (Q, s, Vt):
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.mark.parametrize(
    "s_min, warns", [(1e-5, False), (1e-7, True), (0.0, True)], ids=["1e-5", "1e-7", "zero"]
)
def test_rank_warning_reads_the_singular_values(s_min, warns):
    # cond(M'M) = (s_max / s_min)^2 against COND_LIMIT = 1e12, inf at s_min 0
    Q = np.linalg.qr(np.random.default_rng(0).standard_normal((10, 2)))[0]
    M = Q * [1.0, s_min]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        validate_problem(np.ones((10, 3)), M)
    messages = [str(w.message) for w in caught if w.category is RankDeficiencyWarning]
    assert len(messages) == warns
    if s_min == 0.0:
        assert messages[0].endswith("~inf)")


def test_cusal_large_sigma_consistency_small(rng):
    # quick version of the large-bandwidth consistency check
    from unmix import SolverConfig, cusal_fc, cusal_sp

    h, M, X, Y = random_problem(rng, L=20, R=3, T=12)
    sigma = 1e3 * max(1.0, np.abs(Y).max())
    X_fc, _ = cusal_fc(h, SolverConfig(sigma=sigma))
    assert rmse(solve_fcls(h), X_fc) < 1e-3
    X_sp, _ = cusal_sp(h, SolverConfig(sigma=sigma, lam=0.0))
    assert rmse(solve_sunsal_sparse(h, 0.0), X_sp) < 1e-3


@pytest.mark.parametrize("b", [0.0, 5e-324, 0.25, 1.0])
def test_sparse_prox_equals_the_soft_threshold_form_bitwise(b):
    # exact +-b, signed zeros and subnormals among random entries, at sizes
    # that exercise numpy's vector loops and their scalar tails
    rng = np.random.default_rng(7)
    special = np.array([b, -b, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, np.nextafter(b, 2.0)])
    for n in (1, 7, 64, 1001):
        v = rng.standard_normal(n) * rng.choice([1e-310, 1e-3, 1.0, 1e3], size=n)
        v[rng.integers(0, n, size=min(n, 40))] = rng.choice(special, size=min(n, 40))
        expected = np.maximum(soft_threshold(v, b), 0.0)
        got = baselines._shrink_nonnegative(v.copy(), b)
        assert got.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))
        if b == 0.0:
            # at a zero threshold it is the plain projection, written either way
            for projected in (np.maximum(v, 0.0), project_nonnegative(v)):
                assert got.tobytes() == projected.tobytes()
                np.testing.assert_array_equal(np.signbit(got), np.signbit(projected))


@pytest.mark.parametrize(
    "lam", [10**400, "1e-3", 1 + 0j, None, np.array(1e-3), -1e-3, np.nan, np.inf],
    ids=["int-beyond-float", "str", "complex", "None", "array", "negative", "nan", "inf"],
)
def test_sparse_lambda_follows_the_solver_config_rule(lam):
    # numpy raised TypeError from np.isfinite on the first three
    h = validate_problem(np.ones((4, 2)), np.eye(4)[:, :2])
    with pytest.raises(InvalidInput, match="lam"):
        SolverConfig(lam=lam)
    with pytest.raises(InvalidInput, match="lam"):
        solve_sunsal_sparse(h, lam)


@pytest.mark.parametrize("lam", [0, 1, np.float32(1e-3), np.int64(2)])
def test_sparse_lambda_accepts_any_real_the_solver_config_accepts(lam):
    SolverConfig(lam=lam)
    h = validate_problem(np.ones((4, 2)), np.eye(4)[:, :2])
    np.testing.assert_array_equal(solve_sunsal_sparse(h, lam).data, solve_sunsal_sparse(h, float(lam)).data)


def _z_steps(monkeypatch):
    """Record the threshold b = lam/rho of every baseline z-step, run once
    per ADMM iteration: the list's length counts the iterations, and with
    lam > 0 a change of b is a change of the penalty."""
    thresholds = []
    real = baselines._shrink_nonnegative

    def spy(v, b):
        thresholds.append(b)
        return real(v, b)

    monkeypatch.setattr(baselines, "_shrink_nonnegative", spy)
    return thresholds


def _penalty_changes(thresholds):
    """{index of the first z-step at a new penalty: new b / old b}"""
    return {
        i: thresholds[i] / thresholds[i - 1]
        for i in range(1, len(thresholds))
        if thresholds[i] != thresholds[i - 1]
    }


def _grid_cube(n_corrupt=0, seed=1, scale=1.0):
    """A cube of the benchmark's experiment grid (R=3, L=120, T=200, SNR 30,
    endmember seed 0), Y and M both multiplied by scale."""
    M = gen_endmembers(3, 120, seed=0).data
    spec = SyntheticSpec(model="lmm", R=3, L=120, T=200, snr_db=30.0, n_corrupt=n_corrupt, seed=seed)
    return validate_problem(gen_cube(M, spec)[0].data * scale, M * scale)


def _r20_cube(scale=1.0):
    """A cube of acceptance criterion 6's shape (R=20, L=244, T=225, SNR 30,
    40 corrupted bands, K=4, endmember seed 60, cube seed 1), Y and M both
    multiplied by scale. Its solves balance the penalty several times."""
    M = gen_endmembers(20, 244, seed=60, min_angle_deg=10.0).data
    spec = SyntheticSpec(
        model="lmm", R=20, L=244, T=225, snr_db=30.0, n_corrupt=40, sparsity_K=4, seed=1
    )
    return validate_problem(gen_cube(M, spec)[0].data * scale, M * scale)


def _iteration_counts(monkeypatch, h):
    """Baseline ADMM iterations of fcls and of the sparse solve at lam 0 and
    1e-3 on h."""
    thresholds = _z_steps(monkeypatch)
    counts = {}
    for name, solve in [
        ("fcls", solve_fcls),
        ("sparse 0", lambda h: solve_sunsal_sparse(h, 0.0)),
        ("sparse 1e-3", lambda h: solve_sunsal_sparse(h, 1e-3)),
    ]:
        thresholds.clear()
        solve(h)
        counts[name] = len(thresholds)
    return counts


def _refuse_polish(monkeypatch):
    """Make every polish try fail, so the loop runs as it did before it."""
    monkeypatch.setattr(baselines, "_polish", lambda *args: None)


def test_relaxed_iteration_counts_on_the_clean_grid_cube(monkeypatch):
    # the loop itself, polish refused: unrelaxed (alpha = 1) these took
    # 99 / 41 / 91 iterations, relaxed with the dual residual measured as
    # rho (z+ - z) 63 / 24 / 60, and relaxed at the fixed penalty
    # 2 s_min s_max 54 / 20 / 48; the margin leaves room for another BLAS's
    # rounding, not for any of those loops
    _refuse_polish(monkeypatch)
    counts = _iteration_counts(monkeypatch, _grid_cube())
    assert counts == pytest.approx({"fcls": 32, "sparse 0": 20, "sparse 1e-3": 22}, abs=2)


def test_polished_iteration_counts(monkeypatch):
    # the clean grid cube keeps its start's support, so all three end at the
    # first try; the R = 20 cube's supports settle long before the residuals
    # meet the tolerance (unpolished: 894 / 469 / 471 iterations). NNLS's
    # support there is final from iteration 180 on, so another BLAS's
    # rounding may move its try by one check
    assert _iteration_counts(monkeypatch, _grid_cube()) == {"fcls": 10, "sparse 0": 10, "sparse 1e-3": 10}
    counts = _iteration_counts(monkeypatch, _r20_cube())
    assert counts == pytest.approx({"fcls": 190, "sparse 0": 190, "sparse 1e-3": 190}, abs=10)


def _solve_in_two_units(monkeypatch, cube, k):
    """fcls and sunsal-sparse at lam = 1e-3 on cube(1.0), then at lam * 4^k on
    cube(2^k): per unit, both outputs' bytes and both iteration counts, and
    the set of thresholds the sparse solves used."""
    thresholds = _z_steps(monkeypatch)
    results, sparse_thresholds = [], set()
    for scale, lam in [(1.0, 1e-3), (2.0**k, 1e-3 * 4.0**k)]:
        h = cube(scale)
        thresholds.clear()
        X_fc = solve_fcls(h).data
        fcls_iters = len(thresholds)
        X_sp = solve_sunsal_sparse(h, lam).data
        results.append((X_fc.tobytes(), X_sp.tobytes(), fcls_iters, len(thresholds) - fcls_iters))
        sparse_thresholds.update(thresholds[fcls_iters:])
    return results, sparse_thresholds


@pytest.mark.parametrize("k", [-10, 7, 14])
def test_baselines_do_not_depend_on_the_data_units(monkeypatch, k):
    # (2^k Y, 2^k M) with lam * 4^k is the same problem in other units: rho
    # scales by 4^k, and every quantity the loop compares is in abundance
    # units, so each floating-point operation is scaled by a power of two
    results, _ = _solve_in_two_units(monkeypatch, lambda scale: _grid_cube(scale=scale), k)
    assert results[1] == results[0]


@pytest.mark.parametrize("k", [-10, 7, 14])
def test_balanced_baselines_do_not_depend_on_the_data_units(monkeypatch, k):
    # the grid cube never balances its penalty; this cube does, by factors of
    # exactly 2 chosen from residuals in abundance units, so the solves stay
    # the same in other units
    results, thresholds = _solve_in_two_units(monkeypatch, _r20_cube, k)
    # lam/rho is the same in both units, so a second value is a penalty change
    assert len(thresholds) > 1
    assert results[1][2:] == results[0][2:]
    assert results[1] == results[0]


def test_penalty_balancing_is_periodic_and_bounded(monkeypatch):
    h = _r20_cube()
    thresholds = _z_steps(monkeypatch)
    solve_sunsal_sparse(h, 1e-3)
    # 190 iterations, polished (471 unpolished); at the fixed penalty
    # 2 s_min s_max it took 961, and balanced without dividing the scaled
    # dual by the factor 1012
    assert len(thresholds) < 700
    changes = _penalty_changes(thresholds)
    assert 1 < len(changes) <= 50
    # a penalty set at the end of iteration 10 n is first read by the z-step
    # of iteration 10 n + 1, the one at index 10 n
    assert all(i % 10 == 0 for i in changes)
    assert set(changes.values()) <= {0.5, 2.0}
    # allowed two changes, the same solve makes its first two and no more
    monkeypatch.setattr(baselines, "_BALANCE_MAX_CHANGES", 2)
    thresholds.clear()
    solve_sunsal_sparse(h, 1e-3)
    assert _penalty_changes(thresholds) == {i: changes[i] for i in sorted(changes)[:2]}


def test_percent_reflectance_cube_solves_within_the_cap():
    # Y and M in percent: with the dual residual scaled by rho, which grows
    # with the square of the data units, both solves ran to the 30,000 cap
    h, h_percent = _grid_cube(), _grid_cube(scale=100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", MaxItersWarning)
        X_fc = solve_fcls(h_percent).data
        X_sp = solve_sunsal_sparse(h_percent, 1e-3 * 100.0**2).data
    np.testing.assert_allclose(X_fc, solve_fcls(h).data, rtol=0, atol=1e-9)
    np.testing.assert_allclose(X_sp, solve_sunsal_sparse(h, 1e-3).data, rtol=0, atol=1e-9)


@pytest.mark.parametrize("n_corrupt, seed", [(0, 1), (0, 2), (20, 1), (20, 2)])
def test_converged_fcls_iterate_sums_to_one(n_corrupt, seed):
    # the sum-to-one correction is folded into the x-step's matrices, so the
    # iterate's column sums are 1 to the rounding of one R x R product
    X = solve_fcls(_grid_cube(n_corrupt, seed)).data
    assert np.abs(X.sum(axis=0) - 1.0).max() <= 1e-14


@pytest.mark.parametrize("lam", [True, False])
def test_sparse_lambda_rejects_a_bool(lam):
    h = validate_problem(np.ones((4, 2)), np.eye(4)[:, :2])
    with pytest.raises(InvalidInput, match="lam"):
        solve_sunsal_sparse(h, lam)


def test_sparse_solve_of_a_huge_but_finite_cube_stays_finite(monkeypatch):
    # the residual norms overflow to inf while every iterate stays finite
    rng = np.random.default_rng(0)
    M = np.abs(rng.standard_normal((20, 3)))
    X = rng.dirichlet(np.ones(3), size=5).T
    h = validate_problem(M @ X * 1e306, M)
    thresholds = _z_steps(monkeypatch)
    finite_norms = []
    real_dot = baselines._dot

    def norms_spy(*args, **kwargs):
        squares = real_dot(*args, **kwargs)
        finite_norms.append(bool(np.isfinite(squares).all()))
        return squares

    monkeypatch.setattr(baselines, "_dot", norms_spy)
    # the solve ends before its 10th iteration, so it is also run balancing
    # on every iteration, which would halve rho on the inf dual residual
    for period in (10, 1):
        monkeypatch.setattr(baselines, "_BALANCE_PERIOD", period)
        thresholds.clear()
        finite_norms.clear()
        with np.errstate(over="ignore"):
            out = solve_sunsal_sparse(h, 1e-3).data
        assert np.isfinite(out).all()
        assert out.min() >= 0.0
        # relaxed throughout, X - Z would stay near 1e290 and the solve would
        # run to the cap; the unrelaxed fallback stops it within a few dozen
        assert len(thresholds) <= 30
        assert not all(finite_norms)
        # no penalty change after an iteration whose norms are not finite
        for i in _penalty_changes(thresholds):
            assert finite_norms[i - 1]


def _inject_at_the_z_step(monkeypatch, bad):
    """Make every z-step write `bad` into one entry of its output."""
    real = baselines._shrink_nonnegative

    def prox(v, b):
        real(v, b)
        v[1, 2] = bad
        return v

    monkeypatch.setattr(baselines, "_shrink_nonnegative", prox)


def test_fcls_non_finite_iterate_raises(monkeypatch, rng):
    # the sparse solve's test below injects inf, -inf and nan the same way
    h, M, X, Y = random_problem(rng, L=20, R=3, T=5)
    _inject_at_the_z_step(monkeypatch, np.nan)
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteIterate):
        solve_fcls(h)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_sparse_non_finite_iterate_raises(monkeypatch, rng, bad):
    h, M, X, Y = random_problem(rng, L=20, R=3, T=5)
    _inject_at_the_z_step(monkeypatch, bad)
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteIterate):
        solve_sunsal_sparse(h, 1e-3)


def test_fcls_on_data_near_the_float_range_fails_fast(monkeypatch):
    # its residual norms overflow on every iteration and the iterates sit
    # near 1e284 off the simplex: it used to run all 30,000 iterations and
    # then fail the fully_constrained tag check
    rng = np.random.default_rng(0)
    M = np.abs(rng.standard_normal((20, 3)))
    X = rng.dirichlet(np.ones(3), size=5).T
    h = validate_problem(M @ X * 1e300, M)
    thresholds = _z_steps(monkeypatch)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteIterate, match="float range"):
        solve_fcls(h)
    assert len(thresholds) == baselines._MAX_OVERFLOWS <= 1000


@pytest.mark.parametrize("lam", [0.0, 1e-3])
def test_sparse_solve_on_data_near_the_float_range_still_converges(monkeypatch, lam):
    # Y alone x 1e300: the norms overflow on the first 56 iterations, and the
    # unrelaxed loop then stops on small residuals at iteration 57
    M = gen_endmembers(3, 60, seed=0).data
    spec = SyntheticSpec(model="lmm", R=3, L=60, T=50, snr_db=30.0, n_corrupt=5, seed=1)
    h = validate_problem(gen_cube(M, spec)[0].data * 1e300, M)
    thresholds = _z_steps(monkeypatch)
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error", MaxItersWarning)
        out = solve_sunsal_sparse(h, lam)
    assert np.isfinite(out.data).all() and out.data.min() >= 0.0
    assert 20 < len(thresholds) < baselines._MAX_OVERFLOWS


def _kkt_terms(h):
    """2 M'M and 2 M'Y, as the baseline ADMM's set-up forms them."""
    Q, s, Vt = np.linalg.svd(h.M, full_matrices=False)
    return (Vt.T * (2.0 * s * s)) @ Vt, (Vt.T * (2.0 * s)) @ (Q.T @ h.Y)


@pytest.mark.parametrize(
    "lam, sum_to_one", [(0.0, False), (1e-3, False), (0.0, True)], ids=["nnls", "l1", "fcls"]
)
def test_polish_solves_on_the_right_support_and_refuses_a_wrong_one(monkeypatch, lam, sum_to_one):
    h = _grid_cube(n_corrupt=20)
    _refuse_polish(monkeypatch)
    X = (solve_fcls(h) if sum_to_one else solve_sunsal_sparse(h, lam)).data
    monkeypatch.undo()
    H, MtY2 = _kkt_terms(h)
    support = X > 0.0
    polished = baselines._polish(H, MtY2, support, lam, sum_to_one)
    np.testing.assert_allclose(polished, X, rtol=0, atol=1e-9)
    assert polished.min() == 0.0 and np.array_equal(polished > 0.0, support)
    # a pixel with one entry dropped from its support is positive on the rest
    # but violates the gradient condition there; with an entry added, its
    # solution goes negative there
    t = int(np.flatnonzero((X.max(axis=0) > 0.05) & ~support.all(axis=0))[0])
    for j in (int(np.argmax(X[:, t])), int(np.argmin(X[:, t]))):
        wrong = support.copy()
        wrong[j, t] = not wrong[j, t]
        assert baselines._polish(H, MtY2, wrong, lam, sum_to_one) is None


@pytest.mark.parametrize("solve", [solve_fcls, lambda h: solve_sunsal_sparse(h, 1e-3)], ids=["fcls", "l1"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_polish_is_never_accepted(monkeypatch, solve, bad):
    # every polish then solves into non-finite entries: the solve goes on as
    # if polishing were refused, to the same bits
    h = _grid_cube(n_corrupt=20)
    _refuse_polish(monkeypatch)
    expected = solve(h).data
    monkeypatch.undo()
    thresholds = _z_steps(monkeypatch)
    monkeypatch.setattr(np.linalg, "inv", lambda A: np.full_like(A, bad))
    got = solve(h).data
    assert got.tobytes() == expected.tobytes()
    assert len(thresholds) > 10


def test_support_groups_are_exact_beyond_64_endmembers():
    # pixels 2k and 2k + 1 have as many entries and differ only past the
    # 64th endmember, so a code of one 64-bit word and the count would put
    # them in one group; the last pixel's support is empty
    R, T = 70, 9
    rng = np.random.default_rng(3)
    support = rng.random((R, T)) < 0.3
    support[64:] = False
    support[:, 1:-1:2] = support[:, :-1:2]
    for k, (i, j) in enumerate([(64, 65), (66, 67), (68, 69), (69, 64)]):
        support[i, 2 * k] = support[j, 2 * k + 1] = True
    support[:, -1] = False
    patterns, order, group = baselines._support_groups(support)
    assert len(patterns) == T and group.tolist() == list(range(T))
    assert np.array_equal(support[:, order], patterns[group].T)
    assert np.all(np.diff(patterns.sum(axis=1)) >= 0)
    # the polish solves each pixel on its own support: with 2 M'Y built so that
    # x_true meets the KKT conditions there, it returns x_true
    A = rng.standard_normal((2 * R, R))
    H = 2.0 * A.T @ A
    x_true = np.where(support, rng.uniform(0.5, 1.5, size=(R, T)), 0.0)
    MtY2 = H @ x_true - np.where(support, 0.0, rng.uniform(0.1, 1.0, size=(R, T)))
    polished = baselines._polish(H, MtY2, support, 0.0, False)
    np.testing.assert_allclose(polished, x_true, rtol=0, atol=1e-9)


def test_polish_temporaries_stay_linear_in_the_pixels():
    # nearly every pixel has its own 10-entry support, so the patterns' KKT
    # matrices, or one gathered per pixel, would take about T 11^2 floats:
    # 6 R x T arrays each
    import tracemalloc

    R, T = 20, 8000
    rng = np.random.default_rng(5)
    support = np.argsort(rng.random((R, T)), axis=0) < 10
    A = rng.standard_normal((2 * R, R))
    H = 2.0 * A.T @ A
    MtY2 = rng.standard_normal((R, T))
    tracemalloc.start()
    try:
        baselines._polish(H, MtY2, support, 0.0, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(baselines._support_groups(support)[0]) > 0.97 * T
    # about 3 R x T arrays and 4 stacks here (5.2 MB); unblocked, 27.8 MB
    assert peak < 4 * R * T * 8 + 4 * 8 * baselines._POLISH_BLOCK
