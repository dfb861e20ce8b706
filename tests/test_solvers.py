from dataclasses import replace

import numpy as np
import pytest

from unmix import (
    AdmmState,
    DimensionMismatch,
    InvalidInput,
    SolverConfig,
    SolverReport,
    Termination,
    TuneOutcome,
    TuningFailed,
    admm_generic,
    cusal_fc,
    cusal_sp,
    gen_cube,
    gen_endmembers,
    inner_gradient_descent,
    objective_C,
    rmse,
    reconstruction_ratio,
    solve_fcls,
    solve_ls,
    solve_sunsal_sparse,
    stop_check,
    tune_sigma,
    validate_problem,
)
from unmix import baselines, correntropy, solvers
from unmix.solvers import _initial_sigma, _project_columns_to_simplex
from unmix.synth import SyntheticSpec

from conftest import random_problem
from oracles import project_simplex_reference


def quadratic_admm(a, rho=1.0, max_iters=200, g_prox=None):
    """ADMM on f = 0.5||x - a||^2 with a pluggable prox; the x-update has the
    closed form (a + rho (z + u)) / (1 + rho)."""
    a = np.asarray(a, dtype=float)
    config = SolverConfig(rho=rho, max_outer_iters=max_iters, eps_primal=1e-8, eps_dual=1e-8)
    x0 = np.zeros_like(a)
    init = AdmmState(x=x0, z=x0.copy(), u=np.zeros_like(a))

    def f_solver(x_prev, z, u):
        return (a + rho * (z + u)) / (1.0 + rho)

    if g_prox is None:
        g_prox = lambda v: np.maximum(v, 0.0)
    return admm_generic(
        f_solver, g_prox, config, init, objective_fn=lambda x: 0.5 * float(np.sum((x - a) ** 2))
    )


class TestAdmmGeneric:
    def test_quadratic_with_orthant_prox_converges_to_projection(self):
        state, report = quadratic_admm(np.array([-1.0, 2.0]))
        np.testing.assert_allclose(state.z, [0.0, 2.0], atol=1e-6)
        assert report.iterations_run <= 200

    def test_identity_prox_reaches_consensus(self):
        state, report = quadratic_admm(np.array([0.5, -0.3]), g_prox=lambda v: v)
        np.testing.assert_allclose(state.x, state.z, atol=1e-7)
        np.testing.assert_allclose(state.x, [0.5, -0.3], atol=1e-6)
        # stationary dual at the fixed point
        np.testing.assert_allclose(state.u, 0.0, atol=1e-6)

    @pytest.mark.parametrize("rho", [0.1, 1.0, 10.0])
    def test_solution_invariant_to_rho(self, rho):
        state, _ = quadratic_admm(np.array([-1.0, 2.0]), rho=rho, max_iters=2000)
        np.testing.assert_allclose(state.z, [0.0, 2.0], atol=1e-6)

    def test_report_traces_have_run_length(self):
        state, report = quadratic_admm(np.array([-1.0, 2.0]))
        n = report.iterations_run
        assert len(report.primal_residuals) == n
        assert len(report.dual_residuals) == n
        assert len(report.objective_trace) == n


    def test_two_residual_norms_per_outer_iteration(self, monkeypatch):
        norms = []
        real_norm = solvers._norm

        def counted(a):
            norms.append(1)
            return real_norm(a)

        monkeypatch.setattr(solvers, "_norm", counted)
        _, report = quadratic_admm(np.array([-1.0, 2.0]))
        assert report.iterations_run > 5
        # the primal and dual residuals of each iteration, and the warm
        # start's primal residual, which the first stop decision compares with
        assert len(norms) == 2 * report.iterations_run + 1


class TestStopCheck:
    def config(self, **kw):
        return SolverConfig(**kw)

    def test_exact_consensus_is_residuals_small(self):
        x = np.ones(4)
        prev = AdmmState(x=x, z=x.copy(), u=np.zeros(4), k=0)
        nxt = AdmmState(x=x, z=x.copy(), u=np.zeros(4), k=1)
        assert stop_check(prev, nxt, self.config()) == Termination.RESIDUALS_SMALL

    def test_threshold_value_at_rt_10000(self):
        # sqrt(10000) * 1e-5 = 1e-3: a primal residual of exactly 1e-3 passes
        n = 10000
        prev = AdmmState(x=np.zeros(n), z=np.zeros(n), u=np.zeros(n), k=0)
        x = np.zeros(n)
        x[0] = 1e-3
        nxt = AdmmState(x=x, z=np.zeros(n), u=np.zeros(n), k=1)
        assert stop_check(prev, nxt, self.config()) == Termination.RESIDUALS_SMALL
        x2 = np.zeros(n)
        x2[0] = 1.0000001e-3
        nxt2 = AdmmState(x=x2, z=np.zeros(n), u=np.zeros(n), k=1)
        assert stop_check(prev, nxt2, self.config()) != Termination.RESIDUALS_SMALL

    def test_primal_increase_detected(self):
        prev = AdmmState(x=np.array([0.5]), z=np.array([0.0]), u=np.zeros(1), k=3)
        nxt = AdmmState(x=np.array([0.6]), z=np.array([0.0]), u=np.zeros(1), k=4)
        assert stop_check(prev, nxt, self.config()) == Termination.PRIMAL_INCREASED

    def test_max_iters_lowest_precedence(self):
        cfg = self.config(max_outer_iters=4)
        prev = AdmmState(x=np.array([0.5]), z=np.array([0.0]), u=np.zeros(1), k=3)
        nxt = AdmmState(x=np.array([0.4]), z=np.array([0.0]), u=np.zeros(1), k=4)
        assert stop_check(prev, nxt, cfg) == Termination.MAX_ITERS
        nxt_inc = AdmmState(x=np.array([0.6]), z=np.array([0.0]), u=np.zeros(1), k=4)
        assert stop_check(prev, nxt_inc, cfg) == Termination.PRIMAL_INCREASED

    def test_residuals_small_highest_precedence(self):
        cfg = self.config(max_outer_iters=2)
        prev = AdmmState(x=np.array([1e-9]), z=np.array([0.0]), u=np.zeros(1), k=1)
        nxt = AdmmState(x=np.array([2e-9]), z=np.array([0.0]), u=np.zeros(1), k=2)
        assert stop_check(prev, nxt, cfg) == Termination.RESIDUALS_SMALL

    def test_threshold_counts_every_entry_of_a_matrix_state(self):
        # a 100 x 100 state has the thresholds of 10000 coordinates
        zeros = np.zeros((100, 100))
        prev = AdmmState(x=zeros, z=zeros, u=zeros, k=0)
        for residual, expected in ((1e-3, True), (1.0000001e-3, False)):
            x = zeros.copy()
            x[0, 0] = residual
            nxt = AdmmState(x=x, z=zeros, u=zeros, k=1)
            small = stop_check(prev, nxt, self.config()) == Termination.RESIDUALS_SMALL
            assert small == expected


class TestAdmmState:
    def test_unequal_shapes_are_invalid_input(self):
        X = np.zeros((3, 4))
        for x, z, u in (
            (X, X, np.zeros(12)),
            (X, X.T, X),
            (np.zeros(3), np.zeros(4), np.zeros(3)),
        ):
            with pytest.raises(InvalidInput, match="one shape"):
                AdmmState(x=x, z=z, u=u)

    @pytest.mark.parametrize("solve", [cusal_fc, cusal_sp], ids=["fc", "sp"])
    def test_on_iteration_sees_read_only_abundance_matrices(self, solve, rng):
        h, M, X, Y = random_problem(rng, L=25, R=4, T=12, residual_scale=0.3)
        config = SolverConfig(sigma=0.4, lam=1e-3, max_outer_iters=5)
        states = []
        _, report = solve(h, config, on_iteration=lambda prev, nxt: states.extend((prev, nxt)))
        assert len(states) == 2 * report.iterations_run > 0
        for state in states:
            assert state.x.shape == state.z.shape == state.u.shape == (h.R, h.T)
            assert not state.x.flags.writeable


class TestInnerGradientDescent:
    def test_exact_step_converges_immediately(self):
        a = np.array([1.0, -2.0])
        out = inner_gradient_descent(
            lambda x: x - a, lambda x: 0.5 * float(np.sum((x - a) ** 2)),
            np.zeros(2), max_inner_iters=10, direction=lambda x, g: g,
        )
        np.testing.assert_allclose(out, a, atol=1e-14)

    def test_geometric_contraction(self):
        a = np.array([1.0, 2.0])
        x0 = np.zeros(2)
        k = 7
        out = inner_gradient_descent(
            lambda x: x - a, lambda x: 0.5 * float(np.sum((x - a) ** 2)),
            x0, max_inner_iters=k, direction=lambda x, g: 0.1 * g,
        )
        expected_dist = 0.9**k * np.linalg.norm(x0 - a)
        assert np.linalg.norm(out - a) == pytest.approx(expected_dist, rel=1e-12)

    def test_failed_step_ends_the_descent_at_its_start(self):
        a = np.array([3.0])
        x0 = np.zeros(1)
        calls = []

        def obj(x):
            calls.append(x)
            return 0.5 * float(np.sum((x - a) ** 2))

        out = inner_gradient_descent(
            lambda x: x - a, obj, x0, max_inner_iters=300, direction=lambda x, g: 1e9 * g
        )
        # the start and the one rejected trial: no shorter step is tried
        assert len(calls) == 2
        np.testing.assert_array_equal(out, x0)

    def test_monotone_objective_on_correntropy_subproblem(self, rng):
        from unmix import gradient_reduced_f1, objective_reduced_f1
        from unmix.correntropy import reconstruct_full

        h, M, X, Y = random_problem(rng, L=12, R=3, T=4, residual_scale=0.2)
        sigma, rho = 0.5, 1.0
        Zk = np.maximum(X + 0.1 * rng.standard_normal(X.shape), 0)
        Uk = 0.05 * rng.standard_normal(X.shape)
        values = []

        def obj(xr):
            Xr = xr.reshape(h.T, h.R - 1).T
            d = reconstruct_full(Xr) - Zk - Uk
            v = objective_reduced_f1(h, Xr, sigma) + 0.5 * rho * float(np.sum(d * d))
            return v

        def grad(xr):
            Xr = xr.reshape(h.T, h.R - 1).T
            G = gradient_reduced_f1(h, Xr, sigma)
            D = reconstruct_full(Xr) - Zk - Uk
            G = G + rho * (D[:-1] - D[-1:])
            return G.T.ravel()

        def traced_obj(xr):
            v = obj(xr)
            values.append(v)
            return v

        inner_gradient_descent(
            grad, traced_obj, X[:-1].T.ravel(), max_inner_iters=30,
            direction=lambda x, g: 0.05 * g,
        )
        accepted = [values[0]]
        for v in values[1:]:
            if v <= accepted[-1]:
                accepted.append(v)
        # every accepted step decreased the objective: the accepted subsequence
        # must reach the final evaluation
        assert accepted[-1] == min(values)


def scripted_admm(residuals, max_iters):
    """admm_generic whose x-update returns the scripted primal residuals: the
    prox maps to zero, so ||x - z|| is the scripted value and the dual residual
    is zero."""
    script = iter(residuals)
    config = SolverConfig(max_outer_iters=max_iters, eps_primal=1e-12, eps_dual=1e-12)
    init = AdmmState(x=np.ones(1), z=np.ones(1), u=np.zeros(1))
    return admm_generic(lambda x, z, u: np.array([next(script)]), np.zeros_like, config, init)


class TestDivergenceRule:
    def test_lone_spike_in_a_jittering_decay_does_not_stop(self):
        # a decaying residual with a 30% bump every fourth iteration, and one
        # spike to twice the trend at iteration 61: 1.72 times the residual ten
        # iterations back, but only 1.34 times the window's largest value
        trend = 1e-3 * 0.985 ** np.arange(1, 101)
        r = np.where(np.arange(1, 101) % 4 == 0, 1.3 * trend, trend)
        r[60] = 2.0 * trend[60]
        _, report = scripted_admm(r, max_iters=100)
        assert report.termination_reason == Termination.MAX_ITERS
        assert report.iterations_run == 100
        np.testing.assert_array_equal(report.primal_residuals, r)

    def test_sustained_growth_ends_primal_increased(self):
        r = np.concatenate([1e-3 * 0.97 ** np.arange(1, 31), 1e-3 * 2.0 ** np.arange(1, 31)])
        _, report = scripted_admm(r, max_iters=100)
        assert report.termination_reason == Termination.PRIMAL_INCREASED
        assert report.iterations_run < 35
        assert report.primal_residuals[-1] > report.primal_residuals[-2]
        assert len(report.dual_residuals) == len(report.objective_trace) == report.iterations_run


class TestHalfQuadraticStep:
    @staticmethod
    def captured_subproblems(monkeypatch, solve, handle, config):
        """Run `solve` and return the (grad_fn, objective_fn, x_init, direction)
        of every x-update it made."""
        seen = []
        real = solvers.inner_gradient_descent

        def spy(grad_fn, objective_fn, x_init, max_inner_iters, direction):
            assert direction is not None
            seen.append((grad_fn, objective_fn, np.array(x_init), direction))
            return real(grad_fn, objective_fn, x_init, max_inner_iters, direction)

        monkeypatch.setattr(solvers, "inner_gradient_descent", spy)
        solve(handle, config)
        return seen

    @pytest.mark.parametrize("solve", [cusal_fc, cusal_sp], ids=["fc", "sp"])
    def test_unit_step_decreases_by_half_the_slope(self, solve, rng, monkeypatch):
        h, M, X, Y = random_problem(rng, L=25, R=4, T=12, residual_scale=0.3)
        config = SolverConfig(sigma=0.4, rho=0.7, lam=1e-3, max_outer_iters=4)
        seen = self.captured_subproblems(monkeypatch, solve, h, config)
        assert len(seen) == 4
        for grad, obj, x_init, direction in seen:
            for x in (x_init, x_init + 0.2 * rng.standard_normal(x_init.shape)):
                g = grad(x)
                d = direction(x, g)
                slope = float(np.sum(g * d))
                assert slope > 0
                assert obj(x - d) <= obj(x) - 0.5 * slope + 1e-12 * abs(obj(x))
                calls = []

                def counted(v):
                    calls.append(v)
                    return obj(v)

                out = inner_gradient_descent(grad, counted, x, 1, direction)
                # the start and one trial: the unit step passed the decrease test
                assert len(calls) == 2
                np.testing.assert_array_equal(out, x - d)

    @pytest.mark.parametrize("solve", [cusal_fc, cusal_sp], ids=["fc", "sp"])
    def test_direction_uses_the_band_weights_at_its_own_point(self, solve, rng, monkeypatch):
        from unmix import band_weights
        from unmix.correntropy import reconstruct_full

        h, M, X, Y = random_problem(rng, L=25, R=4, T=12, residual_scale=0.3)
        sigma = 0.4
        config = SolverConfig(sigma=sigma, rho=0.7, lam=1e-3, max_outer_iters=3)
        seen = self.captured_subproblems(monkeypatch, solve, h, config)
        passes = []
        real = correntropy._kernel

        def counted(*args, **kwargs):
            passes.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(correntropy, "_kernel", counted)
        for grad, obj, x_init, direction in seen:
            hq = direction.__self__
            for x in (x_init, x_init + 0.2 * rng.standard_normal(x_init.shape)):
                X_full = reconstruct_full(x) if solve is cusal_fc else x
                expected = band_weights(h, X_full, sigma)
                passes.clear()
                # the gradient at x makes one kernel pass, and the direction
                # there reuses it
                g = grad(x)
                direction(x, g)
                assert len(passes) == 1
                reused = hq.weights
                # at a point with no pass yet, it evaluates the kernel there
                direction(x + 0.1, g)
                assert len(passes) == 2
                direction(x, g)
                assert len(passes) == 3
                np.testing.assert_array_equal(hq.x, x)
                for weights in (reused, hq.weights):
                    np.testing.assert_array_equal(weights, expected)

    @pytest.mark.parametrize("solve", [cusal_fc, cusal_sp], ids=["fc", "sp"])
    def test_one_kernel_pass_per_trial_point_plus_one_per_run(self, solve, monkeypatch):
        M = gen_endmembers(3, 60, seed=0)
        spec = SyntheticSpec(model="lmm", R=3, L=60, T=40, snr_db=30.0, n_corrupt=8, seed=1)
        Y, _ = gen_cube(M, spec)
        h = validate_problem(Y, M)
        passes, objective_calls, x_updates = [], [], []
        real_kernel = correntropy._kernel

        def counted_kernel(*args, **kwargs):
            passes.append(1)
            return real_kernel(*args, **kwargs)

        real_descent = solvers.inner_gradient_descent

        def spy(grad_fn, objective_fn, x_init, *rest):
            x_updates.append(1)

            def counted(x):
                objective_calls.append(1)
                return objective_fn(x)

            return real_descent(grad_fn, counted, x_init, *rest)

        monkeypatch.setattr(correntropy, "_kernel", counted_kernel)
        monkeypatch.setattr(solvers, "inner_gradient_descent", spy)
        _, report = solve(h, SolverConfig(sigma=0.02, lam=1e-3, max_outer_iters=20))
        # every x-update evaluates its start point first; the rest are trials
        trial_points = len(objective_calls) - len(x_updates)
        assert len(x_updates) == report.iterations_run > 5
        assert trial_points > report.iterations_run // 2
        # the warm start's pass, then one per trial point: the start of the
        # next x-update, every gradient, the directions and the trace reuse them
        assert len(passes) == trial_points + 1

    def test_newton_direction_solves_a_quadratic_in_one_step(self, rng):
        B = rng.standard_normal((5, 5))
        H = B @ B.T + 0.1 * np.eye(5)
        b = rng.standard_normal(5)
        out = inner_gradient_descent(
            lambda x: H @ x - b,
            lambda x: 0.5 * float(x @ H @ x) - float(b @ x),
            np.zeros(5), 1,
            direction=lambda x, g: np.linalg.solve(H, g),
        )
        np.testing.assert_allclose(out, np.linalg.solve(H, b), rtol=1e-10, atol=1e-12)


# cusal_fc and cusal_sp on a small corrupted cube (R=3, L=30, T=8, SNR 30,
# 4 corrupted bands, cube seed 1, endmember seed 0) at sigma 0.05, lam 1e-3,
# 40 outer iterations and 50 half-quadratic steps per x-update, as the
# multi-step x-update computed them when 50 steps were the default: 3
# iterations to residuals_small each. On the machine that recorded them they
# are reproduced bit for bit; the tolerance only admits another BLAS build's
# rounding.
FIFTY_STEP_ABUNDANCES = {
    "fc": [
        0.1552308623655552, 0.15376034484843512, 0.46861949981819234, 0.3773743819091039,
        0.6216048391773545, 0.10541887551122578, 0.15508670009218578, 0.15034272614300168,
        0.0492498947930939, 0.05973501286123437, 0.508252821811716, 0.5135730440523224,
        0.0860784765692804, 0.5900101415034883, 0.6083354336749129, 0.4962478794917645,
        0.7955192428413509, 0.7865046422903306, 0.023127678370091553, 0.10905257403857371,
        0.2923166842533651, 0.30457098298528595, 0.23657786623290122, 0.3534093943652338,
    ],
    "sp": [
        0.15828727942279894, 0.15516804667258513, 0.4693119883983027, 0.3779840575264564,
        0.6205938919659767, 0.10917426973317156, 0.15615962903766473, 0.1512866846762847,
        0.040352991581426544, 0.05432957819415209, 0.506672347498228, 0.5107580552450969,
        0.0891368525790193, 0.5742649872854484, 0.6071310047250305, 0.4945400378885759,
        0.7916006849430401, 0.7841831647016309, 0.022170039512126916, 0.10835424851146531,
        0.2938117391459239, 0.2988319202444613, 0.23597788543644904, 0.3528070410727635,
    ],
}


class TestOneStepDefault:
    SOLVES = {"fc": cusal_fc, "sp": cusal_sp}

    @staticmethod
    def cube(R, L, T, n_corrupt, seed):
        M = gen_endmembers(R, L, seed=0)
        spec = SyntheticSpec(model="lmm", R=R, L=L, T=T, snr_db=30.0, n_corrupt=n_corrupt, seed=seed)
        Y, _ = gen_cube(M, spec)
        return validate_problem(Y, M)

    @pytest.mark.parametrize("algorithm", ["fc", "sp"])
    def test_one_kernel_pass_per_outer_iteration_plus_one_per_run(self, algorithm, monkeypatch):
        h = self.cube(3, 60, 40, 8, 1)
        passes = []
        real_kernel = correntropy._kernel

        def counted_kernel(*args, **kwargs):
            passes.append(1)
            return real_kernel(*args, **kwargs)

        monkeypatch.setattr(correntropy, "_kernel", counted_kernel)
        _, report = self.SOLVES[algorithm](h, SolverConfig(sigma=0.05, lam=1e-3))
        assert report.iterations_run > 5
        # the warm start's pass, then the trial point of every x-update: its
        # start, gradient and direction reuse the previous pass (an x-update
        # that starts within the gradient tolerance would take no step; none
        # does here)
        assert len(passes) == 1 + report.iterations_run

    @pytest.mark.parametrize("sigma_auto", [False, True], ids=["fixed", "tuned"])
    def test_one_reconstruction_per_outer_iteration_plus_one_per_run(self, sigma_auto, monkeypatch):
        h = self.cube(3, 60, 40, 8, 1)
        rebuilds, reports = [], []
        real_full, real_admm = solvers.reconstruct_full, solvers.admm_generic

        def counted_full(*args, **kwargs):
            rebuilds.append(1)
            return real_full(*args, **kwargs)

        def spy(*args, **kwargs):
            state, report = real_admm(*args, **kwargs)
            reports.append(report)
            return state, report

        monkeypatch.setattr(solvers, "reconstruct_full", counted_full)
        monkeypatch.setattr(solvers, "admm_generic", spy)
        config = SolverConfig(sigma_auto=True) if sigma_auto else SolverConfig(sigma=0.05)
        cusal_fc(h, config)
        assert sum(r.iterations_run for r in reports) >= 5
        # each run rebuilds its warm start's last row, then the trial point of
        # every x-update; the start of the next x-update is the previous result
        assert len(rebuilds) == sum(r.iterations_run for r in reports) + len(reports)

    @pytest.mark.parametrize("algorithm", ["fc", "sp"])
    def test_on_iteration_cannot_edit_the_cached_iterates(self, algorithm):
        # the x-update keys its kernel pass and its start on the x arrays
        h = self.cube(3, 30, 8, 4, 1)
        seen = []

        def hook(prev, nxt):
            for x in (prev.x, nxt.x):
                with pytest.raises(ValueError):
                    x[0] = 0.5
            seen.append(nxt.k)

        _, report = self.SOLVES[algorithm](h, SolverConfig(sigma=0.5), on_iteration=hook)
        assert len(seen) == report.iterations_run > 1

    @pytest.mark.parametrize("algorithm", ["fc", "sp"])
    def test_fifty_steps_reproduce_the_multi_step_x_update(self, algorithm):
        h = self.cube(3, 30, 8, 4, 1)
        config = SolverConfig(sigma=0.05, lam=1e-3, max_outer_iters=40, max_inner_iters=50)
        X, report = self.SOLVES[algorithm](h, config)
        expected = np.array(FIFTY_STEP_ABUNDANCES[algorithm]).reshape(h.R, h.T)
        assert report.iterations_run == 3
        assert report.termination_reason == Termination.RESIDUALS_SMALL
        np.testing.assert_allclose(X.data, expected, rtol=0, atol=1e-13)
        # the knob is live: one step per x-update lands elsewhere
        X1, _ = self.SOLVES[algorithm](h, replace(config, max_inner_iters=1))
        assert np.max(np.abs(X1.data - expected)) > 1e-9

    @pytest.mark.parametrize("algorithm", ["fc", "sp"])
    def test_one_step_matches_fifty_on_a_corrupted_grid_cube(self, algorithm):
        # the grid-fc benchmark's cube with 20 corrupted bands, tuned at its
        # 30-iteration cap
        h = self.cube(3, 120, 200, 20, 1)
        config = SolverConfig(sigma_auto=True, lam=1e-3, max_outer_iters=30)
        X1, one = self.SOLVES[algorithm](h, config)
        X50, fifty = self.SOLVES[algorithm](h, replace(config, max_inner_iters=50))
        assert one.iterations_run == fifty.iterations_run
        assert one.termination_reason == fifty.termination_reason
        assert one.sigma_used == fifty.sigma_used
        np.testing.assert_allclose(X1.data, X50.data, rtol=0, atol=1e-5)


class TestSimplexProjection:
    def test_matches_reference(self, rng):
        X = rng.standard_normal((5, 40)) * 2
        out = _project_columns_to_simplex(X)
        for t in range(40):
            np.testing.assert_allclose(out[:, t], project_simplex_reference(X[:, t]), atol=1e-12)
        np.testing.assert_allclose(out.sum(axis=0), 1.0, atol=1e-12)
        assert out.min() >= 0


def make_clean_problem(rng, R=3, L=50, T=100, seed=5):
    M = gen_endmembers(R, L, seed=seed)
    spec = SyntheticSpec(model="lmm", R=R, L=L, T=T, snr_db=np.inf, seed=seed + 1)
    Y, truth = gen_cube(M, spec)
    return validate_problem(Y, M), truth


class TestCusalFC:
    def test_noise_free_recovery_with_auto_sigma(self, rng):
        h, truth = make_clean_problem(rng)
        X, report = cusal_fc(h, SolverConfig(sigma_auto=True))
        assert rmse(truth.X_true, X) < 1e-3
        assert report.sigma_used > 0

    def test_large_sigma_matches_fcls(self, rng):
        h, truth = make_clean_problem(rng)
        scale = np.abs(h.Y).max()
        X, _ = cusal_fc(h, SolverConfig(sigma=1e3 * scale))
        assert rmse(solve_fcls(h), X) < 1e-3

    def test_output_is_feasible(self, rng):
        h, truth = make_clean_problem(rng, T=30)
        X, _ = cusal_fc(h, SolverConfig(sigma_auto=True))
        assert X.tag == "fully_constrained"
        assert X.data.min() >= -1e-9
        np.testing.assert_allclose(X.data.sum(axis=0), 1.0, atol=1e-9)

    def test_invariants_every_iteration(self, rng):
        h, truth = make_clean_problem(rng, T=25)
        spec = SyntheticSpec(model="lmm", R=3, L=50, T=25, snr_db=30.0, n_corrupt=8, seed=9)
        M = gen_endmembers(3, 50, seed=5)
        Y, _ = gen_cube(M, spec)
        h = validate_problem(Y, M)
        checked = {"n": 0}

        def hook(prev, nxt):
            checked["n"] += 1
            assert nxt.z.min() >= 0.0
            np.testing.assert_array_less(
                np.abs(nxt.u - prev.u + nxt.x - nxt.z), 1e-15 + np.zeros_like(nxt.u)
            )
            cols = nxt.x.sum(axis=0)
            np.testing.assert_allclose(cols, 1.0, atol=1e-12)

        cusal_fc(h, SolverConfig(sigma_auto=True), on_iteration=hook)
        assert checked["n"] > 0

    def test_requires_sigma_or_auto(self, rng):
        h, _ = make_clean_problem(rng, T=10)
        with pytest.raises(InvalidInput):
            cusal_fc(h, SolverConfig())

    def test_deterministic_reports(self, rng):
        spec = SyntheticSpec(model="lmm", R=3, L=40, T=20, snr_db=25.0, n_corrupt=5, seed=3)
        M = gen_endmembers(3, 40, seed=2)
        Y, _ = gen_cube(M, spec)
        h = validate_problem(Y, M)
        X1, r1 = cusal_fc(h, SolverConfig(sigma_auto=True))
        X2, r2 = cusal_fc(h, SolverConfig(sigma_auto=True))
        assert r1.primal_residuals == r2.primal_residuals
        assert r1.dual_residuals == r2.dual_residuals
        assert r1.objective_trace == r2.objective_trace
        np.testing.assert_array_equal(X1.data, X2.data)


@pytest.mark.parametrize("solve", [cusal_fc, cusal_sp], ids=["fc", "sp"])
def test_objective_trace_is_objective_C_at_each_full_iterate(solve):
    spec = SyntheticSpec(model="lmm", R=4, L=40, T=20, snr_db=25.0, n_corrupt=5, seed=3)
    M = gen_endmembers(4, 40, seed=2)
    Y, _ = gen_cube(M, spec)
    h = validate_problem(Y, M)
    config = SolverConfig(sigma=0.05, lam=1e-3, max_outer_iters=25)
    iterates = []
    _, report = solve(h, config, on_iteration=lambda prev, nxt: iterates.append(nxt.x))
    assert len(iterates) == report.iterations_run > 5
    expected = [objective_C(h, x, config.sigma) for x in iterates]
    assert report.objective_trace == tuple(expected)


class TestCusalSP:
    def test_lambda_zero_matches_nonnegative_ls(self, rng):
        h, truth = make_clean_problem(rng)
        scale = np.abs(h.Y).max()
        X, _ = cusal_sp(h, SolverConfig(sigma=1e3 * scale, lam=0.0))
        assert rmse(solve_sunsal_sparse(h, 0.0), X) < 1e-3

    def test_huge_lambda_kills_everything(self, rng):
        h, truth = make_clean_problem(rng, T=20)
        scale = np.abs(h.Y).max()
        X, _ = cusal_sp(h, SolverConfig(sigma=scale, lam=1e6, rho=1.0))
        np.testing.assert_array_equal(X.data, 0.0)

    def test_output_nonnegative_every_iteration(self, rng):
        spec = SyntheticSpec(model="lmm", R=4, L=40, T=25, snr_db=30.0, n_corrupt=6, seed=11)
        M = gen_endmembers(4, 40, seed=7)
        Y, _ = gen_cube(M, spec)
        h = validate_problem(Y, M)

        def hook(prev, nxt):
            assert nxt.z.min() >= 0.0
            np.testing.assert_array_less(
                np.abs(nxt.u - prev.u + nxt.x - nxt.z), 1e-15 + np.zeros_like(nxt.u)
            )

        X, _ = cusal_sp(h, SolverConfig(sigma_auto=True, lam=1e-4), on_iteration=hook)
        assert X.tag == "nonnegative"
        assert X.data.min() >= 0.0

    def test_downweights_corrupted_bands(self, rng):
        from unmix import band_weights

        spec = SyntheticSpec(model="lmm", R=3, L=60, T=50, snr_db=35.0, n_corrupt=10, seed=13)
        M = gen_endmembers(3, 60, seed=4)
        Y, truth = gen_cube(M, spec)
        h = validate_problem(Y, M)
        X, report = cusal_fc(h, SolverConfig(sigma_auto=True))
        w = band_weights(h, X.data, report.sigma_used)
        corrupted = list(truth.corrupted_bands)
        clean = [l for l in range(h.L) if l not in corrupted]
        assert max(w[corrupted]) < min(w[clean])


class TestTuner:
    def test_sigma0_formula(self, rng):
        h, M, X, Y = random_problem(rng, L=20, R=3, T=15, residual_scale=0.3)
        sigma0_raw, sigma0 = _initial_sigma(h)
        X_ls = solve_ls(h).data
        expected = np.sqrt(h.R / (8.0 * h.L)) * np.linalg.norm(Y - M @ X_ls)
        assert sigma0_raw == pytest.approx(expected, rel=1e-12)
        assert sigma0 == sigma0_raw  # residual is far above the floor

    def test_zero_residual_floors_sigma0_and_accepts(self, rng):
        h, truth = make_clean_problem(rng, T=20)
        sigma0_raw, sigma0 = _initial_sigma(h)
        assert sigma0_raw == pytest.approx(0.0, abs=1e-10)
        assert sigma0 > 0
        sigma, trace = tune_sigma(h, "fc", SolverConfig(sigma_auto=True))
        assert trace.attempts[-1].outcome == TuneOutcome.CONVERGED
        assert trace.attempts[-1].ratio < 2.0

    def test_growth_factor_exact(self, rng):
        spec = SyntheticSpec(model="lmm", R=3, L=40, T=30, snr_db=20.0, n_corrupt=6, seed=21)
        M = gen_endmembers(3, 40, seed=20)
        Y, _ = gen_cube(M, spec)
        h = validate_problem(Y, M)
        sigma, trace = tune_sigma(h, "fc", SolverConfig(sigma_auto=True))
        sigmas = [a.sigma for a in trace.attempts]
        outcomes = [a.outcome for a in trace.attempts]
        for i in range(len(sigmas) - 1):
            if outcomes[i] in (TuneOutcome.RATIO_TOO_LARGE, TuneOutcome.DIVERGED):
                if sigmas[i + 1] > sigmas[i]:
                    assert sigmas[i + 1] == pytest.approx(1.2 * sigmas[i], rel=1e-15)

    @pytest.mark.parametrize("solve, algorithm", [(cusal_fc, "fc"), (cusal_sp, "sp")], ids=["fc", "sp"])
    def test_tuned_solve_reports_its_tuning_trace(self, solve, algorithm):
        spec = SyntheticSpec(model="lmm", R=3, L=40, T=30, snr_db=20.0, n_corrupt=6, seed=21)
        M = gen_endmembers(3, 40, seed=20)
        Y, _ = gen_cube(M, spec)
        h = validate_problem(Y, M)
        config = SolverConfig(sigma_auto=True, lam=1e-3)
        _, report = solve(h, config)
        sigma, trace = tune_sigma(h, algorithm, config)
        assert report.tuning == trace
        assert report.sigma_used == sigma == trace.sigma_final
        _, fixed = solve(h, SolverConfig(sigma=sigma, lam=1e-3))
        assert fixed.tuning is None

    def test_stops_at_once_when_the_best_feasible_fit_reconstructs_poorly(self, monkeypatch):
        # every cusal-fc result lies on the simplex, where fcls has the
        # smallest residual; here its reconstruction ratio is 2.063
        spec = SyntheticSpec(model="ppnmm", R=4, L=60, T=50, snr_db=30.0, n_corrupt=8, seed=3)
        M = gen_endmembers(4, 60, seed=0)
        Y, _ = gen_cube(M, spec)
        h = validate_problem(Y, M)
        assert reconstruction_ratio(h, solve_fcls(h)) >= 2.0
        runs = []
        real = solvers.admm_generic

        def counted(*args, **kwargs):
            runs.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(solvers, "admm_generic", counted)
        with pytest.raises(TuningFailed, match="best feasible fit"):
            cusal_fc(h, SolverConfig(sigma_auto=True, max_outer_iters=30))
        assert len(runs) == 1

    def test_accepted_sigma_satisfies_ratio(self, rng):
        spec = SyntheticSpec(model="lmm", R=3, L=50, T=40, snr_db=30.0, n_corrupt=10, seed=31)
        M = gen_endmembers(3, 50, seed=30)
        Y, _ = gen_cube(M, spec)
        h = validate_problem(Y, M)
        sigma, trace = tune_sigma(h, "sp", SolverConfig(sigma_auto=True, lam=1e-4))
        X, report = cusal_sp(h, SolverConfig(sigma=sigma, lam=1e-4))
        assert reconstruction_ratio(h, X) < 2.0
        assert trace.sigma_final == sigma

    @staticmethod
    def scripted_tuner(monkeypatch, outcome):
        """Route the fc tuner through a runner that solves nothing: outcome(sigma)
        gives each attempt's termination and abundances. Returns the sigmas tried."""
        tried = []

        def runner(handle, config, sigma, X0, on_iteration):
            tried.append(sigma)
            termination, X = outcome(sigma)
            primal = (1.0, 2.0) if termination == Termination.PRIMAL_INCREASED else (2.0, 1.0)
            report = SolverReport(2, primal, (1.0, 1.0), (0.0, 0.0), termination, sigma)
            return X, report

        monkeypatch.setitem(solvers._PROBLEMS, "fc", (runner,) + solvers._PROBLEMS["fc"][1:])
        return tried

    def test_grows_sigma_after_a_poor_reconstruction_the_best_fit_can_beat(self, rng, monkeypatch):
        h, M, X, Y = random_problem(rng, L=20, R=3, T=15, residual_scale=0.05)
        poor = np.zeros((h.R, h.T))
        assert reconstruction_ratio(h, poor) >= 2.0 > reconstruction_ratio(h, solve_fcls(h))
        tried = self.scripted_tuner(
            monkeypatch,
            lambda s: (Termination.MAX_ITERS, poor) if len(tried) == 1
            else (Termination.RESIDUALS_SMALL, h.least_squares),
        )
        sigma, trace = tune_sigma(h, "fc", SolverConfig(sigma_auto=True))
        sigma0 = _initial_sigma(h)[1]
        assert tried == [sigma0, 1.2 * sigma0] and sigma == 1.2 * sigma0
        assert [a.outcome for a in trace.attempts] == [
            TuneOutcome.RATIO_TOO_LARGE, TuneOutcome.CONVERGED
        ]
        assert trace.p == 1

    def test_restarts_from_sigma0_over_p_after_diverging_far_above_sigma0(self, rng, monkeypatch):
        h, M, X, Y = random_problem(rng, L=20, R=3, T=15, residual_scale=0.05)
        sigma0 = _initial_sigma(h)[1]
        # every bandwidth from sigma0 up diverges, every one below it converges
        diverges = lambda s: s >= sigma0
        tried = self.scripted_tuner(
            monkeypatch,
            lambda s: (
                Termination.PRIMAL_INCREASED if diverges(s) else Termination.RESIDUALS_SMALL,
                h.least_squares,
            ),
        )
        sigma, trace = tune_sigma(h, "fc", SolverConfig(sigma_auto=True))
        expected = [sigma0]
        while expected[-1] <= 1000.0 * sigma0:
            expected.append(1.2 * expected[-1])
        expected.append(sigma0 / 2)
        assert tried == expected
        assert sigma == trace.sigma_final == sigma0 / 2
        assert trace.p == 2
        outcomes = [a.outcome for a in trace.attempts]
        assert outcomes == [TuneOutcome.DIVERGED] * (len(expected) - 1) + [TuneOutcome.CONVERGED]

    def test_gives_up_after_sixty_attempts_naming_sigma0_and_the_last_sigma(self, rng, monkeypatch):
        h, M, X, Y = random_problem(rng, L=20, R=3, T=15, residual_scale=0.05)
        tried = self.scripted_tuner(
            monkeypatch, lambda s: (Termination.PRIMAL_INCREASED, h.least_squares)
        )
        with pytest.raises(TuningFailed) as failure:
            tune_sigma(h, "fc", SolverConfig(sigma_auto=True))
        assert len(tried) == 60
        message = str(failure.value)
        assert "within 60 attempts" in message
        assert f"sigma0={_initial_sigma(h)[1]:.4g}" in message
        assert f"last sigma={tried[-1]:.4g}" in message


class TestOneLeastSquaresFitPerHandle:
    @pytest.fixture
    def counted_ls(self, monkeypatch):
        # wraps the module attribute, as the benchmark's layer hooks do
        calls = []
        real = baselines.solve_ls

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(baselines, "solve_ls", counted)
        return calls

    @staticmethod
    def corrupted_cube():
        spec = SyntheticSpec(model="lmm", R=3, L=40, T=30, snr_db=20.0, n_corrupt=6, seed=21)
        M = gen_endmembers(3, 40, seed=20)
        return gen_cube(M, spec)[0], M

    def test_fcls_and_a_tuned_cusal_fc_on_one_handle_fit_once(self, counted_ls):
        h = validate_problem(*self.corrupted_cube())
        solve_fcls(h)
        cusal_fc(h, SolverConfig(sigma_auto=True))
        assert len(counted_ls) == 1

    def test_a_fixed_sigma_solve_from_a_given_start_fits_nothing(self, counted_ls):
        Y, M = self.corrupted_cube()
        h = validate_problem(Y, M)
        X0 = np.full((3, h.T), 1.0 / 3.0)
        cusal_fc(h, SolverConfig(sigma=0.5), X0)
        assert counted_ls == []

    @pytest.mark.parametrize(
        "solve, config",
        [
            (cusal_fc, SolverConfig(sigma_auto=True)),
            (cusal_sp, SolverConfig(sigma_auto=True, lam=1e-3)),
            (cusal_sp, SolverConfig(sigma=0.5, lam=1e-3)),
        ],
        ids=["fc-tuned", "sp-tuned", "sp-fixed"],
    )
    def test_a_shared_fit_changes_no_byte(self, solve, config):
        Y, M = self.corrupted_cube()
        fresh_X, fresh = solve(validate_problem(Y, M), config)
        h = validate_problem(Y, M)
        solve_sunsal_sparse(h, 1e-3)
        assert h.ls_residual > 0  # the handle holds its fit before the solve
        X, report = solve(h, config)
        assert X.data.tobytes() == fresh_X.data.tobytes()
        assert report == fresh

    def test_reconstruction_ratio_of_an_exact_least_squares_fit(self):
        # with identity endmembers the fit is Y itself and its residual exactly 0
        Y = np.random.default_rng(3).uniform(size=(3, 8))
        h = validate_problem(Y, np.eye(3))
        assert h.ls_residual == 0.0
        assert reconstruction_ratio(h, Y) == 0.0
        assert reconstruction_ratio(h, Y + 1e-15) == 0.0
        assert reconstruction_ratio(h, Y + 0.1) == float("inf")

    @pytest.mark.parametrize("shape", [(2, 8), (3, 9), (24,)])
    def test_reconstruction_ratio_of_a_wrong_shape_is_a_dimension_mismatch(self, shape):
        # named before M @ X or the subtraction from Y can fail inside numpy
        h = validate_problem(np.random.default_rng(3).uniform(size=(5, 8)), np.eye(5)[:, :3])
        with pytest.raises(DimensionMismatch, match="3 x 8"):
            reconstruction_ratio(h, np.zeros(shape))
