"""Acceptance suite: every release criterion with its stated tolerance.

Each test prints one `ACCEPTANCE <id>: PASS` line on success (visible with
pytest -s, or in captured output). The heavy Monte-Carlo fixtures are module
scoped and shared between the ordering criteria and the tuner contract.
"""

import math
import statistics
import time
import warnings

import numpy as np
import pytest

import unmix
from unmix import (
    SolverConfig,
    Termination,
    cusal_fc,
    cusal_sp,
    gen_cube,
    gen_endmembers,
    gradient_full,
    gradient_reduced_f1,
    objective_C,
    objective_reduced_f1,
    rmse,
    solve_fcls,
    solve_ls,
    solve_sunsal_sparse,
    sre_db,
    stop_check,
    tune_sigma,
    validate_problem,
)
from unmix.solvers import AdmmState, _tune
from unmix.synth import SyntheticSpec

from oracles import (
    central_difference_gradient,
    max_relative_error,
    nnls_enumeration,
    simplex_ls_enumeration,
)

warnings.filterwarnings("ignore", category=unmix.MaxItersWarning)


def report(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


# ---------------------------------------------------------------- criterion 1
def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        R = int(rng.integers(2, 7))
        T = int(rng.integers(1, 9))
        L = int(rng.integers(max(5, R), 21))
        sigma = float(rng.uniform(0.1, 10.0))
        M = rng.uniform(0.05, 1.0, size=(L, R))
        X = rng.dirichlet(np.ones(R), size=T).T
        Y = M @ X + 0.3 * sigma * rng.standard_normal((L, T))
        h = validate_problem(Y, M)

        G = gradient_full(h, X, sigma)
        G_fd = central_difference_gradient(lambda Z: objective_C(h, Z, sigma), X)
        worst = max(worst, max_relative_error(G_fd, G))

        Xr = X[:-1]
        Gr = gradient_reduced_f1(h, Xr, sigma)
        Gr_fd = central_difference_gradient(lambda Z: objective_reduced_f1(h, Z, sigma), Xr)
        worst = max(worst, max_relative_error(Gr_fd, Gr))
    elapsed = time.time() - t0
    report(
        "1 gradient-correctness",
        worst < 1e-6 and elapsed < 10.0,
        f"(max rel err {worst:.2e}, {elapsed:.1f}s)",
    )


# ---------------------------------------------------------------- criterion 2
def test_criterion_2_ls_oracle():
    rng = np.random.default_rng(202)
    orth_ok = exact_ok = bitwise_ok = True
    for _ in range(10):
        L, R, T = 30, 4, 9
        M = rng.uniform(0.05, 1.0, size=(L, R))
        X_true = rng.dirichlet(np.ones(R), size=T).T
        # consistent system: exact recovery
        h_clean = validate_problem(M @ X_true, M)
        exact_ok &= bool(np.max(np.abs(solve_ls(h_clean).data - X_true)) < 1e-10)
        # noisy system: normal-equation orthogonality
        Y = M @ X_true + 0.3 * rng.standard_normal((L, T))
        h = validate_problem(Y, M)
        X_ls = solve_ls(h).data
        resid = np.max(np.abs(M.T @ (Y - M @ X_ls)))
        orth_ok &= bool(resid < 1e-10 * np.linalg.norm(M) * np.linalg.norm(Y))
        # pixel-separable equivalence, bitwise
        for t in range(T):
            col = solve_ls(validate_problem(Y[:, [t]], M)).data[:, 0]
            bitwise_ok &= bool(np.array_equal(col, X_ls[:, t]))
    report(
        "2 ls-oracle",
        orth_ok and exact_ok and bitwise_ok,
        f"(orthogonality {orth_ok}, exact recovery {exact_ok}, bitwise separability {bitwise_ok})",
    )


# ---------------------------------------------------------------- criterion 3
def test_criterion_3_baseline_exactness():
    rng = np.random.default_rng(303)
    worst_fcls = worst_nnls = 0.0
    for _ in range(8):
        L = int(rng.integers(6, 15))
        R = int(rng.integers(2, 5))
        T = int(rng.integers(1, 6))
        M = rng.uniform(0.05, 1.0, size=(L, R))
        Y = M @ rng.dirichlet(np.ones(R), size=T).T + 0.5 * rng.standard_normal((L, T))
        h = validate_problem(Y, M)
        Xf = solve_fcls(h).data
        Xs = solve_sunsal_sparse(h, 0.0).data
        for t in range(T):
            worst_fcls = max(
                worst_fcls, float(np.max(np.abs(Xf[:, t] - simplex_ls_enumeration(M, Y[:, t]))))
            )
            worst_nnls = max(
                worst_nnls, float(np.max(np.abs(Xs[:, t] - nnls_enumeration(M, Y[:, t]))))
            )
    report(
        "3 baseline-exactness",
        worst_fcls < 1e-6 and worst_nnls < 1e-6,
        f"(fcls vs enumeration {worst_fcls:.2e}, nnls vs enumeration {worst_nnls:.2e})",
    )


# ------------------------------------------------------- criteria 4 and 7a
@pytest.fixture(scope="module")
def clean_problem():
    M = gen_endmembers(3, 50, seed=40)
    spec = SyntheticSpec(model="lmm", R=3, L=50, T=100, snr_db=math.inf, seed=41)
    Y, truth = gen_cube(M, spec)
    return validate_problem(Y, M), truth


def test_criterion_4_large_sigma_consistency(clean_problem):
    h, truth = clean_problem
    t0 = time.time()
    sigma = 1e3 * float(np.abs(h.Y).max())
    X_fc, _ = cusal_fc(h, SolverConfig(sigma=sigma))
    err_fc = rmse(solve_fcls(h), X_fc)
    X_sp, _ = cusal_sp(h, SolverConfig(sigma=sigma, lam=0.0))
    err_sp = rmse(solve_sunsal_sparse(h, 0.0), X_sp)
    elapsed = time.time() - t0
    report(
        "4 large-sigma-consistency",
        err_fc < 1e-3 and err_sp < 1e-3 and elapsed < 60.0,
        f"(fc vs fcls {err_fc:.2e}, sp vs nnls {err_sp:.2e}, {elapsed:.1f}s)",
    )


# ------------------------------------------------------- criterion 5 fixture
CRIT5_SEEDS = (1, 2, 3, 4, 5)
CRIT5_CORRUPT = (0, 20, 40, 60)


@pytest.fixture(scope="module")
def crit5_results():
    M = gen_endmembers(3, 244, seed=50)
    config = SolverConfig(sigma_auto=True, max_outer_iters=150)
    results = {}
    traces = []
    t0 = time.time()
    for n_corrupt in CRIT5_CORRUPT:
        for seed in CRIT5_SEEDS:
            spec = SyntheticSpec(
                model="lmm", R=3, L=244, T=400, snr_db=35.0, n_corrupt=n_corrupt, seed=seed
            )
            Y, truth = gen_cube(M, spec)
            h = validate_problem(Y, M)
            sigma, trace, X_fc, rep = _tune(h, "fc", config, None, None)
            results[(n_corrupt, seed)] = {
                "cusal": rmse(truth.X_true, X_fc),
                "fcls": rmse(truth.X_true, solve_fcls(h)),
            }
            traces.append(trace)
    return results, traces, time.time() - t0


@pytest.mark.slow
def test_criterion_5_robustness_ordering(crit5_results):
    results, _, elapsed = crit5_results
    medians = {
        alg: {
            c: statistics.median(results[(c, s)][alg] for s in CRIT5_SEEDS)
            for c in CRIT5_CORRUPT
        }
        for alg in ("cusal", "fcls")
    }
    ordering = all(medians["cusal"][c] < medians["fcls"][c] for c in (20, 40, 60))
    degradation = medians["cusal"][40] <= 2.0 * medians["cusal"][0]
    fmt_c = ["%.4f" % medians["cusal"][c] for c in CRIT5_CORRUPT]
    fmt_f = ["%.4f" % medians["fcls"][c] for c in CRIT5_CORRUPT]
    detail = f"(median RMSE cusal {fmt_c} vs fcls {fmt_f}, {elapsed:.0f}s)"
    report("5 robustness-ordering", ordering and degradation and elapsed < 600.0, detail)


# ------------------------------------------------------- criterion 6 fixture
CRIT6_SEEDS = (1, 2, 3, 4, 5)
LAMBDA_GRID = (1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 1e-2, 1e-1)


@pytest.fixture(scope="module")
def crit6_results():
    M = gen_endmembers(20, 244, seed=60, min_angle_deg=10.0)
    results = []
    traces = []
    t0 = time.time()
    for seed in CRIT6_SEEDS:
        spec = SyntheticSpec(
            model="lmm", R=20, L=244, T=225, snr_db=30.0, n_corrupt=40, sparsity_K=4, seed=seed
        )
        Y, truth = gen_cube(M, spec)
        h = validate_problem(Y, M)
        X0 = solve_sunsal_sparse(h, 0.0).data
        best_cusal = -math.inf
        for lam in LAMBDA_GRID:
            config = SolverConfig(sigma_auto=True, lam=lam, max_outer_iters=200)
            sigma, trace, X_sp, rep = _tune(h, "sp", config, X0, None)
            traces.append(trace)
            best_cusal = max(best_cusal, sre_db(truth.X_true, X_sp))
        best_sunsal = max(
            sre_db(truth.X_true, solve_sunsal_sparse(h, lam)) for lam in LAMBDA_GRID
        )
        results.append({"cusal": best_cusal, "sunsal": best_sunsal})
    return results, traces, time.time() - t0


@pytest.mark.slow
def test_criterion_6_sparse_robustness_ordering(crit6_results):
    results, _, elapsed = crit6_results
    med_cusal = statistics.median(r["cusal"] for r in results)
    med_sunsal = statistics.median(r["sunsal"] for r in results)
    report(
        "6 sparse-robustness-ordering",
        med_cusal > med_sunsal and elapsed < 900.0,
        f"(median SRE cusal-sp {med_cusal:.2f} dB vs sunsal-sparse {med_sunsal:.2f} dB, {elapsed:.0f}s)",
    )


# ---------------------------------------------------------------- criterion 7
@pytest.mark.slow
def test_criterion_7_tuner_contract(clean_problem, crit5_results, crit6_results):
    h_clean, _ = clean_problem
    _, traces5, _ = crit5_results
    _, traces6, _ = crit6_results
    all_traces = list(traces5) + list(traces6)
    # the clean instance of criterion 4, tuned for both algorithms
    for algorithm in ("fc", "sp"):
        _, trace = tune_sigma(h_clean, algorithm, SolverConfig(sigma_auto=True, max_outer_iters=150))
        all_traces.append(trace)
    within_cap = all(len(t.attempts) <= 60 for t in all_traces)
    accepted = all(
        t.attempts[-1].outcome.value == "converged" and t.attempts[-1].ratio < 2.0
        for t in all_traces
    )
    report(
        "7 tuner-contract",
        within_cap and accepted,
        f"({len(all_traces)} traces, max attempts {max(len(t.attempts) for t in all_traces)}, "
        f"max accepted ratio {max(t.attempts[-1].ratio for t in all_traces):.3f})",
    )


# ---------------------------------------------------------------- criterion 8
def test_criterion_8_admm_invariant_suite():
    M = gen_endmembers(3, 60, seed=80)
    spec = SyntheticSpec(model="lmm", R=3, L=60, T=40, snr_db=30.0, n_corrupt=10, seed=81)
    Y, _ = gen_cube(M, spec)
    h = validate_problem(Y, M)

    failures = []
    fc_iters = {"n": 0}

    def fc_hook(prev, nxt):
        fc_iters["n"] += 1
        if nxt.z.min() < 0.0:
            failures.append(f"fc z negative at k={nxt.k}")
        if np.max(np.abs(nxt.u - prev.u + nxt.x - nxt.z)) > 1e-15:
            failures.append(f"fc u-identity broken at k={nxt.k}")
        cols = nxt.x.sum(axis=0)
        if np.max(np.abs(cols - 1.0)) > 1e-12:
            failures.append(f"fc column sums off at k={nxt.k}")

    cusal_fc(h, SolverConfig(sigma_auto=True, max_outer_iters=150), on_iteration=fc_hook)

    sp_iters = {"n": 0}

    def sp_hook(prev, nxt):
        sp_iters["n"] += 1
        if nxt.z.min() < 0.0:
            failures.append(f"sp z negative at k={nxt.k}")
        if np.max(np.abs(nxt.u - prev.u + nxt.x - nxt.z)) > 1e-15:
            failures.append(f"sp u-identity broken at k={nxt.k}")

    cusal_sp(
        h, SolverConfig(sigma_auto=True, lam=1e-4, max_outer_iters=150), on_iteration=sp_hook
    )

    # the stopping thresholds are sqrt(R*T) * 1e-5 for any (R, T)
    thresholds_ok = True
    for n, expected in ((10000, 1e-3), (1200, math.sqrt(1200) * 1e-5), (4, 2e-5)):
        prev = AdmmState(x=np.zeros(n), z=np.zeros(n), u=np.zeros(n), k=0)
        x = np.zeros(n)
        x[0] = expected * (1 - 1e-12)
        nxt = AdmmState(x=x, z=np.zeros(n), u=np.zeros(n), k=1)
        if stop_check(prev, nxt, SolverConfig()) != Termination.RESIDUALS_SMALL:
            thresholds_ok = False
        x2 = np.zeros(n)
        x2[0] = expected * (1 + 1e-9)
        nxt2 = AdmmState(x=x2, z=np.zeros(n), u=np.zeros(n), k=1)
        if stop_check(prev, nxt2, SolverConfig()) == Termination.RESIDUALS_SMALL:
            thresholds_ok = False

    report(
        "8 admm-invariants",
        not failures and thresholds_ok and fc_iters["n"] > 0 and sp_iters["n"] > 0,
        f"({fc_iters['n']} fc + {sp_iters['n']} sp iterations checked, "
        f"threshold formula {thresholds_ok}; failures: {failures[:3]})",
    )


# ---------------------------------------------------------------- criterion 9
def test_criterion_9_experiment_determinism(tmp_path, monkeypatch):
    from unmix.cli import main

    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "model = lmm\nR = 3\nL = 40\nT = 25\nsnr_db = 25\ncorrupt_list = 0,8\n"
        "algorithms = ls,fcls,cusal-fc\nseeds = 1,2\nmetric = rmse\nmax_outer_iters = 150\n"
    )
    outs = [tmp_path / f"t{i}.tsv" for i in range(3)]
    monkeypatch.setenv("UNMIX_THREADS", "1")
    assert main(["experiment", str(cfg), "--out", str(outs[0])]) == 0
    assert main(["experiment", str(cfg), "--out", str(outs[1])]) == 0
    monkeypatch.setenv("UNMIX_THREADS", "4")
    assert main(["experiment", str(cfg), "--out", str(outs[2])]) == 0
    b = [o.read_bytes() for o in outs]
    identical = b[0] == b[1] == b[2]
    report(
        "9 experiment-determinism",
        identical,
        f"({len(b[0])} bytes, serial x2 and 4 threads identical: {identical})",
    )
