"""ADMM solvers for the correntropy unmixing problems.

The generic scaffold alternates an inexact x-minimization, a proximal z-step,
and the scaled dual update, with the splitting x = z. The fully-constrained
solver works in the reduced variables (last abundance row eliminated by the
sum-to-one constraint) inside its x-update and reconstructs the full vector
afterwards; the sparsity-promoting solver works in the full variables and uses
soft thresholding plus projection in its z-step.

Stacked vectors follow the pixel-major convention x = [x_1' ... x_T']', i.e.
`vec = X.T.ravel()` for an R x T abundance matrix.

A solver instance is single-threaded in its outer loop and holds no shared
mutable state, so distinct instances on distinct problems can run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from . import baselines
from .core import (
    AbundanceMatrix,
    InnerSolverFailure,
    InvalidInput,
    NonFiniteIterate,
    ProblemHandle,
    SolverConfig,
    SolverReport,
    Termination,
    TuningFailed,
    _project_columns_to_simplex,
    project_nonnegative,
    soft_threshold,
)
from .correntropy import (
    gradient_full,
    gradient_reduced_f1,
    objective_C,
    objective_reduced_f1,
    reconstruct_full,
)

_ARMIJO_C = 1e-4
# Relative gradient-norm tolerance of the inner descent in both solvers.
_INNER_TOL = 1e-6
_MAX_HALVINGS = 60
_TUNER_ATTEMPT_CAP = 60
_TUNER_GROWTH = 1.2
_TUNER_OVERESTIMATE = 1000.0
_TUNER_RATIO_LIMIT = 2.0


@dataclass(frozen=True)
class AdmmState:
    """One ADMM iterate: stacked primal x, split variable z, scaled dual u."""

    x: np.ndarray
    z: np.ndarray
    u: np.ndarray
    k: int = 0

    def __post_init__(self):
        for name in ("x", "z", "u"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise InvalidInput(f"{name} must be a 1-D stacked vector")
            object.__setattr__(self, name, arr)
        if not (self.x.shape == self.z.shape == self.u.shape):
            raise InvalidInput("x, z, u must have equal lengths")


class TuneOutcome(Enum):
    CONVERGED = "converged"
    DIVERGED = "diverged"
    RATIO_TOO_LARGE = "ratio_too_large"


@dataclass(frozen=True)
class TuningAttempt:
    sigma: float
    outcome: TuneOutcome
    ratio: Optional[float] = None


@dataclass(frozen=True)
class TuningTrace:
    """History of the bandwidth search: every sigma tried and why it moved on."""

    sigma0: float
    attempts: tuple
    p: int
    sigma_final: float

    def __post_init__(self):
        object.__setattr__(self, "attempts", tuple(self.attempts))
        if not (self.sigma_final > 0):
            raise InvalidInput("sigma_final must be positive")
        if not self.attempts or self.attempts[-1].outcome != TuneOutcome.CONVERGED:
            raise InvalidInput("a finished trace must end in a converged attempt")


def stop_check(state_prev: AdmmState, state_next: AdmmState, config: SolverConfig) -> Termination:
    """Three-fold outer stopping rule.

    Residual thresholds are sqrt(n) * eps_primal and sqrt(n) * eps_dual for n
    stacked coordinates. Precedence: small residuals, then primal increase,
    then the iteration cap.
    """
    n = state_next.x.size
    eps1 = np.sqrt(n) * config.eps_primal
    eps2 = np.sqrt(n) * config.eps_dual
    primal_next = float(np.linalg.norm(state_next.x - state_next.z))
    dual_next = config.rho * float(np.linalg.norm(state_next.z - state_prev.z))
    if primal_next <= eps1 and dual_next <= eps2:
        return Termination.RESIDUALS_SMALL
    primal_prev = float(np.linalg.norm(state_prev.x - state_prev.z))
    if primal_next > primal_prev:
        return Termination.PRIMAL_INCREASED
    if state_next.k >= config.max_outer_iters:
        return Termination.MAX_ITERS
    return Termination.CONTINUE


# A strict per-iteration primal increase counts as divergence only when the
# residual has also grown by _DIVERGENCE_GROWTH over the trailing window and
# still exceeds its threshold. Healthy runs of the inexact solvers jitter by
# tens of percent while trending down; exploding bandwidths trip this within
# a window and a half, and merely stalled runs fall through to the iteration
# cap where the tuner's reconstruction-ratio check decides.
_DIVERGENCE_WINDOW = 10
_DIVERGENCE_GROWTH = 1.5


def admm_generic(
    f_solver: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    g_prox: Callable[[np.ndarray], np.ndarray],
    config: SolverConfig,
    init: AdmmState,
    *,
    objective_fn: Optional[Callable[[np.ndarray], float]] = None,
    on_iteration: Optional[Callable[[AdmmState, AdmmState], None]] = None,
    sigma_used: Optional[float] = None,
):
    """Run the scaled-form ADMM loop until the stopping rule fires.

    f_solver(x_prev, z_k, u_k) performs the (possibly inexact) x-minimization;
    g_prox(v) evaluates the proximal map of g at v = x_{k+1} - u_k.

    The small-residual and iteration-cap rules apply exactly as in stop_check.
    A strict one-step primal increase counts as divergence only when the
    residual also shows net growth over the trailing window and still exceeds
    its threshold; warm starts make the raw one-step comparison fire on
    harmless jitter otherwise.

    Returns the final state and a SolverReport with per-iteration residuals.
    """
    if not (np.all(np.isfinite(init.x)) and np.all(np.isfinite(init.z)) and np.all(np.isfinite(init.u))):
        raise InvalidInput("initial state must be finite")
    state = init
    primal_hist: list[float] = []
    dual_hist: list[float] = []
    obj_hist: list[float] = []
    eps1 = np.sqrt(init.x.size) * config.eps_primal
    decision = Termination.CONTINUE
    while decision == Termination.CONTINUE:
        x_new = np.asarray(f_solver(state.x, state.z, state.u), dtype=float)
        if not np.all(np.isfinite(x_new)):
            raise InnerSolverFailure("x-update produced non-finite values")
        z_new = np.asarray(g_prox(x_new - state.u), dtype=float)
        u_new = state.u - (x_new - z_new)
        nxt = AdmmState(x=x_new, z=z_new, u=u_new, k=state.k + 1)
        primal_hist.append(float(np.linalg.norm(x_new - z_new)))
        dual_hist.append(config.rho * float(np.linalg.norm(z_new - state.z)))
        obj_hist.append(float(objective_fn(x_new)) if objective_fn is not None else float("nan"))
        if on_iteration is not None:
            on_iteration(state, nxt)
        decision = stop_check(state, nxt, config)
        if decision == Termination.PRIMAL_INCREASED:
            n = len(primal_hist)
            sustained = (
                n > _DIVERGENCE_WINDOW
                and primal_hist[-1] > _DIVERGENCE_GROWTH * primal_hist[-1 - _DIVERGENCE_WINDOW]
                and primal_hist[-1] > eps1
            )
            if not sustained:
                decision = (
                    Termination.MAX_ITERS
                    if nxt.k >= config.max_outer_iters
                    else Termination.CONTINUE
                )
        state = nxt
    report = SolverReport(
        iterations_run=len(primal_hist),
        primal_residuals=tuple(primal_hist),
        dual_residuals=tuple(dual_hist),
        objective_trace=tuple(obj_hist),
        termination_reason=decision,
        sigma_used=sigma_used,
    )
    return state, report


def inner_gradient_descent(
    grad_fn: Callable[[np.ndarray], np.ndarray],
    objective_fn: Callable[[np.ndarray], float],
    x_init: np.ndarray,
    eta: float,
    max_inner_iters: int,
    inner_tol: float,
) -> np.ndarray:
    """Gradient descent with Armijo backtracking (halving) on the step size.

    Stops when ||grad|| <= inner_tol * (1 + ||x||) or after max_inner_iters
    steps. The step resets to eta on every call; within a call, an accepted
    halved step is kept for the following iterations.
    """
    if not (eta > 0):
        raise InvalidInput("eta must be positive")
    x = np.array(x_init, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NonFiniteIterate("inner descent started from a non-finite point")
    f = float(objective_fn(x))
    if not np.isfinite(f):
        raise NonFiniteIterate("inner objective is non-finite at the starting point")
    step = float(eta)
    for _ in range(max_inner_iters):
        g = np.asarray(grad_fn(x), dtype=float)
        if not np.all(np.isfinite(g)):
            raise NonFiniteIterate("inner gradient is non-finite")
        gnorm = float(np.linalg.norm(g))
        if gnorm <= inner_tol * (1.0 + float(np.linalg.norm(x))):
            break
        accepted = False
        for _ in range(_MAX_HALVINGS):
            x_try = x - step * g
            f_try = float(objective_fn(x_try))
            if np.isfinite(f_try) and f_try <= f - _ARMIJO_C * step * gnorm**2:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        x, f = x_try, f_try
    if not np.all(np.isfinite(x)):
        raise NonFiniteIterate("inner descent produced a non-finite iterate")
    return x


def _vec(X: np.ndarray) -> np.ndarray:
    return X.T.ravel()


def _mat(v: np.ndarray, R: int, T: int) -> np.ndarray:
    return v.reshape(T, R).T


def _default_eta(sigma: float, A: np.ndarray, quad_curvature: float) -> float:
    """Inner step size: inverse of a curvature bound of the inner objective.

    The data term contributes at most ||A||_2^2 / sigma^2 (A is the mixing
    operator seen by the inner variables), the coupling term quad_curvature;
    Armijo halving absorbs the nonconvex remainder.
    """
    lip = float(np.linalg.norm(A, 2)) ** 2 / sigma**2 + quad_curvature
    return 1.0 / lip


def _feasible_fc(Z: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Renormalize the z iterate's columns to exact unit sum; fall back to the
    simplex projection of the x column when z degenerates to all zeros."""
    sums = Z.sum(axis=0)
    bad = sums <= 1e-300
    out = Z / np.where(bad, 1.0, sums)[np.newaxis, :]
    if np.any(bad):
        out[:, bad] = _project_columns_to_simplex(X[:, bad])
    return out


def _run_admm(
    handle: ProblemHandle, config: SolverConfig, sigma: float, f_solver, g_prox, X0, on_iteration
):
    """The ADMM run both problems share: x and z start at the warm start X0, the
    scaled dual at zero, and the report traces objective_C at sigma. Returns the
    final state and the report."""
    x0 = _vec(np.asarray(X0, dtype=float))
    init = AdmmState(x=x0, z=x0.copy(), u=np.zeros_like(x0))
    return admm_generic(
        f_solver,
        g_prox,
        config,
        init,
        objective_fn=lambda x_vec: objective_C(handle, _mat(x_vec, handle.R, handle.T), sigma),
        on_iteration=on_iteration,
        sigma_used=sigma,
    )


def _run_cusal_fc(handle: ProblemHandle, config: SolverConfig, sigma: float, X0, on_iteration):
    R, T = handle.R, handle.T
    if R < 2:
        raise InvalidInput("the fully-constrained solver needs at least two endmembers")
    Mbar = handle.M[:, :-1] - handle.M[:, -1][:, np.newaxis]
    eta = _default_eta(sigma, Mbar, config.rho * R)

    def f_solver(x_prev: np.ndarray, z: np.ndarray, u: np.ndarray) -> np.ndarray:
        Zk = _mat(z, R, T)
        Uk = _mat(u, R, T)
        xr0 = _mat(x_prev, R, T)[:-1, :]

        def obj(xr_vec: np.ndarray) -> float:
            Xr = xr_vec.reshape(T, R - 1).T
            diff = reconstruct_full(Xr) - Zk - Uk
            return objective_reduced_f1(handle, Xr, sigma) + 0.5 * config.rho * float(
                np.sum(diff * diff)
            )

        def grad(xr_vec: np.ndarray) -> np.ndarray:
            Xr = xr_vec.reshape(T, R - 1).T
            G = gradient_reduced_f1(handle, Xr, sigma)
            D = reconstruct_full(Xr) - Zk - Uk
            # chain rule through the eliminated row: free rows minus last row
            G = G + config.rho * (D[:-1, :] - D[-1:, :])
            return G.T.ravel()

        xr = inner_gradient_descent(
            grad, obj, xr0.T.ravel(), eta, config.max_inner_iters, _INNER_TOL
        )
        return _vec(reconstruct_full(xr.reshape(T, R - 1).T))

    state, report = _run_admm(
        handle, config, sigma, f_solver, project_nonnegative, X0, on_iteration
    )
    X = _feasible_fc(_mat(state.z, R, T), _mat(state.x, R, T))
    return AbundanceMatrix(X, tag="fully_constrained"), report


def _run_cusal_sp(handle: ProblemHandle, config: SolverConfig, sigma: float, X0, on_iteration):
    R, T = handle.R, handle.T
    eta = _default_eta(sigma, handle.M, config.rho)
    thresh = config.lam / config.rho

    def f_solver(x_prev: np.ndarray, z: np.ndarray, u: np.ndarray) -> np.ndarray:
        v = z + u

        def obj(x_vec: np.ndarray) -> float:
            d = x_vec - v
            return objective_C(handle, _mat(x_vec, R, T), sigma) + 0.5 * config.rho * float(
                d @ d
            )

        def grad(x_vec: np.ndarray) -> np.ndarray:
            G = gradient_full(handle, _mat(x_vec, R, T), sigma)
            return _vec(G) + config.rho * (x_vec - v)

        return inner_gradient_descent(grad, obj, x_prev, eta, config.max_inner_iters, _INNER_TOL)

    def g_prox(v: np.ndarray) -> np.ndarray:
        return project_nonnegative(soft_threshold(v, thresh))

    state, report = _run_admm(handle, config, sigma, f_solver, g_prox, X0, on_iteration)
    return AbundanceMatrix(_mat(state.z, R, T), tag="nonnegative"), report


# Each problem's runner and the default warm start of its runs, fixed-bandwidth
# or tuned. The sp start is the nonnegative least-squares fit: feasible, and its
# residual stays on the least-squares scale, which keeps the kernel weights
# alive at the data-driven starting bandwidth. Clipping the plain LS solution
# can land far outside the kernel width when the endmembers are strongly
# correlated.
_PROBLEMS = {
    "fc": (_run_cusal_fc, lambda h: _project_columns_to_simplex(baselines.solve_ls(h).data)),
    "sp": (_run_cusal_sp, lambda h: baselines.solve_sunsal_sparse(h, 0.0).data),
}


def reconstruction_ratio(handle: ProblemHandle, X) -> float:
    """Frobenius residual of X relative to the least-squares residual.

    When the least-squares fit is exact the ratio is reported as 0 for an
    (essentially) exact X and infinity otherwise.
    """
    Xdata = X.data if isinstance(X, AbundanceMatrix) else np.asarray(X, dtype=float)
    num = float(np.linalg.norm(handle.Y - handle.M @ Xdata))
    denom = float(np.linalg.norm(handle.Y - handle.M @ baselines.solve_ls(handle).data))
    if denom > 0:
        return num / denom
    atol = 1e-12 * max(1.0, float(np.linalg.norm(handle.Y)))
    return 0.0 if num <= atol else float("inf")


def _sigma_floor(handle: ProblemHandle) -> float:
    return 1e-6 * max(1.0, float(np.linalg.norm(handle.Y)) / np.sqrt(handle.L * handle.T))


def _initial_sigma(handle: ProblemHandle) -> tuple[float, float]:
    """Raw data-driven bandwidth and its positive floored version."""
    X_ls = baselines.solve_ls(handle).data
    resid = float(np.linalg.norm(handle.Y - handle.M @ X_ls))
    sigma0_raw = np.sqrt(handle.R / (8.0 * handle.L)) * resid
    return sigma0_raw, max(sigma0_raw, _sigma_floor(handle))


def _tune(handle: ProblemHandle, algorithm: str, config: SolverConfig, X0, on_iteration):
    runner, default_init = _PROBLEMS[algorithm]
    if X0 is None:
        # one warm start shared by every attempt
        X0 = default_init(handle)
    sigma0_raw, sigma0 = _initial_sigma(handle)
    sigma = sigma0
    p = 1
    attempts: list[TuningAttempt] = []
    for _ in range(_TUNER_ATTEMPT_CAP):
        X_hat, report = runner(handle, config, sigma, X0, on_iteration)
        if report.termination_reason in (Termination.RESIDUALS_SMALL, Termination.MAX_ITERS):
            ratio = reconstruction_ratio(handle, X_hat)
            if ratio < _TUNER_RATIO_LIMIT:
                attempts.append(TuningAttempt(sigma, TuneOutcome.CONVERGED, ratio))
                trace = TuningTrace(
                    sigma0=sigma0_raw, attempts=tuple(attempts), p=p, sigma_final=sigma
                )
                return sigma, trace, X_hat, report
            attempts.append(TuningAttempt(sigma, TuneOutcome.RATIO_TOO_LARGE, ratio))
            sigma = _TUNER_GROWTH * sigma
        else:
            attempts.append(TuningAttempt(sigma, TuneOutcome.DIVERGED, None))
            if sigma > _TUNER_OVERESTIMATE * sigma0:
                p += 1
                sigma = sigma0 / p
            else:
                sigma = _TUNER_GROWTH * sigma
    raise TuningFailed(
        f"no acceptable bandwidth within {_TUNER_ATTEMPT_CAP} attempts "
        f"(sigma0={sigma0:.4g}, last sigma={sigma:.4g})"
    )


def tune_sigma(handle: ProblemHandle, algorithm: str, config: SolverConfig):
    """Search for a workable kernel bandwidth.

    Starts from the data-driven value sigma0 (floored to a small positive
    number when the least-squares fit is exact), grows by a factor of 1.2 when
    the solve converges but reconstructs poorly or when it diverges at a
    moderate sigma, and restarts from sigma0 / p after divergence at an
    overestimated sigma. Returns the accepted bandwidth and the attempt trace.
    """
    if algorithm not in _PROBLEMS:
        raise InvalidInput("algorithm must be 'fc' or 'sp'")
    sigma, trace, _, _ = _tune(handle, algorithm, config, None, None)
    return sigma, trace


def _solve(handle: ProblemHandle, algorithm: str, config: SolverConfig, X0, on_iteration):
    """cusal_fc and cusal_sp: tune the bandwidth, or run once at config.sigma."""
    if config.sigma_auto:
        _, _, X, report = _tune(handle, algorithm, config, X0, on_iteration)
        return X, report
    if config.sigma is None:
        raise InvalidInput("config.sigma must be set unless sigma_auto is enabled")
    runner, default_init = _PROBLEMS[algorithm]
    if X0 is None:
        X0 = default_init(handle)
    return runner(handle, config, config.sigma, X0, on_iteration)


def cusal_fc(
    handle: ProblemHandle,
    config: SolverConfig,
    X0: Optional[np.ndarray] = None,
    *,
    on_iteration=None,
):
    """Fully-constrained correntropy unmixing.

    The x-update minimizes the reduced objective plus the scaled quadratic
    coupling by warm-started gradient descent, reconstructs the full vector
    (unit column sums by construction), projects for z, and updates the dual.
    Returns the feasible solution (nonnegative, exact unit column sums) and the
    run report. With config.sigma_auto the bandwidth tuner drives the solve and
    the accepted attempt is returned.
    """
    return _solve(handle, "fc", config, X0, on_iteration)


def cusal_sp(
    handle: ProblemHandle,
    config: SolverConfig,
    X0: Optional[np.ndarray] = None,
    *,
    on_iteration=None,
):
    """Sparsity-promoting correntropy unmixing (nonnegativity plus l1 penalty).

    The x-update runs warm-started gradient descent on the full variables; the
    z-update soft-thresholds by lam/rho and projects onto the first orthant.
    Returns the nonnegative z iterate and the run report. With
    config.sigma_auto the bandwidth tuner drives the solve.
    """
    return _solve(handle, "sp", config, X0, on_iteration)


@dataclass(frozen=True)
class Algorithm:
    """One unmixing algorithm as the CLI and the experiment runner see it.

    takes_lambda    the algorithm reads the l1 weight config.lam.
    correntropy     the algorithm takes the correntropy solver options
                    (bandwidth, rho, iteration caps); the inner step and
                    tolerance are fixed, not options.
    solve           solve(handle, config) -> (abundances, report or None).
    """

    takes_lambda: bool
    correntropy: bool
    solve: Callable[[ProblemHandle, SolverConfig], tuple]


# Every entry looks its solver up at call time, so a replaced module attribute
# (a wrapper that times or counts solver calls) is what runs.
ALGORITHMS = {
    "ls": Algorithm(False, False, lambda h, c: (baselines.solve_ls(h), None)),
    "fcls": Algorithm(False, False, lambda h, c: (baselines.solve_fcls(h), None)),
    "sunsal-sparse": Algorithm(
        True, False, lambda h, c: (baselines.solve_sunsal_sparse(h, c.lam), None)
    ),
    "cusal-fc": Algorithm(False, True, lambda h, c: cusal_fc(h, c)),
    "cusal-sp": Algorithm(True, True, lambda h, c: cusal_sp(h, c)),
}
