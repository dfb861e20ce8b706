"""ADMM solvers for the correntropy unmixing problems.

The generic scaffold alternates an inexact x-minimization, a proximal z-step,
and the scaled dual update, with the splitting x = z. Both problems share one
x-update (_HalfQuadratic.x_update): it minimizes the kernel term of the fit plus
the coupling rho/2 ||X(Xi) - (Z + U)||^2 over the problem's free variables
Xi, X(Xi) their full abundance matrix. They share one z-step too,
max(v - b, 0): soft thresholding by b followed by projection onto the first
orthant. Each problem supplies only its
parameterization, its kernel functions, its threshold b and its final
abundances. The fully-constrained solver's free variables are the reduced ones
(last abundance row eliminated by the sum-to-one constraint, which rebuilds it)
and its threshold is 0, so its z-step is the projection; the
sparsity-promoting solver's are the full abundances, and its threshold is
lam/rho.

Each run sets its own penalty from its first kernel pass, at the warm start:
rho = max(config.rho, lambda_min(M' W0 M) / sigma^2), W0 that pass's band
weights, so config.rho is the penalty's floor. A narrow kernel makes the data
term's curvature M' W M / sigma^2 large, and a coupling much weaker than it
leaves the x-update all but ignoring z + u, so the primal residual barely
falls (Boyd et al. 2011, sec. 3.4.1). The coupling, the threshold lam/rho,
the dual residual and the stopping rule all read that one rho, and it stays
fixed through the run; each tuner attempt sets its own.

The x-update takes half-quadratic (majorize-minimize) steps. The kernel term
-exp(-s / 2 sigma^2) is concave in the band energy s, so at the current iterate
the x-subproblem lies below the quadratic whose gradient there is g and whose
Hessian is, per pixel, the small SPD matrix P = E'(M' W M / sigma^2 + rho I)E
(W the band weights at the iterate, E the linear part of Xi -> X(Xi), so E'
is pull, rho the run's penalty). The step x - P^-1 g minimizes that
quadratic, so it lowers the objective by at least g' P^-1 g / 2; one product
of the small inverse P^-1 with the gradients of all T pixels makes one step.
The steps run in inner_gradient_descent at unit length; a step that fails its
sufficient-decrease test, which only rounding could cause, ends the x-update
at the point before it.

An x-update takes config.max_inner_iters steps at most, one by default. One
step from the previous iterate is majorized ADMM (Li, Sun & Toh, SIAM J.
Optim. 2016; Hong, Luo & Razaviyayn, SIAM J. Optim. 2016, for the nonconvex
case): the x-update minimizes the subproblem's majorizer exactly rather than
the subproblem. On the tuned grid-fc solves measured (fc and sp, both cube
seeds, with and without corrupted bands), 50 steps changed one outer
iteration count, by one.

A step costs one kernel pass (full matrix, residual, band energies, band
weights): the objective's at the trial point. The run keeps only the last pass
with its point, so the gradient there, W, the coupling residual, the
x-update's result, the next x-update's start value and the report's objective
trace at that result all read it. The pass at the warm start, which sets rho
before the loop, is the first x-update's start value. So a run evaluates the
kernel, and builds the full matrix, once at its warm start and once per trial
point, which with one step per x-update is at most once per outer iteration.
The passes build their residual in one L x T buffer that the run owns, so
they allocate no L x T array. The outer loop's stopping rule reads the two
residual norms of its report. The trace is the kernel term at the iterate:
objective_C at the full x, bit for bit, for both solvers.

The ADMM state is R x T abundance matrices throughout, the layout of every
other abundance iterate in the package: x, z and u are R x T arrays, the
x-update works on the free leading rows of x and solves for all pixels as the
columns of one right-hand side, and the residual norms are Frobenius norms.

A solver instance is single-threaded in its outer loop and holds no shared
mutable state, so distinct instances on distinct problems can run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Optional

import numpy as np

from . import baselines
from .core import (
    AbundanceMatrix,
    DimensionMismatch,
    InnerSolverFailure,
    InvalidInput,
    NonFiniteIterate,
    ProblemHandle,
    SolverConfig,
    SolverReport,
    Termination,
    TuningFailed,
    _dot,
    _norm,
    _project_columns_to_simplex,
    _shrink_nonnegative,
)
from .correntropy import (
    ResidualCache,
    gradient_full,
    gradient_reduced_f1,
    objective_C,
    objective_reduced_f1,
    pull,
)

# Sufficient-decrease constant and relative gradient-norm tolerance of the
# inner descent in both solvers.
_ARMIJO_C = 1e-4
_INNER_TOL = 1e-6
_TUNER_ATTEMPT_CAP = 60
_TUNER_GROWTH = 1.2
_TUNER_OVERESTIMATE = 1000.0
_TUNER_RATIO_LIMIT = 2.0
# The tuner's smallest starting bandwidth, relative to the data's RMS scale.
_SIGMA_FLOOR = 1e-6


@dataclass(frozen=True)
class AdmmState:
    """One ADMM iterate: primal x, split variable z, scaled dual u, float arrays
    of one shape (R x T abundance matrices in the correntropy solvers)."""

    x: np.ndarray
    z: np.ndarray
    u: np.ndarray
    k: int = 0

    def __post_init__(self):
        for name in ("x", "z", "u"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (self.x.shape == self.z.shape == self.u.shape):
            raise InvalidInput("x, z, u must have one shape")


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

    Residual thresholds are sqrt(n) * eps_primal and sqrt(n) * eps_dual for the
    n entries of x (R * T for an abundance matrix). Precedence: small
    residuals, then primal increase, then the iteration cap.
    """
    primal_prev, primal = _norm(state_prev.x - state_prev.z), _norm(state_next.x - state_next.z)
    dual = config.rho * _norm(state_next.z - state_prev.z)
    return _decide(primal_prev, primal, dual, state_next.k, state_next.x.size, config)


def _decide(primal_prev, primal, dual, k: int, n: int, config: SolverConfig) -> Termination:
    """stop_check's rule, from the residual norms at iterate k of n coordinates."""
    if primal <= math.sqrt(n) * config.eps_primal and dual <= math.sqrt(n) * config.eps_dual:
        return Termination.RESIDUALS_SMALL
    if primal > primal_prev:
        return Termination.PRIMAL_INCREASED
    if k >= config.max_outer_iters:
        return Termination.MAX_ITERS
    return Termination.CONTINUE


# A strict per-iteration primal increase counts as divergence only when the
# residual exceeds _DIVERGENCE_GROWTH times the largest residual of the
# preceding window and still exceeds its threshold. Healthy runs trend down but
# can spike: with exact half-quadratic x-updates a lone residual jumps by up to
# 2x now and then (7.2e-4 -> 1.03e-3 on one criterion-6 cube) and is absorbed
# within a few iterations, and such a spike stays below 1.5 times the window's
# earlier peaks. A residual that keeps outgrowing everything before it is
# divergence; merely stalled runs fall through to the iteration cap, where the
# tuner's reconstruction-ratio check decides.
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
    g_prox(v) evaluates the proximal map of g at v = x_{k+1} - u_k, a new
    array that it may overwrite.

    The small-residual and iteration-cap rules apply exactly as in stop_check.
    A strict one-step primal increase counts as divergence only when the
    residual also exceeds _DIVERGENCE_GROWTH times the largest residual of the
    preceding _DIVERGENCE_WINDOW iterations and still exceeds its threshold;
    the raw one-step comparison fires on harmless spikes otherwise.
    on_iteration(prev, next) must not modify the states in place.

    Returns the final state and a SolverReport with per-iteration residuals.
    """
    if not (np.isfinite(init.x).all() and np.isfinite(init.z).all() and np.isfinite(init.u).all()):
        raise InvalidInput("initial state must be finite")
    state = init
    primal_hist: list[float] = []
    dual_hist: list[float] = []
    obj_hist: list[float] = []
    n = init.x.size
    eps1 = np.sqrt(n) * config.eps_primal
    primal_prev = _norm(init.x - init.z)
    decision = Termination.CONTINUE
    while decision == Termination.CONTINUE:
        x_new = np.asarray(f_solver(state.x, state.z, state.u), dtype=float)
        if not np.isfinite(x_new).all():
            raise InnerSolverFailure("x-update produced non-finite values")
        z_new = np.asarray(g_prox(x_new - state.u), dtype=float)
        u_new = state.u - (x_new - z_new)
        nxt = AdmmState(x=x_new, z=z_new, u=u_new, k=state.k + 1)
        primal_hist.append(_norm(x_new - z_new))
        dual_hist.append(config.rho * _norm(z_new - state.z))
        obj_hist.append(float(objective_fn(x_new)) if objective_fn is not None else float("nan"))
        if on_iteration is not None:
            on_iteration(state, nxt)
        decision = _decide(primal_prev, primal_hist[-1], dual_hist[-1], nxt.k, n, config)
        if decision == Termination.PRIMAL_INCREASED:
            sustained = (
                len(primal_hist) > _DIVERGENCE_WINDOW
                and primal_hist[-1]
                > _DIVERGENCE_GROWTH * max(primal_hist[-1 - _DIVERGENCE_WINDOW : -1])
                and primal_hist[-1] > eps1
            )
            if not sustained:
                decision = (
                    Termination.MAX_ITERS
                    if nxt.k >= config.max_outer_iters
                    else Termination.CONTINUE
                )
        state, primal_prev = nxt, primal_hist[-1]
    report = SolverReport(
        iterations_run=len(primal_hist),
        primal_residuals=tuple(primal_hist),
        dual_residuals=tuple(dual_hist),
        objective_trace=tuple(obj_hist),
        termination_reason=decision,
        sigma_used=sigma_used,
        rho_used=config.rho,
    )
    return state, report


def inner_gradient_descent(
    grad_fn: Callable[[np.ndarray], np.ndarray],
    objective_fn: Callable[[np.ndarray], float],
    x_init: np.ndarray,
    max_inner_iters: int,
    direction: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Majorize-minimize descent: steps x - d with d = direction(x, g).

    direction maps the iterate and its gradient g to the step d, with g'd > 0.
    A step is taken when f(x - d) <= f(x) - 1e-4 g'd; a step that fails this
    test ends the descent at x. Stops when ||g|| <= 1e-6 (1 + ||x||) or after
    max_inner_iters steps. Neither x_init nor the iterates are modified in
    place, and x_init is not copied: without a step the result is x_init.
    """
    x = np.asarray(x_init, dtype=float)
    if not np.isfinite(x).all():
        raise NonFiniteIterate("inner descent started from a non-finite point")
    f = float(objective_fn(x))
    if not math.isfinite(f):
        raise NonFiniteIterate("inner objective is non-finite at the starting point")
    for _ in range(max_inner_iters):
        g = np.asarray(grad_fn(x), dtype=float)
        if not np.isfinite(g).all():
            raise NonFiniteIterate("inner gradient is non-finite")
        if _norm(g) <= _INNER_TOL * (1.0 + _norm(x)):
            break
        d = np.asarray(direction(x, g), dtype=float)
        slope = float(_dot(g, d))
        if not math.isfinite(slope):
            raise NonFiniteIterate("inner descent direction is non-finite")
        x_try = x - d
        f_try = float(objective_fn(x_try))
        if not (math.isfinite(f_try) and f_try <= f - _ARMIJO_C * slope):
            break
        x, f = x_try, f_try
    if not np.isfinite(x).all():
        raise NonFiniteIterate("inner descent produced a non-finite iterate")
    return x


class _HalfQuadratic:
    """One run's x-subproblem and its half-quadratic x-update, for either
    parameterization of the abundances.

    The free variables Xi (the first n rows, n x T) give the full R x T matrix
    X(Xi), and the x-subproblem at (Z, U) is

        kernel(Xi) + rho/2 ||X(Xi) - (Z + U)||^2,

    kernel the correntropy term of the fit M X(Xi). With
    D = X(Xi) - (Z + U) its gradient is the kernel gradient plus
    rho pull(D), pull = E' the adjoint of the linear part E of Xi -> X(Xi).
    x_update(X_prev, Z, U) takes up to max_inner_iters steps of
    inner_gradient_descent (one by default) from the free rows of X_prev along
    P^-1 G, P = E'HE = pull(pull(H)')' with H = M' W M / sigma^2 + rho I,
    and returns X of the result, read-only. start(X0, floor) makes the run's
    first pass, at the warm start, and sets rho from it before the first
    x-update, which resumes from that pass; rho does not change after.

    kernel_objective and kernel_gradient are the correntropy functions of the
    parameterization (objective_reduced_f1 and gradient_reduced_f1 for the
    reduced variables, objective_C and gradient_full for the full ones),
    called with the run's handle, sigma and (L, T) residual buffer out, which
    every pass builds its residual in: the objective returns the kernel term
    at Xi with the ResidualCache of its pass, which holds X(Xi), and the
    gradient reads that cache. Only the last pass is kept, with its point
    (self.x; self.weights are its band weights), across the run's x-updates,
    so the value, the gradient, the direction and D at that point, the
    x-update's result and the trace there, and the start of the next x-update
    read it; any other point gets a pass of its own. Points are never modified
    in place, so a pass is known by its point's array. P is shared by every
    pixel, and SPD, so one product of inv(P) with all pixels' gradients
    serves the whole cube.
    """

    def __init__(
        self, handle: ProblemHandle, config: SolverConfig, sigma: float, n: int,
        kernel_objective, kernel_gradient, *, pull,
    ):
        self.handle, self.sigma, self.n, self.pull = handle, sigma, n, pull
        self.max_inner_iters = config.max_inner_iters
        self.kernel_objective, self.kernel_gradient = kernel_objective, kernel_gradient
        self.work = np.empty((handle.L, handle.T))
        # the last kernel pass: its point, its kernel term, its ResidualCache
        self.x = self.term = self.cache = None
        self.x0 = self.rho = None  # the warm start and the penalty, set by start

    @property
    def weights(self) -> np.ndarray:
        return self.cache.band_weights

    def curvature(self) -> np.ndarray:
        """M' W M / sigma^2, W the band weights of the last pass: a new array."""
        M = self.handle.M
        return (M.T * self.weights) @ M / self.sigma**2

    def start(self, X0: np.ndarray, rho_floor: float) -> float:
        """Make the run's first kernel pass, at the free rows of the warm start
        X0 (which must not change), and set rho = max(rho_floor, the smallest
        eigenvalue of the curvature there); the first x-update resumes from
        that pass. A curvature that overflows (a near-exact fit at a bandwidth
        near the float range) keeps the floor. Returns rho."""
        self.evaluate(X0[: self.n])
        self.x0 = X0
        with np.errstate(over="ignore"):
            H = self.curvature()
        if np.isfinite(H).all():
            self.rho = max(rho_floor, float(np.linalg.eigvalsh(H)[0]))
        else:
            self.rho = rho_floor
        return self.rho

    def evaluate(self, xi: np.ndarray) -> ResidualCache:
        if xi is not self.x:
            self.term, self.cache = self.kernel_objective(
                self.handle, xi, self.sigma, return_cache=True, out=self.work
            )
            self.x = xi
        return self.cache

    def gradient(self, xi: np.ndarray) -> np.ndarray:
        cache = self.evaluate(xi)
        return self.kernel_gradient(self.handle, xi, self.sigma, cache=cache, out=self.work)

    def direction(self, xi: np.ndarray, g: np.ndarray) -> np.ndarray:
        self.evaluate(xi)
        H = self.curvature()
        H.flat[:: self.handle.R + 1] += self.rho
        return np.linalg.inv(self.pull(self.pull(H).T).T) @ g

    def x_update(self, x_prev: np.ndarray, z: np.ndarray, u: np.ndarray) -> np.ndarray:
        V = z + u

        def objective(xi: np.ndarray) -> float:
            D = self.evaluate(xi).X - V
            return self.term + 0.5 * self.rho * float(np.sum(D * D))

        def gradient(xi: np.ndarray) -> np.ndarray:
            g = self.gradient(xi)
            return g + self.rho * self.pull(self.cache.X - V)

        # the last result and the warm start start from their passes; start's
        # pass rebuilt the warm start's X from its free rows, as its last row
        # need not be 1 - (column sums)
        resumed = x_prev is self.cache.X or x_prev is self.x0
        xi = self.x if resumed else x_prev[: self.n]
        xi = inner_gradient_descent(gradient, objective, xi, self.max_inner_iters, self.direction)
        X = self.evaluate(xi).X
        X.flags.writeable = False  # on_iteration sees the kept pass's matrix
        return X


def _feasible_fc(Z: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Renormalize the z iterate's columns to exact unit sum; fall back to the
    simplex projection of the x column when z degenerates to all zeros."""
    sums = Z.sum(axis=0)
    bad = sums <= 1e-300
    out = Z / np.where(bad, 1.0, sums)[np.newaxis, :]
    if np.any(bad):
        out[:, bad] = _project_columns_to_simplex(X[:, bad])
    return out


def _run_admm(config: SolverConfig, hq: _HalfQuadratic, lam: float, X0, on_iteration):
    """The ADMM run both problems share: x and z start at a read-only copy of
    the R x T warm start X0, the scaled dual at zero, x-updates are hq's, the
    z-step is max(v - lam/rho, 0) in place on v = x - u (lam = 0 projects onto
    the first orthant), and the report traces the kernel term at the free rows
    of every new x, which the x-update's last pass computed.

    hq.start makes the kernel pass at the warm start and sets the run's rho
    from it; the x-update, the threshold lam/rho and, through the config
    handed to admm_generic, the dual residual and the stopping rule read it.
    Returns the final state and the report."""
    x0 = np.array(X0, dtype=float, order="C")
    x0.flags.writeable = False
    rho = hq.start(x0, config.rho)
    init = AdmmState(x=x0, z=x0.copy(), u=np.zeros_like(x0))
    return admm_generic(
        hq.x_update,
        lambda v: _shrink_nonnegative(v, lam / rho),
        replace(config, rho=rho),
        init,
        objective_fn=lambda x: hq.term,
        on_iteration=on_iteration,
        sigma_used=hq.sigma,
    )


def _run_cusal_fc(handle: ProblemHandle, config: SolverConfig, sigma: float, X0, on_iteration):
    if handle.R < 2:
        raise InvalidInput("the fully-constrained solver needs at least two endmembers")
    # the free rows are all but the last, X = E Xi + e_R, and pull is E'
    hq = _HalfQuadratic(
        handle, config, sigma, handle.R - 1, objective_reduced_f1, gradient_reduced_f1, pull=pull
    )
    state, report = _run_admm(config, hq, 0.0, X0, on_iteration)
    X = _feasible_fc(state.z, state.x)
    return AbundanceMatrix(X, tag="fully_constrained"), report


def _run_cusal_sp(handle: ProblemHandle, config: SolverConfig, sigma: float, X0, on_iteration):
    hq = _HalfQuadratic(
        handle, config, sigma, handle.R, objective_C, gradient_full, pull=lambda D: D
    )
    state, report = _run_admm(config, hq, config.lam, X0, on_iteration)
    return AbundanceMatrix(state.z, tag="nonnegative"), report


# Each problem's runner, its default warm start, and its best feasible fit.
# The fc start is the handle's least-squares abundances projected onto the
# simplex. The sp start is the nonnegative least-squares fit, its ADMM started
# from the clipped least-squares abundances: feasible, and its residual stays
# on the least-squares scale, which keeps the kernel weights alive at the
# data-driven starting bandwidth. Clipping the plain LS solution can land far
# outside the kernel width when the endmembers are strongly correlated. The
# best feasible fit minimizes the residual over the problem's feasible set
# (the simplex for fc, the first orthant for sp), so no result of the problem
# reconstructs better.
_PROBLEMS = {
    "fc": (
        _run_cusal_fc,
        lambda h: _project_columns_to_simplex(h.least_squares),
        lambda h: baselines.solve_fcls(h),
    ),
    "sp": (
        _run_cusal_sp,
        lambda h: baselines.solve_sunsal_sparse(h, 0.0).data,
        lambda h: baselines.solve_sunsal_sparse(h, 0.0),
    ),
}


def reconstruction_ratio(handle: ProblemHandle, X) -> float:
    """Frobenius residual of X relative to the handle's least-squares residual.

    When the least-squares fit is exact the ratio is reported as 0 for an
    (essentially) exact X and infinity otherwise. X must be R x T.
    """
    Xdata = np.asarray(X, dtype=float)
    if Xdata.shape != (handle.R, handle.T):
        raise DimensionMismatch(f"X must be {handle.R} x {handle.T}, got shape {Xdata.shape}")
    num = _norm(handle.Y - handle.M @ Xdata)
    if handle.ls_residual > 0:
        return num / handle.ls_residual
    atol = 1e-12 * max(1.0, _norm(handle.Y))
    return 0.0 if num <= atol else float("inf")


def _initial_sigma(handle: ProblemHandle) -> tuple[float, float]:
    """Raw data-driven bandwidth and its positive floored version."""
    sigma0_raw = np.sqrt(handle.R / (8.0 * handle.L)) * handle.ls_residual
    floor = _SIGMA_FLOOR * max(1.0, _norm(handle.Y) / np.sqrt(handle.L * handle.T))
    return sigma0_raw, max(sigma0_raw, floor)


def _tune(handle: ProblemHandle, algorithm: str, config: SolverConfig, X0, on_iteration):
    runner, default_init, best_fit = _PROBLEMS[algorithm]
    sigma0_raw, sigma0 = _initial_sigma(handle)
    if X0 is None:
        # one warm start shared by every attempt
        X0 = default_init(handle)
    sigma = sigma0
    p = 1
    attempts: list[TuningAttempt] = []
    bound = None  # the best feasible fit's ratio, once an attempt reconstructs poorly
    for _ in range(_TUNER_ATTEMPT_CAP):
        X_hat, report = runner(handle, config, sigma, X0, on_iteration)
        if report.termination_reason in (Termination.RESIDUALS_SMALL, Termination.MAX_ITERS):
            ratio = reconstruction_ratio(handle, X_hat)
            if ratio < _TUNER_RATIO_LIMIT:
                attempts.append(TuningAttempt(sigma, TuneOutcome.CONVERGED, ratio))
                trace = TuningTrace(
                    sigma0=sigma0_raw, attempts=tuple(attempts), p=p, sigma_final=sigma
                )
                return sigma, trace, X_hat, replace(report, tuning=trace)
            attempts.append(TuningAttempt(sigma, TuneOutcome.RATIO_TOO_LARGE, ratio))
            if bound is None:
                bound = reconstruction_ratio(handle, best_fit(handle))
                if bound >= _TUNER_RATIO_LIMIT:
                    raise TuningFailed(
                        f"no bandwidth can pass: the best feasible fit has reconstruction "
                        f"ratio {bound:.4g}, not below {_TUNER_RATIO_LIMIT:g}"
                    )
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
        f"(sigma0={sigma0:.4g}, last sigma={attempts[-1].sigma:.4g})"
    )


def tune_sigma(handle: ProblemHandle, algorithm: str, config: SolverConfig):
    """Search for a workable kernel bandwidth.

    Starts from the data-driven value sigma0 (floored to a small positive
    number when the least-squares fit is exact), grows by a factor of 1.2 when
    the solve converges but reconstructs poorly or when it diverges at a
    moderate sigma, and restarts from sigma0 / p after divergence at an
    overestimated sigma. Returns the accepted bandwidth and the attempt trace.
    Raises TuningFailed after 60 attempts, or at the first attempt that
    reconstructs poorly when the problem's best feasible fit (fcls for fc,
    NNLS for sp) already has reconstruction ratio >= 2.
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
    runner, default_init, _ = _PROBLEMS[algorithm]
    X0 = default_init(handle) if X0 is None else X0
    return runner(handle, config, config.sigma, X0, on_iteration)


def cusal_fc(
    handle: ProblemHandle,
    config: SolverConfig,
    X0: Optional[np.ndarray] = None,
    *,
    on_iteration=None,
):
    """Fully-constrained correntropy unmixing.

    The x-update takes a half-quadratic step on the reduced objective plus
    the scaled quadratic coupling from the previous iterate (at most
    config.max_inner_iters steps, one by default), each one inverse of the
    (R-1) x (R-1) matrix E'(M' W M / sigma^2 + rho I)E (E the linear part of
    reconstruct_full, W the band weights of the kernel pass at the full
    iterate, rho = max(config.rho, lambda_min(M' W0 M) / sigma^2) with W0
    the band weights at the warm start), reconstructs the full matrix (unit
    column sums by construction), projects for z, and updates the dual.
    Returns the feasible solution (nonnegative, exact unit column sums) and the
    run report. With config.sigma_auto the bandwidth tuner drives the solve and
    the accepted attempt is returned, its report carrying the TuningTrace.
    on_iteration(prev, next) runs after every outer iteration with two
    AdmmStates of R x T matrices; x is read-only.
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

    The x-update takes a half-quadratic step on the full variables from the
    previous iterate (at most config.max_inner_iters steps, one by default),
    each one inverse of the R x R matrix M' W M / sigma^2 + rho I (W the band
    weights of the kernel pass at the iterate, rho the run's penalty as in
    cusal_fc); the z-update
    soft-thresholds by lam/rho and projects onto the first orthant in one
    shrink, max(v - lam/rho, 0).
    Returns the nonnegative z iterate and the run report. With
    config.sigma_auto the bandwidth tuner drives the solve and the report
    carries its TuningTrace. on_iteration is called as in cusal_fc.
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
    "ls": Algorithm(False, False, lambda h, c: (AbundanceMatrix(h.least_squares), None)),
    "fcls": Algorithm(False, False, lambda h, c: (baselines.solve_fcls(h), None)),
    "sunsal-sparse": Algorithm(
        True, False, lambda h, c: (baselines.solve_sunsal_sparse(h, c.lam), None)
    ),
    "cusal-fc": Algorithm(False, True, lambda h, c: cusal_fc(h, c)),
    "cusal-sp": Algorithm(True, True, lambda h, c: cusal_sp(h, c)),
}
