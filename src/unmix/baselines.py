"""Quadratic baselines: plain least squares, fully-constrained least squares,
and l1-regularized nonnegative least squares.

The constrained problems are solved per pixel by ADMM with a closed-form
quadratic update; the (2 M'M + rho I) factorization is computed once, is only
read afterwards, and is shared across all pixels and iterations (the per-pixel
solves are independent).
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np
import scipy.linalg

from .core import (
    AbundanceMatrix,
    InvalidInput,
    MaxItersWarning,
    ProblemHandle,
    SingularNormalEquations,
    _project_columns_to_simplex,
    project_nonnegative,
    soft_threshold,
)

# Residual tolerance (per coordinate) and iteration cap of the baseline ADMM
# loops; tight enough that the outputs serve as 1e-6-level oracles.
_BASELINE_TOL = 1e-12
_BASELINE_MAX_ITERS = 30000


def solve_ls(handle: ProblemHandle) -> AbundanceMatrix:
    """Unconstrained least-squares abundances via an economy QR of M.

    Pixels are solved one column at a time through a single code path, so
    solving the matrix problem and solving pixel by pixel give bit-identical
    results.
    """
    Q, Rfac = scipy.linalg.qr(handle.M, mode="economic")
    diag = np.abs(np.diag(Rfac))
    if diag.min() <= diag.max() * 1e-13:
        raise SingularNormalEquations("M'M is numerically singular")
    Qt = np.ascontiguousarray(Q.T)
    X = np.empty((handle.R, handle.T))
    for t in range(handle.T):
        qty = Qt @ np.ascontiguousarray(handle.Y[:, t])
        X[:, t] = scipy.linalg.solve_triangular(Rfac, qty, check_finite=False)
    return AbundanceMatrix(X)


def _default_rho(M: np.ndarray) -> float:
    # The geometric mean of the extreme eigenvalues of 2 M'M, 2 s_min s_max,
    # is the optimal fixed penalty of ADMM on a strongly convex quadratic
    # (Ghadimi, Teixeira, Shames & Johansson, IEEE TAC 2015); the mean
    # eigenvalue stalls at the iteration cap on ill-conditioned M.
    s = np.linalg.svd(M, compute_uv=False)
    return float(2.0 * s.min() * s.max())


def _admm(
    handle: ProblemHandle,
    prox: Callable[[np.ndarray, float], np.ndarray],
    sum_to_one: bool,
):
    """Per-pixel ADMM for min ||y - M x||^2 + g(z) subject to x = z.

    prox(v, rho) is the proximal map of g / rho; with sum_to_one the
    quadratic update is corrected onto the hyperplane 1'x = 1 through one KKT
    correction of the unconstrained solve. Returns the last (X, Z) iterates
    and whether the residuals fell below tolerance before the cap.
    """
    M, Y = handle.M, handle.Y
    R, T = handle.R, handle.T
    MtM2 = 2.0 * (M.T @ M)
    rho = _default_rho(M)
    try:
        cho = scipy.linalg.cho_factor(MtM2 + rho * np.eye(R))
    except scipy.linalg.LinAlgError as exc:
        raise SingularNormalEquations(str(exc)) from exc
    MtY2 = 2.0 * (M.T @ Y)
    if sum_to_one:
        q = scipy.linalg.cho_solve(cho, np.ones(R))
        qsum = float(q.sum())
        if abs(qsum) < 1e-300:
            raise SingularNormalEquations("sum-to-one correction is degenerate")

    Z = project_nonnegative(solve_ls(handle).data)
    U = np.zeros((R, T))
    X = Z
    eps_stop = np.sqrt(R * T) * _BASELINE_TOL
    for _ in range(_BASELINE_MAX_ITERS):
        X = scipy.linalg.cho_solve(cho, MtY2 + rho * (Z + U), check_finite=False)
        if sum_to_one:
            nu = (X.sum(axis=0) - 1.0) / qsum
            X = X - np.outer(q, nu)
        Z_new = prox(X - U, rho)
        U = U - (X - Z_new)
        primal = np.linalg.norm(X - Z_new)
        dual = rho * np.linalg.norm(Z_new - Z)
        Z = Z_new
        if primal <= eps_stop and dual <= eps_stop:
            return X, Z, True
    return X, Z, False


def solve_fcls(handle: ProblemHandle) -> AbundanceMatrix:
    """Per-pixel least squares over the probability simplex.

    ADMM splitting: the quadratic-plus-sum-to-one update has a closed form via
    one KKT correction of the unconstrained solve; nonnegativity enters through
    projection. Returns the equality-exact iterate (column sums are 1 to
    rounding; entries can undershoot 0 only by the final primal residual). At
    the iteration cap that residual can exceed the feasibility tolerance, so
    the iterate is projected column-wise onto the simplex instead.
    """
    X, _, converged = _admm(handle, lambda v, rho: np.maximum(v, 0.0), sum_to_one=True)
    if not converged:
        warnings.warn("fully-constrained solve hit its iteration cap", MaxItersWarning, stacklevel=2)
        X = _project_columns_to_simplex(X)
    return AbundanceMatrix(X, tag="fully_constrained")


def solve_sunsal_sparse(handle: ProblemHandle, lam: float) -> AbundanceMatrix:
    """Per-pixel minimizer of ||y - M x||^2 + lam * ||x||_1 subject to x >= 0.

    Same ADMM loop as solve_fcls without the sum-to-one correction; the
    proximal step is soft thresholding followed by projection. lam = 0 gives
    nonnegative least squares.
    """
    if not (np.isscalar(lam) and np.isfinite(lam) and lam >= 0):
        raise InvalidInput("lam must be a nonnegative finite scalar")
    _, Z, converged = _admm(
        handle, lambda v, rho: np.maximum(soft_threshold(v, lam / rho), 0.0), sum_to_one=False
    )
    if not converged:
        warnings.warn("sparse solve hit its iteration cap", MaxItersWarning, stacklevel=2)
    return AbundanceMatrix(Z, tag="nonnegative")
