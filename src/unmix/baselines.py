"""Quadratic baselines: plain least squares, fully-constrained least squares,
and l1-regularized nonnegative least squares.

The constrained problems are solved per pixel by ADMM with a closed-form
quadratic update: K = 2 M'M + rho I is Cholesky-factored and inverted once,
and every iteration applies the R x R inverse to all pixels in one product
(the per-pixel solves are independent). Both problems share one z-step,
max(v - lam/rho, 0): soft thresholding followed by projection onto the first
orthant, a plain projection at the fully-constrained problem's lam = 0. The
QR of M and the factor of K come from numpy.linalg, so the package needs no
SciPy. The loop re-validates nothing per iteration: it writes into
preallocated buffers, the z-step works in place, and the iterates are checked
for non-finite entries only when a residual norm is not finite.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .core import (
    AbundanceMatrix,
    InvalidInput,
    MaxItersWarning,
    NonFiniteIterate,
    ProblemHandle,
    SingularNormalEquations,
    _dot,
    _project_columns_to_simplex,
    _shrink_nonnegative,
    project_nonnegative,
)

# Residual tolerance (per coordinate) and iteration cap of the baseline ADMM
# loops; tight enough that the outputs serve as 1e-6-level oracles.
_BASELINE_TOL = 1e-12
_BASELINE_MAX_ITERS = 30000


def solve_ls(handle: ProblemHandle) -> AbundanceMatrix:
    """Unconstrained least-squares abundances via an economy QR of M.

    Q'Y is summed band by band in a fixed order, each band's product added to
    X in place from a buffer of at most max(2**16, R*T) products, and the
    triangular system is back-substituted one whole row of X at a time. Both
    are element-wise array operations, so every pixel goes through the same
    sequence of floating-point operations whatever the number of pixels:
    solving the matrix problem and solving pixel by pixel give bit-identical
    results. A reduction over the bands would not: numpy sums rows of one
    entry (R*T = 1) pairwise.
    """
    Q, Rfac = np.linalg.qr(handle.M, mode="reduced")
    diag = np.abs(np.diag(Rfac))
    if diag.min() <= diag.max() * 1e-13:
        raise SingularNormalEquations("M'M is numerically singular")
    L, R, T = handle.L, handle.R, handle.T
    bands = max(1, 2**16 // (R * T))
    buf = np.empty((min(bands, L), R, T))
    # X starts as Q'Y and is overwritten row by row, last row first
    X = np.zeros((R, T))
    for a in range(0, L, bands):
        n = min(bands, L - a)
        np.multiply(Q[a : a + n, :, None], handle.Y[a : a + n, None, :], out=buf[:n])
        for k in range(n):
            X += buf[k]
    del buf  # freed before AbundanceMatrix copies X
    for i in reversed(range(R)):
        for j in range(i + 1, R):
            X[i] -= Rfac[i, j] * X[j]
        X[i] /= Rfac[i, i]
    return AbundanceMatrix(X)


def _default_rho(M: np.ndarray) -> float:
    # The geometric mean of the extreme eigenvalues of 2 M'M, 2 s_min s_max,
    # is the optimal fixed penalty of ADMM on a strongly convex quadratic
    # (Ghadimi, Teixeira, Shames & Johansson, IEEE TAC 2015); the mean
    # eigenvalue stalls at the iteration cap on ill-conditioned M.
    s = np.linalg.svd(M, compute_uv=False)
    return float(2.0 * s.min() * s.max())


def _admm(handle: ProblemHandle, lam: float, sum_to_one: bool):
    """Per-pixel ADMM for min ||y - M x||^2 + lam ||z||_1 subject to x = z >= 0.

    The z-step overwrites v = x - u with max(v - lam/rho, 0), the proximal map
    of lam/rho ||.||_1 plus the orthant's indicator, its threshold computed
    once; at lam = 0 it is the projection onto the first orthant, bit for bit.
    With sum_to_one the quadratic update is corrected onto the hyperplane
    1'x = 1 through one KKT correction of the unconstrained solve. Z starts at
    the clipped least-squares abundances of the handle. Returns the last
    (X, Z) iterates and whether the residuals fell below tolerance before the
    cap. Raises NonFiniteIterate when an iterate has a non-finite entry.
    """
    M, Y = handle.M, handle.Y
    R, T = handle.R, handle.T
    rho = _default_rho(M)
    b = lam / rho
    # K = 2 M'M + rho I = C C' has a Cholesky factor C exactly when it is
    # positive definite. One product with K^-1 = inv(C)' inv(C) per iteration
    # is much cheaper than a Cholesky solve with T right-hand sides; with this
    # rho, cond(K) = cond(M), so the explicit inverse loses nothing at
    # _BASELINE_TOL.
    try:
        Cinv = np.linalg.inv(np.linalg.cholesky(2.0 * (M.T @ M) + rho * np.eye(R)))
    except np.linalg.LinAlgError as exc:
        raise SingularNormalEquations(str(exc)) from exc
    Kinv = Cinv.T @ Cinv
    Kinv_MtY2 = Kinv @ (2.0 * (M.T @ Y))
    rho_Kinv = rho * Kinv
    if sum_to_one:
        q = Kinv.sum(axis=1)
        qsum = float(q.sum())
        if abs(qsum) < 1e-300:
            raise SingularNormalEquations("sum-to-one correction is degenerate")

    Z = project_nonnegative(handle.least_squares)
    U = np.zeros((R, T))
    # Each iteration writes into these buffers instead of allocating: X, the
    # z-step's input V = X - U (overwritten with the next Z, and the
    # previous Z's buffer takes its place), S = D[0] for Z + U and then for
    # X - V, S_dual = D[1] for V - Z (the differences whose norms are the
    # residuals), and D2 for their squares, both summed in one reduction.
    X, V = np.empty((R, T)), np.empty((R, T))
    D, D2 = np.empty((2, R, T)), np.empty((2, R, T))
    S, S_dual = D
    eps_stop = np.sqrt(R * T) * _BASELINE_TOL
    for _ in range(_BASELINE_MAX_ITERS):
        np.add(Z, U, out=S)
        np.matmul(rho_Kinv, S, out=X)
        X += Kinv_MtY2
        if sum_to_one:
            nu = (X.sum(axis=0) - 1.0) / qsum
            X -= np.outer(q, nu)
        np.subtract(X, U, out=V)
        _shrink_nonnegative(V, b)
        np.subtract(X, V, out=S)
        U -= S
        np.subtract(V, Z, out=S_dual)
        squares = _dot(D, D, out=D2, axis=(1, 2))
        primal, dual = math.sqrt(squares[0]), rho * math.sqrt(squares[1])
        Z, V = V, Z
        if not (math.isfinite(primal) and math.isfinite(dual)):
            # a non-finite entry of X or Z makes a residual non-finite, but
            # so does the norm of a finite iterate far from the origin
            if not (np.isfinite(X).all() and np.isfinite(Z).all()):
                raise NonFiniteIterate("baseline ADMM produced a non-finite iterate")
        elif primal <= eps_stop and dual <= eps_stop:
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
    X, _, converged = _admm(handle, 0.0, sum_to_one=True)
    if not converged:
        warnings.warn("fully-constrained solve hit its iteration cap", MaxItersWarning, stacklevel=2)
        X = _project_columns_to_simplex(X)
    return AbundanceMatrix(X, tag="fully_constrained")


def solve_sunsal_sparse(handle: ProblemHandle, lam: float) -> AbundanceMatrix:
    """Per-pixel minimizer of ||y - M x||^2 + lam * ||x||_1 subject to x >= 0.

    Same ADMM loop as solve_fcls without the sum-to-one correction, its z-step
    thresholded at lam/rho instead of 0. lam = 0 gives nonnegative least
    squares.
    """
    if not (np.isscalar(lam) and np.isfinite(lam) and lam >= 0):
        raise InvalidInput("lam must be a nonnegative finite scalar")
    _, Z, converged = _admm(handle, lam, sum_to_one=False)
    if not converged:
        warnings.warn("sparse solve hit its iteration cap", MaxItersWarning, stacklevel=2)
    return AbundanceMatrix(Z, tag="nonnegative")
