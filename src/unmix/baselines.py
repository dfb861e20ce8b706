"""Quadratic baselines: plain least squares, fully-constrained least squares,
and l1-regularized nonnegative least squares.

The constrained problems are solved per pixel by ADMM with a closed-form
quadratic update, set up from one thin SVD of M = Q diag(s) V': the inverse
of K = 2 M'M + rho I is V diag(1 / (2 s^2 + rho)) V' at every penalty, the
data term 2 M'Y is V diag(2 s) Q'Y, the starting penalty is read off s, and
the loop starts from the least-squares abundances V diag(1/s) Q'Y clipped at 0.
Every iteration applies the R x R inverse to all pixels in one product (the
per-pixel solves are independent). Both problems share one z-step,
max(v - lam/rho, 0): soft thresholding followed by projection onto the first
orthant, a plain projection at the fully-constrained problem's lam = 0. The
SVD, and the QR of M in solve_ls, come from numpy.linalg, so the package
needs no SciPy. The loop re-validates nothing per iteration: it writes into
preallocated buffers, the z-step works in place, and the iterates are checked
for non-finite entries only when a residual norm is not finite. The fully
constrained problem's sum-to-one constraint enters through the same x-update:
its KKT correction is affine, so it is folded into the update's two terms at
set-up, and both problems run one loop body.

The loop stops on the primal residual x - z and the dual residual z_next - z,
both in abundance units, against one tolerance. Neither depends on the units
of Y and M: rescaling both by a power of two (and lam by its square) gives
the same iterations and bit-identical abundances, and data in percent
reflectance or sensor counts converge as reflectances do.

The penalty rho starts at 0.35 times 2 s_min s_max of M (its extreme
singular values), the fixed penalty that suits the unrelaxed loop, and is
then balanced (Boyd et al. 2011, section 3.4.1): every 10th iteration, at
most 50 times per solve, it doubles when the primal residual's norm exceeds
10 times the dual's and halves in the opposite case, and the x-update's
matrices are rebuilt. The smaller start takes about half the iterations on
well-conditioned R = 3 to 5 cubes; balancing raises it on ill-conditioned
R = 20 ones, where it alone would take about three times as many. The
factors are exact powers of two and both residuals are in abundance units,
so the data units still change nothing.

The loop is over-relaxed with alpha = 1.5 (Eckstein & Bertsekas, Math. Prog.
1992; Boyd et al., "Distributed Optimization and Statistical Learning via the
Alternating Direction Method of Multipliers", 2011, section 3.4.3): the z-step
and the dual update read alpha x + (1 - alpha) z in place of x. That takes
about a third fewer iterations and leaves the fixed point, and so the
solution, where it was. A solve whose residual norms overflow while its
iterates stay finite goes on with alpha = 1.
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
    _real,
    _shrink_nonnegative,
)

# Residual tolerance (per coordinate, in abundance units, for both the primal
# residual x - z and the dual residual z_next - z) and iteration cap of the
# baseline ADMM loops; tight enough that the outputs serve as 1e-6-level
# oracles.
_BASELINE_TOL = 1e-12
_BASELINE_MAX_ITERS = 30000
# Over-relaxation factor alpha of the baseline ADMM loops (see _admm). 1.5
# cut the iteration counts by about a third on R = 3 to 20 cubes; 1.8 took
# more than 1.5 on some.
_RELAXATION = 1.5
# Penalty of the baseline ADMM loops (see _admm): it starts at
# _PENALTY_SCALE * 2 s_min s_max of M, which took about half the iterations
# of 1 * 2 s_min s_max on R = 3 to 5 cubes, and is balanced every
# _BALANCE_PERIOD-th iteration, at most _BALANCE_MAX_CHANGES times per
# solve, when one residual norm exceeds _BALANCE_RATIO times the other, so
# that ill-conditioned R = 20 cubes do not pay for the smaller start.
_PENALTY_SCALE = 0.35
_BALANCE_PERIOD = 10
_BALANCE_MAX_CHANGES = 50
_BALANCE_RATIO = 10.0


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


def _x_update_terms(V, s2x2, MtY2, rho: float, lam: float, sum_to_one: bool):
    """The x-update's terms at penalty rho: (rho K^-1, K^-1 2 M'y, lam/rho),
    K = 2 M'M + rho I, from M's right singular vectors V and 2 s^2, with
    fcls's sum-to-one correction folded into the first two."""
    R = V.shape[0]
    # K = V diag(2 s^2 + rho) V' is inverted in closed form: no factor of a
    # formed 2 M'M, whose rounding is cond(M)^2 times larger than M's. One
    # product with K^-1 per iteration is much cheaper than a solve with T
    # right-hand sides.
    Kinv = (V / (s2x2 + rho)) @ V.T
    Kinv_MtY2 = Kinv @ MtY2
    rho_Kinv = rho * Kinv
    if sum_to_one:
        # x <- P x + q / 1'q, the KKT correction, folded into both terms
        q = Kinv.sum(axis=1)
        qsum = float(q.sum())
        if abs(qsum) < 1e-300:
            raise SingularNormalEquations("sum-to-one correction is degenerate")
        q_unit = q / qsum
        P = np.eye(R) - np.outer(q_unit, np.ones(R))
        rho_Kinv = P @ rho_Kinv
        Kinv_MtY2 = P @ Kinv_MtY2 + q_unit[:, None]
    return rho_Kinv, Kinv_MtY2, lam / rho


def _admm(handle: ProblemHandle, lam: float, sum_to_one: bool):
    """Per-pixel over-relaxed ADMM for min ||y - M x||^2 + lam ||z||_1
    subject to x = z >= 0.

    The x-update is x = rho K^-1 (z + u) + K^-1 2 M'y. With sum_to_one it is
    corrected onto the hyperplane 1'x = 1 by the KKT correction of that
    solve, P x + q / 1'q with q = K^-1 1 and P = I - q 1' / 1'q; being affine,
    the correction is folded into rho K^-1 and K^-1 2 M'y whenever they are
    built (_x_update_terms), and the loop body is the same for both problems.
    The z-step overwrites a copy of the relaxed point
    v = alpha x + (1 - alpha) z - u (alpha = _RELAXATION; Boyd et al. 2011,
    section 3.4.3) with max(v - lam/rho, 0), the proximal map of
    lam/rho ||.||_1 plus the orthant's indicator; at lam = 0 it is the
    projection onto the first orthant, bit for bit. The dual update is
    u = z+ - v. At a fixed point x = z, so v = z - u as without relaxation:
    the solution does not move. The loop stops when the primal residual
    x - z+ and the dual residual z+ - z both have norms of at most
    sqrt(R*T) * _BASELINE_TOL. Both are in abundance units (Boyd et al.
    2011, section 3.3.1, state each tolerance in its residual's units), so
    the rule does not depend on the units of Y and M; the dual residual of
    that text, rho (z+ - z), grows with the square of the data units through
    rho. When a norm overflows while the iterates are finite, the relaxed
    x - z+ stays as large as the iterates and would never meet that
    tolerance, so the rest of the solve runs at alpha = 1.

    The penalty starts at _PENALTY_SCALE * 2 s_min s_max and is balanced
    (Boyd et al. 2011, section 3.4.1): every _BALANCE_PERIOD-th iteration,
    at most _BALANCE_MAX_CHANGES times per solve, it doubles when the primal
    residual's norm exceeds _BALANCE_RATIO times the dual's and halves in
    the opposite case, the scaled dual u is divided by the same factor and
    the x-update's terms and threshold are rebuilt. Both norms are in
    abundance units and the factor is exactly 2, so rescaling Y and M by a
    power of two (and lam by its square) still gives the same iterations and
    bit-identical abundances. An iteration whose norms are not finite does
    not balance.

    The set-up takes one thin SVD of M = Q diag(s) V' and raises
    SingularNormalEquations when s_min <= 1e-13 s_max, solve_ls's threshold
    on the diagonal of M's QR factor. Z starts at the clipped least-squares
    abundances max(V diag(1/s) Q'Y, 0); the normal equations would give them
    with cond(M)^2 in place of cond(M). Returns the last (X, Z) iterates and
    whether the residuals fell below tolerance before the cap. Raises
    NonFiniteIterate when an iterate has a non-finite entry.
    """
    R, T = handle.R, handle.T
    Q, s, Vt = np.linalg.svd(handle.M, full_matrices=False)
    if s[-1] <= 1e-13 * s[0]:
        raise SingularNormalEquations("M'M is numerically singular")
    V = Vt.T
    QtY = Q.T @ handle.Y
    MtY2, s2x2 = (V * (2.0 * s)) @ QtY, 2.0 * s * s
    # 2 s_min s_max, the geometric mean of the extreme eigenvalues of 2 M'M,
    # is the best fixed penalty of unrelaxed ADMM on a strongly convex
    # quadratic (Ghadimi, Teixeira, Shames & Johansson, IEEE TAC 2015); the
    # mean eigenvalue stalls at the iteration cap on ill-conditioned M
    rho = _PENALTY_SCALE * float(2.0 * s[-1] * s[0])
    rho_Kinv, Kinv_MtY2, b = _x_update_terms(V, s2x2, MtY2, rho, lam, sum_to_one)

    Z = np.maximum((V / s) @ QtY, 0.0)
    U = np.zeros((R, T))
    # Each iteration writes into these buffers instead of allocating: X, the
    # next Z (the previous Z's buffer takes its place), S = D[0] for Z + U,
    # then the relaxed point V and then X - Z+, S_dual = D[1] for
    # (1 - alpha) Z and then Z+ - Z (the differences whose norms are the
    # residuals), and D2 for their squares, both summed in one reduction.
    X, Z_next = np.empty((R, T)), np.empty((R, T))
    D, D2 = np.empty((2, R, T)), np.empty((2, R, T))
    S, S_dual = D
    alpha = _RELAXATION
    eps_stop = np.sqrt(R * T) * _BASELINE_TOL
    changes = 0
    for it in range(1, _BASELINE_MAX_ITERS + 1):
        np.add(Z, U, out=S)
        np.matmul(rho_Kinv, S, out=X)
        X += Kinv_MtY2
        # V = alpha X + (1 - alpha) Z - U, the z-step's input and, with the
        # next Z, the dual update's
        np.multiply(X, alpha, out=S)
        S += np.multiply(Z, 1.0 - alpha, out=S_dual)
        S -= U
        np.copyto(Z_next, S)
        _shrink_nonnegative(Z_next, b)
        np.subtract(Z_next, S, out=U)
        np.subtract(X, Z_next, out=S)
        np.subtract(Z_next, Z, out=S_dual)
        squares = _dot(D, D, out=D2, axis=(1, 2))
        primal, dual = math.sqrt(squares[0]), math.sqrt(squares[1])
        Z, Z_next = Z_next, Z
        if not (math.isfinite(primal) and math.isfinite(dual)):
            # a non-finite entry of X or Z makes a residual non-finite, but
            # so does the norm of a finite iterate far from the origin, where
            # only the unrelaxed loop meets the absolute tolerance
            if not (np.isfinite(X).all() and np.isfinite(Z).all()):
                raise NonFiniteIterate("baseline ADMM produced a non-finite iterate")
            alpha = 1.0
        elif primal <= eps_stop and dual <= eps_stop:
            return X, Z, True
        elif it % _BALANCE_PERIOD == 0 and changes < _BALANCE_MAX_CHANGES:
            if primal > _BALANCE_RATIO * dual:
                factor = 2.0
            elif dual > _BALANCE_RATIO * primal:
                factor = 0.5
            else:
                continue
            rho *= factor
            U /= factor
            rho_Kinv, Kinv_MtY2, b = _x_update_terms(V, s2x2, MtY2, rho, lam, sum_to_one)
            changes += 1
    return X, Z, False


def solve_fcls(handle: ProblemHandle) -> AbundanceMatrix:
    """Per-pixel least squares over the probability simplex.

    ADMM splitting: the quadratic-plus-sum-to-one update has a closed form,
    the unconstrained solve followed by one KKT correction, both folded into
    one affine map at set-up; nonnegativity enters through projection.
    Returns the equality-exact iterate (column sums are 1 to rounding;
    entries can undershoot 0 only by the final primal residual). At the
    iteration cap that residual can exceed the feasibility tolerance, so the
    iterate is projected column-wise onto the simplex instead.
    """
    X, _, converged = _admm(handle, 0.0, sum_to_one=True)
    if not converged:
        warnings.warn("fully-constrained solve hit its iteration cap", MaxItersWarning, stacklevel=2)
        X = _project_columns_to_simplex(X)
    return AbundanceMatrix(X, tag="fully_constrained")


def solve_sunsal_sparse(handle: ProblemHandle, lam: float) -> AbundanceMatrix:
    """Per-pixel minimizer of ||y - M x||^2 + lam * ||x||_1 subject to x >= 0.

    Same ADMM loop as solve_fcls, its x-update without the folded sum-to-one
    correction and its z-step thresholded at lam/rho instead of 0. lam = 0
    gives nonnegative least squares. lam must be a nonnegative finite real,
    the rule SolverConfig applies to its lam; anything else (a bool, a
    string, a complex number, an int too large for a float) is InvalidInput.
    """
    lam_value = _real(lam)
    if not (0 <= lam_value < math.inf):
        raise InvalidInput("lam must be a nonnegative finite real")
    _, Z, converged = _admm(handle, lam_value, sum_to_one=False)
    if not converged:
        warnings.warn("sparse solve hit its iteration cap", MaxItersWarning, stacklevel=2)
    return AbundanceMatrix(Z, tag="nonnegative")
