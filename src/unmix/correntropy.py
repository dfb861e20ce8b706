"""Correntropy objective and exact gradients.

Both parameterizations are provided: the full abundance matrix (used by the
sparsity-promoting solver) and the reduced matrix with the last endmember row
eliminated through the sum-to-one constraint (used by the fully-constrained
solver).

The objectives, gradients and residual cache go through one kernel: the
residual of the fit, its per-band energies and the Gaussian band weights. The
layer computes in float64, so its results are the same on every platform. All reductions go through numpy's
fixed-tree pairwise summation: for a given array shape, repeated evaluations
are bit-identical. A gradient can also return the band weights of its own
kernel pass (return_weights=True); the solvers' half-quadratic steps build
their matrix from them instead of evaluating the kernel again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatch, InvalidInput, ProblemHandle, _as_matrix


@dataclass(frozen=True)
class ReducedAbundance:
    """Free abundances after eliminating the last row via the sum-to-one constraint.

    Holds the (R-1) x T matrix of free variables; the eliminated row is
    1 - (column sum), so reconstruction always yields unit column sums.
    """

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _as_matrix(self.data, what="reduced abundance matrix"))

    @property
    def pixel_count(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class ResidualCache:
    """Residuals Y - M X and the per-band Gaussian weights at one iterate."""

    eps: np.ndarray
    band_weights: np.ndarray


def reduce_abundances(X) -> ReducedAbundance:
    """Drop the last abundance row, keeping the R-1 free rows."""
    arr = np.asarray(X.data if hasattr(X, "data") else X, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise InvalidInput("need an R x T matrix with R >= 2 to eliminate one row")
    return ReducedAbundance(arr[:-1, :])


def reconstruct_full(Xr) -> np.ndarray:
    """Rebuild the full R x T matrix; the appended row makes every column sum to 1."""
    arr = np.asarray(Xr.data if isinstance(Xr, ReducedAbundance) else Xr, dtype=float)
    if arr.ndim != 2:
        raise InvalidInput("reduced abundances must be 2-D")
    last = 1.0 - arr.sum(axis=0)
    return np.vstack([arr, last[np.newaxis, :]])


def _check_shapes(handle: ProblemHandle, X: np.ndarray, reduced: bool) -> np.ndarray:
    arr = np.asarray(X.data if hasattr(X, "data") else X, dtype=float)
    rows = handle.R - 1 if reduced else handle.R
    if arr.shape != (rows, handle.T):
        raise DimensionMismatch(f"expected shape {(rows, handle.T)}, got {arr.shape}")
    return arr


def _check_sigma(sigma: float) -> float:
    if not (np.isscalar(sigma) and np.isfinite(sigma) and sigma > 0):
        raise InvalidInput("sigma must be a positive finite scalar")
    return float(sigma)


def _kernel(handle: ProblemHandle, X, sigma: float, reduced: bool, keep_residual: bool = True):
    """Operator A seen by the variables, residual Y - (fit) and band weights at X.

    The reduced fit is Mbar Xr + m_R with Mbar = M[:, :-1] - m_R (m_R the last
    endmember), which equals M times the reconstructed full matrix. The
    residual is built in the array that holds the fit; without keep_residual
    it is squared in place too and None is returned for it, so an objective
    allocates a single L x T array.
    """
    arr = _check_shapes(handle, X, reduced)
    sigma = _check_sigma(sigma)
    if reduced:
        m_last = handle.M[:, -1:]
        A = handle.M[:, :-1] - m_last
        eps = A @ arr
        eps += m_last
    else:
        A = handle.M
        eps = A @ arr
    np.subtract(handle.Y, eps, out=eps)
    sq = eps * eps if keep_residual else np.multiply(eps, eps, out=eps)
    # Row-wise residual energy (pairwise sum along the contiguous axis), then
    # the Gaussian factor; underflow to 0.0 is the intended saturation for
    # bands far outside the kernel width.
    with np.errstate(under="ignore"):
        w = np.exp(-np.sum(sq, axis=1) / (2.0 * sigma**2))
    return A, (eps if keep_residual else None), w


def residual_cache(handle: ProblemHandle, X, sigma: float) -> ResidualCache:
    """Residuals and band weights at X; recomputed fresh on every call."""
    _, eps, w = _kernel(handle, X, sigma, reduced=False)
    return ResidualCache(eps=eps, band_weights=w)


def band_weights(handle: ProblemHandle, X, sigma: float) -> np.ndarray:
    """Per-band weights in (0, 1]; bands the criterion has down-weighted show up small."""
    return residual_cache(handle, X, sigma).band_weights


def _gradient(handle: ProblemHandle, X, sigma: float, reduced: bool, return_weights: bool):
    A, eps, w = _kernel(handle, X, sigma, reduced)
    G = -(1.0 / float(sigma) ** 2) * (A.T @ np.multiply(w[:, np.newaxis], eps, out=eps))
    return (G, w) if return_weights else G


def objective_C(handle: ProblemHandle, X, sigma: float) -> float:
    """Negative correntropy of the fit M X to Y; always in [-L, 0)."""
    return -float(np.sum(_kernel(handle, X, sigma, False, keep_residual=False)[2]))


def gradient_full(handle: ProblemHandle, X, sigma: float, *, return_weights: bool = False):
    """Exact gradient of objective_C with respect to the full R x T matrix.

    With return_weights, returns the pair (gradient, band weights at X); the
    weights are the ones band_weights(handle, X, sigma) returns, bit for bit.
    """
    return _gradient(handle, X, sigma, False, return_weights)


def objective_reduced_f1(handle: ProblemHandle, Xr, sigma: float) -> float:
    """Negative correntropy in the reduced variables; equals objective_C at the
    reconstructed full matrix."""
    return -float(np.sum(_kernel(handle, Xr, sigma, True, keep_residual=False)[2]))


def gradient_reduced_f1(handle: ProblemHandle, Xr, sigma: float, *, return_weights: bool = False):
    """Exact gradient of objective_reduced_f1, shape (R-1) x T.

    With return_weights, returns the pair (gradient, band weights at Xr). The
    reduced fit rounds differently from M times the reconstructed matrix, so
    the weights equal band_weights at that matrix to rounding, not bit for bit.
    """
    return _gradient(handle, Xr, sigma, True, return_weights)
