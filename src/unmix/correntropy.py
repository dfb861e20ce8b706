"""Correntropy objective and exact gradients.

Both parameterizations are provided: the full abundance matrix (used by the
sparsity-promoting solver) and the reduced matrix with the last endmember row
eliminated through the sum-to-one constraint (used by the fully-constrained
solver).

The objectives, gradients and residual cache go through one kernel pass: the
residual of the fit, its per-band energies and the Gaussian band weights. The
layer computes in float64, so its results are the same on every platform. All
reductions go through numpy's fixed-tree pairwise summation: for a given array
shape, repeated evaluations are bit-identical.

An objective can hand back its pass as a ResidualCache (return_cache=True),
and a gradient given that cache only forms A'(w * eps) / sigma^2, bit for bit
the gradient of a call that makes its own pass. Both can build the residual in
a caller's (2, L, T) workspace (out=) instead of new L x T arrays. The solvers
use both: one pass per point serves the objective, the gradient, the
half-quadratic matrix and the report's trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatch, InvalidInput, ProblemHandle, _Matrix


@dataclass(frozen=True)
class ReducedAbundance(_Matrix):
    """Free abundances after eliminating the last row via the sum-to-one constraint.

    Holds the (R-1) x T matrix of free variables; the eliminated row is
    1 - (column sum), so reconstruction always yields unit column sums.
    """

    _what = "reduced abundance matrix"


@dataclass(frozen=True)
class ResidualCache:
    """Residuals Y - M X and the per-band Gaussian weights at one iterate."""

    eps: np.ndarray
    band_weights: np.ndarray


def reduce_abundances(X) -> ReducedAbundance:
    """Drop the last abundance row, keeping the R-1 free rows."""
    arr = np.asarray(X, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise InvalidInput("need an R x T matrix with R >= 2 to eliminate one row")
    return ReducedAbundance(arr[:-1, :])


def reconstruct_full(Xr) -> np.ndarray:
    """Rebuild the full R x T matrix; the appended row makes every column sum to 1."""
    arr = np.asarray(Xr, dtype=float)
    if arr.ndim != 2:
        raise InvalidInput("reduced abundances must be 2-D")
    last = 1.0 - arr.sum(axis=0)
    return np.vstack([arr, last[np.newaxis, :]])


def _check_shapes(handle: ProblemHandle, X: np.ndarray, reduced: bool) -> np.ndarray:
    arr = np.asarray(X, dtype=float)
    rows = handle.R - 1 if reduced else handle.R
    if arr.shape != (rows, handle.T):
        raise DimensionMismatch(f"expected shape {(rows, handle.T)}, got {arr.shape}")
    return arr


def _check_sigma(sigma: float) -> float:
    if not (np.isscalar(sigma) and np.isfinite(sigma) and sigma > 0):
        raise InvalidInput("sigma must be a positive finite scalar")
    return float(sigma)


def _operator(handle: ProblemHandle, reduced: bool) -> np.ndarray:
    """The mixing operator the variables see: M, or Mbar = M[:, :-1] - m_R
    (m_R the last endmember) for the reduced variables."""
    return handle.M[:, :-1] - handle.M[:, -1:] if reduced else handle.M


def _kernel(handle: ProblemHandle, X, sigma: float, reduced: bool, out):
    """Residual Y - (fit) and band weights at X.

    The fit is M X, or Mbar Xr + m_R in the reduced variables, which equals M
    times the reconstructed full matrix. The residual is built in out[0] and its squares in out[1]; out
    is a float64 (2, L, T) workspace, a new one when None.
    """
    arr = _check_shapes(handle, X, reduced)
    sigma = _check_sigma(sigma)
    if out is None:
        out = np.empty((2, handle.L, handle.T))
    elif out.shape != (2, handle.L, handle.T) or out.dtype != np.float64:
        raise DimensionMismatch(f"the workspace must be float64 of shape {(2, handle.L, handle.T)}")
    eps = np.matmul(_operator(handle, reduced), arr, out=out[0])
    if reduced:
        eps += handle.M[:, -1:]
    np.subtract(handle.Y, eps, out=eps)
    sq = np.multiply(eps, eps, out=out[1])
    # Row-wise residual energy (pairwise sum along the contiguous axis), then
    # the Gaussian factor; underflow to 0.0 is the intended saturation for
    # bands far outside the kernel width.
    with np.errstate(under="ignore"):
        w = np.exp(-np.sum(sq, axis=1) / (2.0 * sigma**2))
    return eps, w


def residual_cache(handle: ProblemHandle, X, sigma: float) -> ResidualCache:
    """Residuals and band weights at X; recomputed fresh on every call."""
    return _objective(handle, X, sigma, False, True, None)[1]


def band_weights(handle: ProblemHandle, X, sigma: float) -> np.ndarray:
    """Per-band weights in (0, 1]; bands the criterion has down-weighted show up small."""
    return residual_cache(handle, X, sigma).band_weights


def _objective(handle: ProblemHandle, X, sigma: float, reduced: bool, return_cache: bool, out):
    eps, w = _kernel(handle, X, sigma, reduced, out)
    value = -float(np.sum(w))
    return (value, ResidualCache(eps=eps, band_weights=w)) if return_cache else value


def _gradient(handle: ProblemHandle, X, sigma: float, reduced: bool, cache, out):
    if cache is None:
        cache = _objective(handle, X, sigma, reduced, True, out)[1]
    else:
        _check_shapes(handle, X, reduced)
        _check_sigma(sigma)
        if cache.eps.shape != (handle.L, handle.T) or cache.band_weights.shape != (handle.L,):
            raise DimensionMismatch("the residual cache does not fit this problem")
    weighted = np.multiply(
        cache.band_weights[:, np.newaxis], cache.eps, out=None if out is None else out[1]
    )
    return -(1.0 / float(sigma) ** 2) * (_operator(handle, reduced).T @ weighted)


def objective_C(handle: ProblemHandle, X, sigma: float, *, return_cache: bool = False, out=None):
    """Negative correntropy of the fit M X to Y; always in [-L, 0).

    With return_cache, returns the pair (value, ResidualCache at X): the kernel
    pass that gave the value, which gradient_full takes instead of a pass of
    its own. out is an optional float64 (2, L, T) workspace: the residual is
    built in out[0] (then the cache's eps, valid until out is used again) and
    its squares in out[1], so the call allocates no L x T array.
    """
    return _objective(handle, X, sigma, False, return_cache, out)


def gradient_full(handle: ProblemHandle, X, sigma: float, *, cache=None, out=None):
    """Exact gradient of objective_C with respect to the full R x T matrix.

    cache is the ResidualCache of objective_C(handle, X, sigma,
    return_cache=True) at this X; with it the gradient only forms
    -M'(w * eps) / sigma^2 from the cached residual and weights, bit for bit
    the value of a call without it. out is a workspace as in objective_C;
    with a cache only out[1] is written, so the cache stays valid.
    """
    return _gradient(handle, X, sigma, False, cache, out)


def objective_reduced_f1(
    handle: ProblemHandle, Xr, sigma: float, *, return_cache: bool = False, out=None
):
    """Negative correntropy in the reduced variables; equals objective_C at the
    reconstructed full matrix to rounding (the reduced fit Mbar Xr + m_R rounds
    differently from M times that matrix). return_cache and out as in
    objective_C; the cache holds the residual of the reduced fit."""
    return _objective(handle, Xr, sigma, True, return_cache, out)


def gradient_reduced_f1(handle: ProblemHandle, Xr, sigma: float, *, cache=None, out=None):
    """Exact gradient of objective_reduced_f1, shape (R-1) x T; cache (from
    objective_reduced_f1 at this Xr) and out as in gradient_full."""
    return _gradient(handle, Xr, sigma, True, cache, out)
