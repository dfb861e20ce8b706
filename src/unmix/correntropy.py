"""Correntropy objective and exact gradients.

Both parameterizations are provided: the full abundance matrix (used by the
sparsity-promoting solver) and the reduced matrix with the last endmember row
eliminated through the sum-to-one constraint (used by the fully-constrained
solver). The one fit is M X: the reduced objective and gradient are the full
ones at reconstruct_full(Xr), the gradient mapped by pull, bit for bit.

The objectives, gradients and residual cache go through one kernel pass: the
residual of the fit, its per-band energies and the Gaussian band weights. The
layer computes in float64, so its results are the same on every platform. The
band energies are one row-dot, np.einsum("ij,ij->i"): its summation order is
fixed for a given shape and it uses no BLAS thread, so for a given array shape
repeated evaluations are bit-identical, wherever the residual's buffer starts.

An objective can hand back its pass as a ResidualCache (return_cache=True):
the full matrix X it evaluated, the residual and the band weights. A gradient
given that cache only forms M'W eps / sigma^2, one product with the weights
folded into M', bit for bit the gradient of a call that makes its own pass.
Both can build the residual in a caller's (L, T) buffer (out=) instead of a
new L x T array. The solvers use both: one pass per point serves the
objective, the gradient, the half-quadratic matrix, the coupling to the split
variable and the report's trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionMismatch, InvalidInput, ProblemHandle, _Matrix, _check_sigma


@dataclass(frozen=True)
class ReducedAbundance(_Matrix):
    """Free abundances after eliminating the last row via the sum-to-one constraint.

    Holds the (R-1) x T matrix of free variables; the eliminated row is
    1 - (column sum), so reconstruction always yields unit column sums.
    """

    _what = "reduced abundance matrix"


@dataclass(frozen=True)
class ResidualCache:
    """The full R x T matrix X of one kernel pass, the residuals Y - M X and
    the per-band Gaussian weights there."""

    X: np.ndarray
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
    full = np.empty((arr.shape[0] + 1, arr.shape[1]))
    full[:-1] = arr
    np.subtract(1.0, arr.sum(axis=0), out=full[-1])
    return full


def pull(G: np.ndarray) -> np.ndarray:
    """E'G, E the linear part of reconstruct_full: rows 1..R-1 of G minus row R."""
    return G[:-1] - G[-1:]


def _check_shapes(handle: ProblemHandle, X, rows: int) -> np.ndarray:
    arr = np.asarray(X, dtype=float)
    if arr.shape != (rows, handle.T):
        raise DimensionMismatch(f"expected shape {(rows, handle.T)}, got {arr.shape}")
    return arr


def _kernel(handle: ProblemHandle, X: np.ndarray, sigma: float, out):
    """Residual Y - M X and band weights at the full R x T matrix X.

    The residual is built in out, a float64 (L, T) buffer, a new one when None.
    """
    sigma = _check_sigma(sigma)
    if out is None:
        out = np.empty((handle.L, handle.T))
    elif out.shape != (handle.L, handle.T) or out.dtype != np.float64:
        raise DimensionMismatch(f"out must be a float64 residual buffer of shape {(handle.L, handle.T)}")
    eps = np.matmul(handle.M, X, out=out)
    np.subtract(handle.Y, eps, out=eps)
    # Row-wise residual energy (one row-dot, no squares buffer), then the
    # Gaussian factor; underflow to 0.0 is the intended saturation for bands
    # far outside the kernel width.
    with np.errstate(under="ignore"):
        w = np.exp(-np.einsum("ij,ij->i", eps, eps) / (2.0 * sigma**2))
    return eps, w


def residual_cache(handle: ProblemHandle, X, sigma: float) -> ResidualCache:
    """Residuals and band weights at X; recomputed fresh on every call."""
    return _objective(handle, _check_shapes(handle, X, handle.R), sigma, True, None)[1]


def band_weights(handle: ProblemHandle, X, sigma: float) -> np.ndarray:
    """Per-band weights in (0, 1]; bands the criterion has down-weighted show up small."""
    return residual_cache(handle, X, sigma).band_weights


def _objective(handle: ProblemHandle, X: np.ndarray, sigma: float, return_cache: bool, out):
    eps, w = _kernel(handle, X, sigma, out)
    value = -float(np.sum(w))
    return (value, ResidualCache(X=X, eps=eps, band_weights=w)) if return_cache else value


def _gradient(handle: ProblemHandle, X: np.ndarray, sigma: float, cache, out):
    """The gradient in the full matrix, from cache or, without one, a pass at X."""
    sigma = _check_sigma(sigma)
    if cache is None:
        cache = _objective(handle, X, sigma, True, out)[1]
    elif cache.eps.shape != (handle.L, handle.T) or cache.band_weights.shape != (handle.L,):
        raise DimensionMismatch("the residual cache does not fit this problem")
    return -(1.0 / sigma**2) * ((handle.M.T * cache.band_weights) @ cache.eps)


def objective_C(handle: ProblemHandle, X, sigma: float, *, return_cache: bool = False, out=None):
    """Negative correntropy of the fit M X to Y; always in [-L, 0).

    With return_cache, returns the pair (value, ResidualCache at X): the kernel
    pass that gave the value, which gradient_full takes instead of a pass of
    its own; its X is the input array itself. out is an optional float64
    (L, T) buffer: the residual is built in it (then the cache's eps, valid
    until out is used again), so the call allocates no L x T array.
    """
    return _objective(handle, _check_shapes(handle, X, handle.R), sigma, return_cache, out)


def gradient_full(handle: ProblemHandle, X, sigma: float, *, cache=None, out=None):
    """Exact gradient of objective_C with respect to the full R x T matrix.

    cache is the ResidualCache of objective_C(handle, X, sigma,
    return_cache=True) at this X; with it the gradient only forms
    -M'W eps / sigma^2 from the cached residual and weights, bit for bit
    the value of a call without it. out is a residual buffer as in
    objective_C; with a cache it is not written, so the cache stays valid.
    """
    return _gradient(handle, _check_shapes(handle, X, handle.R), sigma, cache, out)


def objective_reduced_f1(
    handle: ProblemHandle, Xr, sigma: float, *, return_cache: bool = False, out=None
):
    """Negative correntropy in the reduced variables: objective_C at
    reconstruct_full(Xr), bit for bit. return_cache and out as in objective_C;
    the cache is the pass at the full matrix, which it holds as X."""
    Xr = _check_shapes(handle, Xr, handle.R - 1)
    return _objective(handle, reconstruct_full(Xr), sigma, return_cache, out)


def gradient_reduced_f1(handle: ProblemHandle, Xr, sigma: float, *, cache=None, out=None):
    """Exact gradient of objective_reduced_f1, shape (R-1) x T: pull of
    gradient_full at reconstruct_full(Xr), bit for bit. cache (from
    objective_reduced_f1 at this Xr) and out as in gradient_full."""
    Xr = _check_shapes(handle, Xr, handle.R - 1)
    return pull(_gradient(handle, reconstruct_full(Xr) if cache is None else Xr, sigma, cache, out))
