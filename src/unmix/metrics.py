"""Evaluation metrics: abundance RMSE, signal-to-reconstruction error in dB,
and the averaged spectral angle distance between observed and reconstructed
spectra.

Each metric takes two equal-shape 2-D matrices, as arrays or domain types; a
NaN or infinite entry in either raises NonFiniteData."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import (
    DimensionMismatch,
    InvalidInput,
    NonFiniteData,
    UndefinedMetric,
    ZeroNormSpectrum,
    _norm,
)

# Each metric's label, and whether a lower value is better.
LOWER_IS_BETTER = {"RMSE": True, "SRE_dB": False, "SAD_rad": True}


def resolve_metric(text: str) -> str:
    """The label that `text` names: a label or its part before '_', in any case."""
    for label in LOWER_IS_BETTER:
        if text.upper() in (label.upper(), label.split("_")[0].upper()):
            return label
    raise InvalidInput(f"unknown metric {text!r}")


@dataclass(frozen=True)
class MetricResult:
    name: str
    value: float
    n_items: int

    def __post_init__(self):
        if self.name not in LOWER_IS_BETTER:
            raise InvalidInput(f"unknown metric name {self.name!r}")
        if self.name == "RMSE" and not self.value >= 0:
            raise InvalidInput("RMSE must be nonnegative")
        if self.name == "SAD_rad" and not (0 <= self.value <= math.pi):
            raise InvalidInput("SAD must lie in [0, pi]")


def _pair(a, b):
    """Both matrices as row-major float arrays: the sums over a whole matrix
    run in memory order, so a column-major input would round differently."""
    A = np.asarray(a, dtype=float, order="C")
    B = np.asarray(b, dtype=float, order="C")
    if A.shape != B.shape:
        raise DimensionMismatch(f"shape mismatch {A.shape} vs {B.shape}")
    if A.ndim != 2:
        raise InvalidInput("metrics expect 2-D matrices")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise NonFiniteData("metrics need finite matrices")
    return A, B


def _scale(m):
    """The power of two 2**k with 1 <= m / 2**k < 2 (some power of two for m = 0).

    Both SRE and SAD are scale-invariant. Dividing by this before squaring
    keeps entries near 1e200 from overflowing, and because the divisor is a
    power of two the division is exact: in-range inputs give bit-identical
    results.
    """
    return np.ldexp(1.0, np.frexp(m)[1] - 1)


def _log2(p) -> int:
    """k for a power of two p = 2**k."""
    return math.frexp(p)[1] - 1


def rmse(X_true, X_hat) -> float:
    """Root mean square abundance error: Frobenius distance over sqrt(R*T)."""
    A, B = _pair(X_true, X_hat)
    return _norm(A - B) / math.sqrt(A.size)


def sre_db(X_true, X_hat) -> float:
    """Signal-to-reconstruction error in decibels; +inf when the error is zero.

    The signal and the error are each scaled by a power of two near their
    largest entry before squaring, so entries near the overflow limit, or an
    estimate that dwarfs the reference, still give a value. The two powers of
    two are applied to the ratio as an exact exponent shift while it is a
    normal float, and in the log domain beyond.
    """
    A, B = _pair(X_true, X_hat)
    s = _scale(np.max(np.abs(A), initial=0.0))
    signal = float(np.sum((A / s) ** 2))
    if signal == 0.0:
        raise UndefinedMetric("SRE is undefined for an all-zero reference")
    # A common scale for both keeps the difference itself from overflowing
    c = _scale(max(np.max(np.abs(A)), np.max(np.abs(B))))
    D = A / c - B / c
    e = _scale(np.max(np.abs(D)))
    err = float(np.sum((D / e) ** 2))
    if err == 0.0:
        return math.inf
    # the SRE ratio is (signal / err) * 2**shift
    shift = 2 * (_log2(s) - _log2(c) - _log2(e))
    ratio = math.ldexp(signal / err, shift)
    if sys.float_info.min <= ratio < math.inf:
        return 10.0 * math.log10(ratio)
    return 10.0 * (math.log10(signal / err) + shift * math.log10(2.0))


def sad(Y, Y_hat, exclude_bands=()) -> float:
    """Mean per-pixel spectral angle (radians) over the retained bands.

    exclude_bands lists 0-based row indices to drop before the angle is
    computed; each pixel's pair of spectra is scaled by a common power of two
    near its largest entry, and the cosine is clamped to [-1, 1] to absorb
    rounding.
    """
    A, B = _pair(Y, Y_hat)
    L = A.shape[0]
    excl = sorted({int(i) for i in exclude_bands})
    if excl and (excl[0] < 0 or excl[-1] >= L):
        raise InvalidInput(f"exclude indices must lie in [0, {L})")
    keep = np.setdiff1d(np.arange(L), excl)
    if keep.size == 0:
        raise InvalidInput("all bands excluded")
    Ak, Bk = A[keep, :], B[keep, :]
    s = _scale(np.maximum(np.max(np.abs(Ak), axis=0), np.max(np.abs(Bk), axis=0)))
    Ak, Bk = Ak / s, Bk / s
    na = np.linalg.norm(Ak, axis=0)
    nb = np.linalg.norm(Bk, axis=0)
    if np.any(na == 0.0) or np.any(nb == 0.0):
        raise ZeroNormSpectrum("a pixel spectrum has zero norm after band exclusion")
    cos = np.clip(np.sum(Ak * Bk, axis=0) / (na * nb), -1.0, 1.0)
    return float(np.mean(np.arccos(cos)))


def evaluate_metric(name: str, truth, estimate, exclude_bands=()) -> MetricResult:
    """Dispatch by metric name and wrap the value with its pixel count."""
    t = np.asarray(truth, dtype=float)
    n_items = t.shape[1] if t.ndim == 2 else 0
    if name == "RMSE":
        return MetricResult("RMSE", rmse(truth, estimate), n_items)
    if name == "SRE_dB":
        return MetricResult("SRE_dB", sre_db(truth, estimate), n_items)
    if name == "SAD_rad":
        return MetricResult("SAD_rad", sad(truth, estimate, exclude_bands), n_items)
    raise InvalidInput(f"unknown metric name {name!r}")
