"""Evaluation metrics: abundance RMSE, signal-to-reconstruction error in dB,
and the averaged spectral angle distance between observed and reconstructed
spectra."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DimensionMismatch,
    InvalidInput,
    UndefinedMetric,
    ZeroNormSpectrum,
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
    A = np.asarray(a.data if hasattr(a, "data") else a, dtype=float)
    B = np.asarray(b.data if hasattr(b, "data") else b, dtype=float)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shape mismatch {A.shape} vs {B.shape}")
    if A.ndim != 2:
        raise InvalidInput("metrics expect 2-D matrices")
    return A, B


def rmse(X_true, X_hat) -> float:
    """Root mean square abundance error: Frobenius distance over sqrt(R*T)."""
    A, B = _pair(X_true, X_hat)
    return float(np.linalg.norm(A - B) / math.sqrt(A.size))


def sre_db(X_true, X_hat) -> float:
    """Signal-to-reconstruction error in decibels; +inf when the error is zero."""
    A, B = _pair(X_true, X_hat)
    signal = float(np.sum(A * A))
    if signal == 0.0:
        raise UndefinedMetric("SRE is undefined for an all-zero reference")
    err = float(np.sum((A - B) ** 2))
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(signal / err)


def sad(Y, Y_hat, exclude_bands=()) -> float:
    """Mean per-pixel spectral angle (radians) over the retained bands.

    exclude_bands lists 0-based row indices to drop before the angle is
    computed; the cosine is clamped to [-1, 1] to absorb rounding.
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
    na = np.linalg.norm(Ak, axis=0)
    nb = np.linalg.norm(Bk, axis=0)
    if np.any(na == 0.0) or np.any(nb == 0.0):
        raise ZeroNormSpectrum("a pixel spectrum has zero norm after band exclusion")
    cos = np.clip(np.sum(Ak * Bk, axis=0) / (na * nb), -1.0, 1.0)
    return float(np.mean(np.arccos(cos)))


def evaluate_metric(name: str, truth, estimate, exclude_bands=()) -> MetricResult:
    """Dispatch by metric name and wrap the value with its pixel count."""
    t = np.asarray(truth.data if hasattr(truth, "data") else truth, dtype=float)
    n_items = t.shape[1] if t.ndim == 2 else 0
    if name == "RMSE":
        return MetricResult("RMSE", rmse(truth, estimate), n_items)
    if name == "SRE_dB":
        return MetricResult("SRE_dB", sre_db(truth, estimate), n_items)
    if name == "SAD_rad":
        return MetricResult("SAD_rad", sad(truth, estimate, exclude_bands), n_items)
    raise InvalidInput(f"unknown metric name {name!r}")
