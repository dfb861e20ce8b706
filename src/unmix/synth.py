"""Ground-truthed synthetic cubes: linear and post-nonlinear mixing, Dirichlet
abundances (dense or K-sparse), SNR-calibrated Gaussian noise, and corrupted
band injection.

All randomness flows through numpy's default_rng (PCG64) seeded with the
64-bit seed of the recipe; draw order inside gen_cube is fixed (abundances,
nonlinearity coefficients, noise, corrupted band indices, replacement values),
so a fixed seed reproduces the cube bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    AbundanceMatrix,
    DimensionMismatch,
    EndmemberMatrix,
    GenerationFailed,
    InvalidInput,
    ObservationMatrix,
    _check_int,
)

_MAX_REJECTIONS = 10_000


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one ground-truthed cube."""

    model: str
    R: int
    L: int
    T: int
    snr_db: float
    n_corrupt: int = 0
    sparsity_K: Optional[int] = None
    seed: int = 0
    b_range: tuple = (-3.0, 3.0)

    def __post_init__(self):
        if self.model not in ("lmm", "ppnmm"):
            raise InvalidInput(f"model must be 'lmm' or 'ppnmm', got {self.model!r}")
        for name in ("R", "L", "T"):
            _check_int(name, getattr(self, name), 1)
        _check_int("n_corrupt", self.n_corrupt, 0, self.L)
        _check_int("seed", self.seed, 0)
        if self.sparsity_K is not None:
            _check_int("sparsity_K", self.sparsity_K, 1, self.R)
        lo, hi = self.b_range
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise InvalidInput("b_range must be a finite (lo, hi) interval")
        with np.errstate(over="ignore"):
            power = np.float64(10.0) ** (self.snr_db / 10.0)  # 0 at -inf, nan at nan
        if not (0.0 < power < math.inf or self.snr_db == math.inf):
            raise InvalidInput(f"snr_db must be +inf or have 10^(snr_db/10) finite and > 0: {self.snr_db:g}")


@dataclass(frozen=True)
class GroundTruth:
    """Hidden variables of a generated cube, kept for evaluation."""

    X_true: AbundanceMatrix
    corrupted_bands: tuple
    b: Optional[np.ndarray]
    noise_sigma: float
    seed: int

    def __post_init__(self):
        bands = tuple(int(i) for i in self.corrupted_bands)
        if any(b2 <= b1 for b1, b2 in zip(bands, bands[1:])):
            raise InvalidInput("corrupted_bands must be strictly increasing")
        object.__setattr__(self, "corrupted_bands", bands)


def _sample_abundances(rng: np.random.Generator, R: int, T: int, K: Optional[int]) -> np.ndarray:
    if K is None:
        X = rng.dirichlet(np.ones(R), size=T).T
    else:
        X = np.zeros((R, T))
        for t in range(T):
            support = rng.choice(R, size=K, replace=False)
            X[support, t] = rng.dirichlet(np.ones(K))
    # exact unit column sums
    return X / X.sum(axis=0)


def gen_abundances(R: int, T: int, K: Optional[int] = None, seed: int = 0) -> AbundanceMatrix:
    """Columns drawn from the flat Dirichlet over the simplex.

    With K set, each pixel gets K support indices drawn uniformly without
    replacement and a flat Dirichlet on that support. R and T are integers
    >= 1, K one in [1, R], and seed a nonnegative integer.
    """
    _check_int("R", R, 1)
    _check_int("T", T, 1)
    if K is not None:
        _check_int("K", K, 1, R)
    _check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    return AbundanceMatrix(_sample_abundances(rng, R, T, K), tag="fully_constrained")


def gen_cube(M, spec: SyntheticSpec):
    """Generate (observations, ground truth) for the given recipe.

    The clean signal follows the linear model or its post-nonlinear variant
    y = Mx + b (Mx) o (Mx); noise variance is set from the clean signal energy
    and the requested SNR (snr_db = inf disables noise); finally n_corrupt
    uniformly chosen bands are overwritten with uniform [0, 1] values.
    """
    Mdata = EndmemberMatrix(M).data
    if Mdata.shape != (spec.L, spec.R):
        raise DimensionMismatch(
            f"endmember matrix {Mdata.shape} does not match recipe (L={spec.L}, R={spec.R})"
        )
    rng = np.random.default_rng(spec.seed)
    X = _sample_abundances(rng, spec.R, spec.T, spec.sparsity_K)
    P = Mdata @ X
    b = None
    if spec.model == "ppnmm":
        b = rng.uniform(spec.b_range[0], spec.b_range[1], size=spec.T)
        S = P + b[np.newaxis, :] * (P * P)
    else:
        S = P
    if math.isinf(spec.snr_db):
        noise_sigma = 0.0
        Y = S.copy()
    else:
        signal_energy = float(np.sum(S * S))
        noise_sigma = math.sqrt(signal_energy / (spec.L * spec.T * 10.0 ** (spec.snr_db / 10.0)))
        Y = S + noise_sigma * rng.standard_normal((spec.L, spec.T))
    if spec.n_corrupt > 0:
        bands = np.sort(rng.choice(spec.L, size=spec.n_corrupt, replace=False))
        Y[bands, :] = rng.uniform(0.0, 1.0, size=(spec.n_corrupt, spec.T))
    else:
        bands = np.empty(0, dtype=int)
    truth = GroundTruth(
        X_true=AbundanceMatrix(X, tag="fully_constrained"),
        corrupted_bands=tuple(int(i) for i in bands),
        b=b,
        noise_sigma=noise_sigma,
        seed=spec.seed,
    )
    return ObservationMatrix(Y), truth


def _smooth_spectrum(rng: np.random.Generator, L: int) -> np.ndarray:
    """One nonnegative spectrum over L bands: a few Gaussian bumps scaled to [0, 1]."""
    grid = np.arange(L, dtype=float)
    n_bumps = int(rng.integers(3, 9))
    centers = rng.uniform(0.0, L, size=n_bumps)
    widths = rng.uniform(L / 30.0, L / 6.0, size=n_bumps)
    amps = rng.uniform(0.2, 1.0, size=n_bumps)
    s = np.zeros(L)
    for c, w, a in zip(centers, widths, amps):
        s += a * np.exp(-0.5 * ((grid - c) / w) ** 2)
    span = s.max() - s.min()
    if span < 1e-12:
        return np.full(L, 0.5)
    return (s - s.min()) / span


def _pairwise_angle_ok(s: np.ndarray, others: list, min_angle_rad: float) -> bool:
    ns = np.linalg.norm(s)
    if ns == 0.0:
        return False
    for o in others:
        cosang = float(np.clip(s @ o / (ns * np.linalg.norm(o)), -1.0, 1.0))
        if math.acos(cosang) < min_angle_rad:
            return False
    return True


def gen_endmembers(R: int, L: int, seed: int = 0, min_angle_deg: float = 10.0) -> EndmemberMatrix:
    """Synthetic smooth spectra with pairwise spectral angle >= min_angle_deg.

    Candidates are rejection-sampled; generation fails after 10^4 rejections.
    """
    _check_int("R", R, 1)
    _check_int("L", L, 1)
    _check_int("endmember seed", seed, 0)
    if not (math.isfinite(min_angle_deg) and min_angle_deg >= 0):
        raise InvalidInput(f"min_angle_deg must be a finite nonnegative angle, got {min_angle_deg}")
    if R > L:
        raise InvalidInput(f"cannot place {R} endmembers in {L} bands")
    rng = np.random.default_rng(seed)
    min_angle_rad = math.radians(min_angle_deg)
    accepted: list = []
    rejections = 0
    while len(accepted) < R:
        s = _smooth_spectrum(rng, L)
        if _pairwise_angle_ok(s, accepted, min_angle_rad):
            accepted.append(s)
        else:
            rejections += 1
            if rejections >= _MAX_REJECTIONS:
                raise GenerationFailed(
                    f"could not place {R} spectra with pairwise angle >= {min_angle_deg} deg "
                    f"after {_MAX_REJECTIONS} rejections"
                )
    return EndmemberMatrix(np.column_stack(accepted))
