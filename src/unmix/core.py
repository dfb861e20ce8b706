"""Domain types, validation, and the projection/proximal operators shared by all solvers.

The matrix domain types (ObservationMatrix, EndmemberMatrix, AbundanceMatrix,
and correntropy.ReducedAbundance) share one private base, which copies the
input once into a read-only float64 2-D array of finite entries. numpy reads
an instance as that array (np.asarray(m) is m.data), so every function that
takes a matrix reads it with np.asarray(x, dtype=float), or with the type's
own constructor where that validates, and takes a raw array or any domain
type alike. Frozen instances are safe to share across threads; the operations
here are pure functions, and a ProblemHandle factors M (one thin SVD) and
fits least squares once each, when first asked.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Optional

import numpy as np

# Feasibility slack used when tagging abundance matrices as constrained.
TOL_FEAS = 1e-9

# Condition number of M'M, (s_max / s_min)^2 of M, above which the endmember
# geometry is considered degenerate.
COND_LIMIT = 1e12


class UnmixError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(UnmixError):
    pass


class DimensionMismatch(UnmixError):
    pass


class NonFiniteData(UnmixError):
    pass


class SingularNormalEquations(UnmixError):
    pass


class InnerSolverFailure(UnmixError):
    pass


class NonFiniteIterate(UnmixError):
    pass


class TuningFailed(UnmixError):
    pass


class UndefinedMetric(UnmixError):
    pass


class ZeroNormSpectrum(UnmixError):
    pass


class GenerationFailed(UnmixError):
    pass


class RankDeficiencyWarning(UserWarning):
    """Endmember matrix is (close to) rank deficient."""


class MaxItersWarning(UserWarning):
    """Iterative solver hit its iteration cap before reaching tolerance."""


@dataclass(frozen=True)
class _Matrix:
    """A read-only float64 2-D matrix of finite entries, copied at construction;
    numpy reads it as its data (np.asarray(m) is m.data, np.array(m) a copy)."""

    data: np.ndarray
    _what: ClassVar[str] = "matrix"

    def __post_init__(self):
        what, arr = self._what, np.array(self.data, dtype=float, copy=True)
        if arr.ndim != 2:
            raise InvalidInput(f"{what} must be a 2-D matrix, got ndim={arr.ndim}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InvalidInput(f"{what} must have at least one row and one column, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteData(f"{what} contains non-finite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    def __array__(self, dtype=None, copy=None):
        if copy is None:  # numpy 1 never passes copy
            return np.asarray(self.data, dtype=dtype)
        return np.array(self.data, dtype=dtype, copy=copy)


@dataclass(frozen=True)
class ObservationMatrix(_Matrix):
    """Hyperspectral cube flattened to bands x pixels.

    Row l holds band l across all pixels; column t is the spectrum of pixel t.
    """

    _what = "observation matrix"


@dataclass(frozen=True)
class EndmemberMatrix(_Matrix):
    """Known pure-material spectra, one endmember per column (bands x endmembers)."""

    _what = "endmember matrix"

    def __post_init__(self):
        super().__post_init__()
        L, R = self.data.shape
        if R > L:
            raise InvalidInput(f"endmember matrix must be tall (R <= L), got L={L}, R={R}")


@dataclass(frozen=True)
class AbundanceMatrix(_Matrix):
    """Per-pixel mixing coefficients (endmembers x pixels).

    `tag` asserts a constraint set the entries were produced under:
    "fully_constrained" (nonnegative, columns sum to one) or "nonnegative".
    Tag violations beyond TOL_FEAS are rejected at construction.
    """

    tag: Optional[str] = None
    _what = "abundance matrix"

    def __post_init__(self):
        super().__post_init__()
        if self.tag not in (None, "fully_constrained", "nonnegative"):
            raise InvalidInput(f"unknown abundance tag {self.tag!r}")
        if self.tag is not None and self.data.min() < -TOL_FEAS:
            raise InvalidInput(
                f"tag {self.tag!r} requires entries >= -{TOL_FEAS}, got min {self.data.min():.3e}"
            )
        if self.tag == "fully_constrained":
            colsums = self.data.sum(axis=0)
            worst = np.max(np.abs(colsums - 1.0))
            if worst > TOL_FEAS:
                raise InvalidInput(
                    f"tag 'fully_constrained' requires column sums = 1 +/- {TOL_FEAS}, "
                    f"worst deviation {worst:.3e}"
                )


def _real(value) -> float:
    """value as a float when it is a real number that a float can hold, else
    nan; a bool is not one, as for _check_int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return math.nan
    try:
        return float(value)
    except OverflowError:
        return math.nan


def _check_int(name: str, value, lo: int, hi: Optional[int] = None) -> None:
    """Raise InvalidInput naming `name` unless value is an int or a numpy
    integer, not a bool, in [lo, hi] (at least lo when hi is None)."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and lo <= value and (hi is None or value <= hi)):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise InvalidInput(f"{name} must be an integer {bounds}, got {value!r}")


def _check_sigma(sigma) -> float:
    """sigma as a float; 2 sigma^2 must be a finite normal float, so that the
    kernel's 2 sigma^2 and the gradient's 1 / sigma^2 are finite and nonzero."""
    s = _real(sigma)
    if not (s > 0 and sys.float_info.min <= 2.0 * s * s < math.inf):
        raise InvalidInput(f"sigma must be > 0 with 2*sigma^2 a finite normal float: {sigma}")
    return s


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters shared by the correntropy solvers.

    sigma           Gaussian kernel bandwidth, > 0 with 2 sigma^2 a finite normal
                    float; required unless sigma_auto, and rejected with it.
                    It and the reals below may not be bools.
    rho             floor of the ADMM penalty, a positive finite real. Each
                    correntropy run uses max(rho, lambda_min(M' W0 M) /
                    sigma^2), W0 the band weights at its warm start, and
                    reports it as SolverReport.rho_used.
    lam             l1 weight for the sparsity-promoting problem, a nonnegative
                    finite real.
    eps_primal/dual per-coordinate residual tolerances, positive finite reals;
                    the outer loop stops on residual norms below sqrt(R*T)
                    times these.
    max_outer_iters outer iteration cap (an integer >= 1, not a bool).
    max_inner_iters majorize-minimize steps per x-update (as the cap). The
                    default 1 is majorized ADMM: every x-update minimizes the
                    x-subproblem's majorizer at the previous iterate once.
                    Larger values take further steps from the same x-update,
                    until the gradient tolerance or the cap.
    sigma_auto      run the bandwidth tuner instead of using `sigma`.

    The x-update's step and tolerance are fixed values, not settings: each
    step solves the weighted least-squares problem that majorizes the
    x-subproblem at the current iterate (unit step; a step that does not lower
    the subproblem ends the x-update), and the steps stop at 1e-6 relative
    gradient norm.
    """

    sigma: Optional[float] = None
    rho: float = 1.0
    lam: float = 0.0
    eps_primal: float = 1e-5
    eps_dual: float = 1e-5
    max_outer_iters: int = 1000
    max_inner_iters: int = 1
    sigma_auto: bool = False

    def __post_init__(self):
        if self.sigma is not None:
            _check_sigma(self.sigma)
        if self.sigma is not None and self.sigma_auto:
            raise InvalidInput("sigma and sigma_auto are exclusive: set one of them")
        for name in ("rho", "eps_primal", "eps_dual"):
            if not (0 < _real(getattr(self, name)) < math.inf):
                raise InvalidInput(f"{name} must be a positive finite real")
        if not (0 <= _real(self.lam) < math.inf):
            raise InvalidInput("lam must be a nonnegative finite real")
        for name in ("max_outer_iters", "max_inner_iters"):
            _check_int(name, getattr(self, name), 1)


class Termination(Enum):
    """Outcome of the three-fold outer stopping rule."""

    CONTINUE = "continue"
    RESIDUALS_SMALL = "residuals_small"
    PRIMAL_INCREASED = "primal_increased"
    MAX_ITERS = "max_iters"


@dataclass(frozen=True)
class SolverReport:
    """Per-iteration diagnostics of one ADMM run.

    objective_trace holds the kernel term at each iteration's x, read from the
    x-update's last kernel pass: objective_C at the full x, bit for bit, for
    both solvers. tuning is the bandwidth search's TuningTrace when the
    run is the accepted attempt of a sigma_auto solve, None otherwise.
    rho_used is the run's ADMM penalty, which its dual residuals and
    stopping rule read; sigma_used and rho_used are positive when set.
    """

    iterations_run: int
    primal_residuals: tuple
    dual_residuals: tuple
    objective_trace: tuple
    termination_reason: Termination
    sigma_used: Optional[float] = None
    tuning: Optional[object] = None
    rho_used: Optional[float] = None

    def __post_init__(self):
        n = self.iterations_run
        for name in ("primal_residuals", "dual_residuals", "objective_trace"):
            seq = tuple(float(v) for v in getattr(self, name))
            object.__setattr__(self, name, seq)
            if len(seq) != n:
                raise InvalidInput(f"{name} must have length iterations_run={n}, got {len(seq)}")
        if self.termination_reason == Termination.CONTINUE:
            raise InvalidInput("a finished run cannot terminate with CONTINUE")
        if self.termination_reason == Termination.PRIMAL_INCREASED:
            if n < 2 or not self.primal_residuals[-1] > self.primal_residuals[-2]:
                raise InvalidInput(
                    "PRIMAL_INCREASED requires the last primal residual to exceed the previous one"
                )
        for name in ("sigma_used", "rho_used"):
            if getattr(self, name) is not None and not (getattr(self, name) > 0):
                raise InvalidInput(f"{name} must be positive when set")


@dataclass(frozen=True)
class ProblemHandle:
    """Validated, immutable bundle of one unmixing problem (Y, M, L, T, R).

    It also holds the problem's one thin SVD of M and one least-squares fit:
    svd, least_squares and ls_residual are computed the first time they are
    read and kept, so every solve on the handle shares them. The baseline
    ADMM loop reads svd and starts from its own product of the factors.
    """

    Y: np.ndarray
    M: np.ndarray
    L: int
    T: int
    R: int

    @functools.cached_property
    def svd(self) -> tuple:
        """The thin SVD of M, (Q, s, V') from np.linalg.svd, read-only."""
        factors = tuple(np.linalg.svd(self.M, full_matrices=False))
        for a in factors:
            a.setflags(write=False)
        return factors

    @functools.cached_property
    def least_squares(self) -> np.ndarray:
        """The read-only R x T least-squares abundances, from baselines.solve_ls."""
        # looked up here (baselines imports this module), as a module
        # attribute, so a wrapped solve_ls is what runs
        from . import baselines

        return baselines.solve_ls(self).data

    @functools.cached_property
    def ls_residual(self) -> float:
        """The Frobenius norm of Y - M least_squares."""
        return _norm(self.Y - self.M @ self.least_squares)


def project_nonnegative(v) -> np.ndarray:
    """Project onto the first orthant: elementwise max(0, v). Idempotent."""
    arr = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("project_nonnegative requires finite input")
    return np.maximum(arr, 0.0)


def soft_threshold(v, b: float) -> np.ndarray:
    """Shrink each entry toward zero by b: the proximal map of b * l1-norm.

    Entries with magnitude <= b (boundary included) map to zero.
    """
    if not (0 <= _real(b) < math.inf):
        raise InvalidInput(f"threshold b must be a finite nonnegative real, got {b!r}")
    arr = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("soft_threshold requires finite input")
    return np.sign(arr) * np.maximum(np.abs(arr) - b, 0.0)


def _project_columns_to_simplex(X: np.ndarray) -> np.ndarray:
    """Euclidean projection of every column onto the probability simplex."""
    R, T = X.shape
    srt = np.sort(X, axis=0)[::-1, :]
    css = np.cumsum(srt, axis=0) - 1.0
    idx = np.arange(1, R + 1)[:, np.newaxis]
    cond = srt - css / idx > 0
    k = R - 1 - np.argmax(cond[::-1, :], axis=0)
    theta = css[k, np.arange(T)] / (k + 1.0)
    return np.maximum(X - theta[np.newaxis, :], 0.0)


def _shrink_nonnegative(v: np.ndarray, b: float) -> np.ndarray:
    """Overwrite v with max(v - b, 0), which for a threshold b >= 0 equals
    max(soft_threshold(v, b), 0) bit for bit, zeros' signs included, without
    the sign and magnitude passes; returns v."""
    np.subtract(v, b, out=v)
    return np.maximum(v, 0.0, out=v)


def _dot(a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None, axis=None):
    """The dot product of two equal-shape arrays over all their entries, or
    the dot products over the given axes, as numpy's pairwise sums of their
    products (written into out when given).

    BLAS splits a long dot product (OpenBLAS: over 10,000 entries) across its
    threads, so np.dot and np.linalg.norm round differently at different BLAS
    thread counts; these sums round the same at any. An array dotted with
    itself is squared, which numpy does faster than multiplying it by itself."""
    products = np.square(a, out=out) if a is b else np.multiply(a, b, out=out)
    return np.add.reduce(products, axis=axis)


def _norm(a: np.ndarray) -> float:
    """The Euclidean (Frobenius) norm of a through _dot."""
    return math.sqrt(_dot(a, a))


def validate_problem(Y, M) -> ProblemHandle:
    """Check that (Y, M) form a well-posed problem and bundle them in a handle.

    Accepts ObservationMatrix/EndmemberMatrix or raw 2-D arrays. Warns with
    RankDeficiencyWarning when cond(M'M) = (s_max / s_min)^2 of the handle's
    SVD of M (inf at s_min = 0) exceeds COND_LIMIT (e.g. duplicated columns).
    """
    Ydata = ObservationMatrix(Y).data
    Mdata = EndmemberMatrix(M).data
    L, T = Ydata.shape
    LM, R = Mdata.shape
    if L != LM:
        raise DimensionMismatch(f"Y has {L} bands but M has {LM}")
    handle = ProblemHandle(Y=Ydata, M=Mdata, L=L, T=T, R=R)
    s_max, s_min = handle.svd[1][[0, -1]].tolist()
    cond = (s_max / s_min) * (s_max / s_min) if s_min > 0 else math.inf
    if not cond <= COND_LIMIT:
        warnings.warn(
            f"endmember matrix is near rank deficient (normal-equations condition ~{cond:.2e})",
            RankDeficiencyWarning,
            stacklevel=2,
        )
    return handle


def linear_mix(M, X) -> np.ndarray:
    """Predicted observations M @ X of the linear mixing model."""
    Mdata = np.asarray(M, dtype=float)
    Xdata = np.asarray(X, dtype=float)
    if Mdata.shape[1] != Xdata.shape[0]:
        raise DimensionMismatch(
            f"M has {Mdata.shape[1]} endmembers but X has {Xdata.shape[0]} rows"
        )
    return Mdata @ Xdata
