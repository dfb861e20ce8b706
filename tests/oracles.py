"""Independent oracles used by the tests.

Everything here is deliberately brute force and kept apart from the library's
own numerics: central finite differences for gradients, exhaustive active-set
enumeration for the tiny constrained quadratic problems, direct KKT
residuals, and a matrix-file reader that converts one token at a time.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from unmix.fileio import MAGIC, BadMagic, ParseError, ShapeMismatch


def central_difference_gradient(fn, x0: np.ndarray, rel_step: float = 1e-6) -> np.ndarray:
    """Central differences of a scalar function, one coordinate at a time."""
    x0 = np.ascontiguousarray(x0, dtype=float)
    xf = x0.ravel()
    flat = np.zeros(xf.size)
    for i in range(xf.size):
        h = rel_step * (1.0 + abs(xf[i]))
        xp = xf.copy()
        xm = xf.copy()
        xp[i] += h
        xm[i] -= h
        flat[i] = (fn(xp.reshape(x0.shape)) - fn(xm.reshape(x0.shape))) / (2.0 * h)
    return flat.reshape(x0.shape)


def max_relative_error(approx: np.ndarray, exact: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(exact))), 1e-12)
    return float(np.max(np.abs(approx - exact))) / scale


def simplex_ls_enumeration(M: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Global minimizer of ||y - M x||^2 on the probability simplex, by trying
    every support and solving the equality-constrained subproblem exactly."""
    L, R = M.shape
    best = None
    best_obj = np.inf
    for size in range(1, R + 1):
        for support in itertools.combinations(range(R), size):
            S = list(support)
            Ms = M[:, S]
            # KKT system of min ||y - Ms xs||^2 s.t. 1' xs = 1
            G = Ms.T @ Ms
            K = np.zeros((size + 1, size + 1))
            K[:size, :size] = 2.0 * G
            K[:size, size] = 1.0
            K[size, :size] = 1.0
            rhs = np.concatenate([2.0 * Ms.T @ y, [1.0]])
            try:
                sol = np.linalg.solve(K, rhs)
            except np.linalg.LinAlgError:
                continue
            xs = sol[:size]
            if np.any(xs < -1e-12):
                continue
            x = np.zeros(R)
            x[S] = np.maximum(xs, 0.0)
            x /= x.sum()
            obj = float(np.sum((y - M @ x) ** 2))
            if obj < best_obj:
                best_obj = obj
                best = x
    assert best is not None
    return best


def nnls_enumeration(M: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Global minimizer of ||y - M x||^2 with x >= 0, by support enumeration."""
    L, R = M.shape
    best = np.zeros(R)
    best_obj = float(np.sum(y**2))
    for size in range(1, R + 1):
        for support in itertools.combinations(range(R), size):
            S = list(support)
            Ms = M[:, S]
            try:
                xs, *_ = np.linalg.lstsq(Ms, y, rcond=None)
            except np.linalg.LinAlgError:
                continue
            if np.any(xs < -1e-12):
                continue
            x = np.zeros(R)
            x[S] = np.maximum(xs, 0.0)
            obj = float(np.sum((y - M @ x) ** 2))
            if obj < best_obj:
                best_obj = obj
                best = x
    return best


def fcls_kkt_residual(M: np.ndarray, y: np.ndarray, x: np.ndarray, active_tol: float = 1e-9) -> float:
    """Worst KKT violation of min ||y - Mx||^2 on the simplex at x."""
    g = 2.0 * M.T @ (M @ x - y)
    support = x > active_tol
    if not np.any(support):
        return float("inf")
    nu = -float(np.mean(g[support]))
    res_stationarity = float(np.max(np.abs(g[support] + nu)))
    res_dual = float(np.max(np.maximum(-(g[~support] + nu), 0.0))) if np.any(~support) else 0.0
    res_primal = max(abs(float(x.sum()) - 1.0), float(np.max(np.maximum(-x, 0.0))))
    return max(res_stationarity, res_dual, res_primal)


def sparse_prox_fixed_point_residual(
    M: np.ndarray, y: np.ndarray, x: np.ndarray, lam: float
) -> float:
    """Distance of x from one proximal-gradient step of
    min ||y - Mx||^2 + lam ||x||_1 s.t. x >= 0 (a fixed point iff optimal)."""
    lip = 2.0 * float(np.linalg.norm(M.T @ M, 2))
    t = 1.0 / lip
    g = 2.0 * M.T @ (M @ x - y)
    step = x - t * g
    prox = np.maximum(np.sign(step) * np.maximum(np.abs(step) - t * lam, 0.0), 0.0)
    return float(np.max(np.abs(x - prox)))


def project_simplex_reference(v: np.ndarray) -> np.ndarray:
    """O(n log n) Euclidean projection of one vector onto the unit simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    k = np.nonzero(u * np.arange(1, v.size + 1) > (css - 1.0))[0][-1]
    theta = (css[k] - 1.0) / (k + 1.0)
    return np.maximum(v - theta, 0.0)


def read_matrix_per_token(path) -> np.ndarray:
    """The matrix container read the plain way: the whole text split with
    str.splitlines, blank and `#` lines dropped, every body token converted
    by float(); raises what fileio.read_matrix raises, with its messages."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    content = [(n, line.strip()) for n, line in enumerate(lines, start=1)]
    content = [(n, text) for n, text in content if text and not text.startswith("#")]
    if not content:
        raise BadMagic(f"{path}: empty file")
    parts = content[0][1].split()
    if len(parts) != 4 or " ".join(parts[:2]) != MAGIC:
        raise BadMagic(f"{path}: expected header '{MAGIC} <rows> <cols>'")
    try:
        rows, cols = int(parts[2]), int(parts[3])
    except ValueError:
        raise BadMagic(f"{path}: non-integer shape in header") from None
    if rows < 1 or cols < 1:
        raise BadMagic(f"{path}: shape must be positive, got {rows} x {cols}")
    values = []
    for lineno, text in content[1:]:
        for tok in text.split():
            try:
                v = float(tok)
            except ValueError:
                raise ParseError(f"bad value {tok!r}", line=lineno) from None
            if not math.isfinite(v):
                raise ParseError(f"non-finite value {tok!r}", line=lineno)
            values.append(v)
    if len(values) != rows * cols:
        raise ShapeMismatch(f"{path}: header promises {rows * cols} values, found {len(values)}")
    return np.array(values, dtype=float).reshape(rows, cols)
