"""Text file formats: the matrix container, the ground-truth sidecar, and the
experiment configuration.

Matrix container: first line `UNMIX-MATRIX v1 <rows> <cols>`, then one row per
line with space-separated decimal or scientific values; lines starting with `#`
are ignored. Values are written with 17 significant digits so a write/read
round trip is exact for float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import solvers
from .core import UnmixError

MAGIC = "UNMIX-MATRIX v1"

_CONFIG_KEYS = {
    "model",
    "R",
    "L",
    "T",
    "snr_db",
    "corrupt_list",
    "algorithms",
    "lambda_grid",
    "seeds",
    "metric",
    "K",
    "b_range",
    "endmember_seed",
    "min_angle_deg",
    "max_outer_iters",
}

# The default l1 grid used when a config does not set lambda_grid.
DEFAULT_LAMBDA_GRID = (1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 1e-2, 1e-1)


class BadMagic(UnmixError):
    pass


class ShapeMismatch(UnmixError):
    pass


class ParseError(UnmixError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def write_matrix(path, matrix) -> None:
    arr = np.asarray(matrix.data if hasattr(matrix, "data") else matrix, dtype=float)
    if arr.ndim != 2:
        raise ShapeMismatch("only 2-D matrices can be written")
    rows, cols = arr.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{MAGIC} {rows} {cols}\n")
        for r in range(rows):
            fh.write(" ".join(f"{v:.17g}" for v in arr[r]) + "\n")


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header_idx = None
    for i, line in enumerate(lines):
        if line.startswith("#") or not line.strip():
            continue
        header_idx = i
        break
    if header_idx is None:
        raise BadMagic(f"{path}: empty file")
    parts = lines[header_idx].split()
    if len(parts) != 4 or " ".join(parts[:2]) != MAGIC:
        raise BadMagic(f"{path}: expected header '{MAGIC} <rows> <cols>'")
    try:
        rows, cols = int(parts[2]), int(parts[3])
    except ValueError:
        raise BadMagic(f"{path}: non-integer shape in header") from None
    if rows < 1 or cols < 1:
        raise BadMagic(f"{path}: shape must be positive, got {rows} x {cols}")
    values: list[float] = []
    for lineno, line in enumerate(lines[header_idx + 1 :], start=header_idx + 2):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        for tok in stripped.split():
            try:
                v = float(tok)
            except ValueError:
                raise ParseError(f"bad value {tok!r}", line=lineno) from None
            if not math.isfinite(v):
                raise ParseError(f"non-finite value {tok!r}", line=lineno)
            values.append(v)
    if len(values) != rows * cols:
        raise ShapeMismatch(
            f"{path}: header promises {rows * cols} values, found {len(values)}"
        )
    return np.array(values, dtype=float).reshape(rows, cols)


def write_truth_meta(path, truth, spec) -> None:
    """Ground-truth sidecar: one `key value` line per hidden variable."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"model {spec.model}\n")
        fh.write(f"seed {truth.seed}\n")
        fh.write(f"snr_db {format_float(spec.snr_db)}\n")
        fh.write(f"noise_sigma {format_float(truth.noise_sigma)}\n")
        fh.write("corrupted_bands " + ",".join(str(i) for i in truth.corrupted_bands) + "\n")
        if truth.b is not None:
            fh.write("b " + ",".join(f"{v:.17g}" for v in truth.b) + "\n")


def read_truth_meta(path) -> dict:
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            key, _, rest = stripped.partition(" ")
            out[key] = rest
    return out


def format_float(v: float) -> str:
    return f"{v:.17g}"


def parse_band_ranges(text: str) -> list:
    """1-based inclusive ranges like '1-3,105-115' into sorted 0-based indices."""
    indices: set = set()
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        lo, sep, hi = chunk.partition("-")
        try:
            start = int(lo)
            end = int(hi) if sep else start
        except ValueError:
            raise ParseError(f"bad band range {chunk!r}") from None
        if start < 1 or end < start:
            raise ParseError(f"bad band range {chunk!r}")
        indices.update(range(start - 1, end))
    return sorted(indices)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment grid."""

    model: str
    R: int
    L: int
    T: int
    snr_db: float
    corrupt_list: tuple
    algorithms: tuple
    seeds: tuple
    metrics: tuple
    lambda_grid: tuple = DEFAULT_LAMBDA_GRID
    K: Optional[int] = None
    b_range: tuple = (-3.0, 3.0)
    endmember_seed: int = 0
    min_angle_deg: float = 10.0
    max_outer_iters: int = 1000


def _parse_float(value: str, key: str, lineno: int) -> float:
    if value.lower() in ("inf", "+inf", "infinity"):
        return math.inf
    try:
        return float(value)
    except ValueError:
        raise ParseError(f"key {key!r}: bad number {value!r}", line=lineno) from None


def _parse_int(value: str, key: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"key {key!r}: bad integer {value!r}", line=lineno) from None


def parse_experiment_config(path) -> ExperimentConfig:
    """Parse the flat `key = value` experiment file; unknown keys are an error."""
    raw: dict = {}
    linenos: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            key, sep, value = stripped.partition("=")
            if not sep:
                raise ParseError(f"expected 'key = value', got {stripped!r}", line=lineno)
            key = key.strip()
            value = value.strip()
            if key not in _CONFIG_KEYS:
                raise ParseError(f"unknown key {key!r}", line=lineno)
            if key in raw:
                raise ParseError(f"duplicate key {key!r}", line=lineno)
            raw[key] = value
            linenos[key] = lineno
    for required in ("model", "R", "L", "T", "snr_db", "corrupt_list", "algorithms", "seeds", "metric"):
        if required not in raw:
            raise ParseError(f"missing required key {required!r}")

    model = raw["model"]
    if model not in ("lmm", "ppnmm"):
        raise ParseError(f"model must be lmm or ppnmm, got {model!r}", line=linenos["model"])
    algorithms = tuple(a.strip() for a in raw["algorithms"].split(",") if a.strip())
    if not algorithms:
        raise ParseError("algorithms list is empty", line=linenos["algorithms"])
    for a in algorithms:
        if a not in solvers.ALGORITHMS:
            raise ParseError(f"unknown algorithm {a!r}", line=linenos["algorithms"])
    metrics = tuple(m.strip().upper() for m in raw["metric"].split(",") if m.strip())
    canonical = {"RMSE": "RMSE", "SRE": "SRE_dB", "SRE_DB": "SRE_dB", "SAD": "SAD_rad", "SAD_RAD": "SAD_rad"}
    try:
        metrics = tuple(canonical[m] for m in metrics)
    except KeyError as exc:
        raise ParseError(f"unknown metric {exc.args[0]!r}", line=linenos["metric"]) from None
    if not metrics:
        raise ParseError("metric list is empty", line=linenos["metric"])

    corrupt_list = tuple(
        _parse_int(c.strip(), "corrupt_list", linenos["corrupt_list"])
        for c in raw["corrupt_list"].split(",")
        if c.strip()
    )
    seeds = tuple(
        _parse_int(s.strip(), "seeds", linenos["seeds"]) for s in raw["seeds"].split(",") if s.strip()
    )
    if not corrupt_list or not seeds:
        raise ParseError("corrupt_list and seeds must be non-empty")

    lambda_grid = DEFAULT_LAMBDA_GRID
    if "lambda_grid" in raw:
        lambda_grid = tuple(
            _parse_float(v.strip(), "lambda_grid", linenos["lambda_grid"])
            for v in raw["lambda_grid"].split(",")
            if v.strip()
        )
        if not lambda_grid:
            raise ParseError("lambda_grid is empty", line=linenos["lambda_grid"])

    b_range = (-3.0, 3.0)
    if "b_range" in raw:
        parts = [p.strip() for p in raw["b_range"].split(",")]
        if len(parts) != 2:
            raise ParseError("b_range must be 'lo,hi'", line=linenos["b_range"])
        b_range = (
            _parse_float(parts[0], "b_range", linenos["b_range"]),
            _parse_float(parts[1], "b_range", linenos["b_range"]),
        )

    return ExperimentConfig(
        model=model,
        R=_parse_int(raw["R"], "R", linenos["R"]),
        L=_parse_int(raw["L"], "L", linenos["L"]),
        T=_parse_int(raw["T"], "T", linenos["T"]),
        snr_db=_parse_float(raw["snr_db"], "snr_db", linenos["snr_db"]),
        corrupt_list=corrupt_list,
        algorithms=algorithms,
        seeds=seeds,
        metrics=metrics,
        lambda_grid=lambda_grid,
        K=_parse_int(raw["K"], "K", linenos["K"]) if "K" in raw else None,
        b_range=b_range,
        endmember_seed=_parse_int(raw["endmember_seed"], "endmember_seed", linenos["endmember_seed"])
        if "endmember_seed" in raw
        else 0,
        min_angle_deg=_parse_float(raw["min_angle_deg"], "min_angle_deg", linenos["min_angle_deg"])
        if "min_angle_deg" in raw
        else 10.0,
        max_outer_iters=_parse_int(raw["max_outer_iters"], "max_outer_iters", linenos["max_outer_iters"])
        if "max_outer_iters" in raw
        else 1000,
    )
