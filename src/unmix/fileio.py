"""Text file formats: the matrix container and the ground-truth sidecar.

Matrix container: first line `UNMIX-MATRIX v1 <rows> <cols>`, then one row per
line with space-separated decimal or scientific values; blank lines and lines
whose first non-blank character is `#` are ignored anywhere in the file.
Values are written with 17 significant digits so a write/read round trip is
exact for float64.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .core import UnmixError

MAGIC = "UNMIX-MATRIX v1"


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
        np.savetxt(fh, arr, fmt="%.17g")


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    # (line number, stripped text) of the lines that are neither blank nor `#` comments
    entries = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            entries.append((lineno, stripped))
    if not entries:
        raise BadMagic(f"{path}: empty file")
    parts = entries[0][1].split()
    if len(parts) != 4 or " ".join(parts[:2]) != MAGIC:
        raise BadMagic(f"{path}: expected header '{MAGIC} <rows> <cols>'")
    try:
        rows, cols = int(parts[2]), int(parts[3])
    except ValueError:
        raise BadMagic(f"{path}: non-integer shape in header") from None
    if rows < 1 or cols < 1:
        raise BadMagic(f"{path}: shape must be positive, got {rows} x {cols}")
    values: list[float] = []
    for lineno, stripped in entries[1:]:
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


def parse_interval(text: str) -> tuple:
    """'lo,hi' into a pair of floats; ValueError on any other shape."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("expected 'lo,hi'")
    return float(parts[0]), float(parts[1])


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
