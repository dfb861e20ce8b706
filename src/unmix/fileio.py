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
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim != 2:
        raise ShapeMismatch("only 2-D matrices can be written")
    rows, cols = arr.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{MAGIC} {rows} {cols}\n")
        np.savetxt(fh, arr, fmt="%.17g")


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        entries = _content_lines(fh)
        first = next(entries, None)
        if first is None:
            raise BadMagic(f"{path}: empty file")
        parts = first[1].split()
        if len(parts) != 4 or " ".join(parts[:2]) != MAGIC:
            raise BadMagic(f"{path}: expected header '{MAGIC} <rows> <cols>'")
        try:
            rows, cols = int(parts[2]), int(parts[3])
        except ValueError:
            raise BadMagic(f"{path}: non-integer shape in header") from None
        if rows < 1 or cols < 1:
            raise BadMagic(f"{path}: shape must be positive, got {rows} x {cols}")
        # numpy converts each token with float(); a line it rejects, or one
        # with a non-finite value, is walked token by token to name the culprit
        body = [np.empty(0)]
        for lineno, stripped in entries:
            tokens = stripped.split()
            try:
                row = np.array(tokens, dtype=float)
            except ValueError:
                row = None
            if row is None or not np.isfinite(row).all():
                row = np.array([_parse_value(tok, lineno) for tok in tokens])
            body.append(row)
    values = np.concatenate(body)
    if values.size != rows * cols:
        raise ShapeMismatch(
            f"{path}: header promises {rows * cols} values, found {values.size}"
        )
    return values.reshape(rows, cols)


def _content_lines(fh):
    """(line number, stripped text) of the file's lines that are neither blank
    nor `#` comments, read one line at a time; every text file the package
    reads goes through it. Lines are numbered as
    str.splitlines() splits the text, so form feeds and the other Unicode line
    boundaries start a new line, as the newline characters do."""
    lineno = 0
    for physical in fh:
        for line in physical.splitlines():
            lineno += 1
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                yield lineno, stripped


def _parse_value(tok: str, lineno: int) -> float:
    try:
        v = float(tok)
    except ValueError:
        raise ParseError(f"bad value {tok!r}", line=lineno) from None
    if not math.isfinite(v):
        raise ParseError(f"non-finite value {tok!r}", line=lineno)
    return v


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
        for _, stripped in _content_lines(fh):
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
