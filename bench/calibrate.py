"""A fixed piece of reference work that measures how fast the host runs now.

The benchmark's timings are divided by the time of this work, measured in the
same process right before and right after each timed repetition, and scaled
back to seconds with `REFERENCE_S`. On a machine whose cores are shared with
other tenants the same pipeline took anywhere from 3.5 to 6 s from one minute
to the next (a factor of up to 1.9 in short bursts); the reference work slows
down with it, while a change to `unmix` moves only the pipeline's time, since
nothing here calls into the library.

The work mixes the three kinds the workloads do: many small numpy calls (the
solvers' inner loops), text formatting and parsing of floats (the matrix
files), and passes over a 1.6 MB array (whole-array numpy work). Its inputs
are fixed; the workload seed does not reach it.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds one `measure()` typically took on the 2-vCPU VM the benchmark was
# written on (Python 3.11, numpy 2.4, single-threaded OpenBLAS) while the host
# was quiet, so that rescaled times read close to that machine's wall times.
REFERENCE_S = 0.4

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((120, 3))
_Y = _rng.standard_normal((120, 200))
_FLOATS = _rng.random(20000).tolist()
_BIG = _rng.random(200_000)


def _small_numpy(n: int) -> float:
    total = 0.0
    for _ in range(n):
        x = np.linalg.lstsq(_A, _Y, rcond=None)[0]
        total += float(np.exp(-((_Y - _A @ x) ** 2)).sum())
    return total


def _float_text(n: int) -> float:
    total = 0.0
    for _ in range(n):
        text = " ".join(repr(v) for v in _FLOATS)
        total += sum(float(t) for t in text.split())
    return total


def _big_array(n: int) -> float:
    scratch = np.empty_like(_BIG)  # in place, so the work adds little to peak RSS
    total = 0.0
    for _ in range(n):
        np.multiply(_BIG, 1.5, out=scratch)
        np.add(scratch, 2.0, out=scratch)
        total += float(np.sqrt(scratch, out=scratch).sum())
    return total


def measure() -> float:
    """Seconds the reference work takes now (a first, tiny pass warms it up)."""
    _small_numpy(1), _float_text(0), _big_array(1)
    start = time.perf_counter()
    _small_numpy(300)
    _float_text(3)
    _big_array(200)
    return time.perf_counter() - start
