"""The traced benchmark run (`bench/run.py --trace 1`) wraps library functions
by module attribute: the four correntropy functions in `unmix.solvers`,
`inner_gradient_descent`, `admm_generic` and others. This test runs both
correntropy solvers under the benchmark's recorder, so renaming one of those
functions or no longer calling it through its module attribute shows up here
as a failure or a zero count.
"""

import importlib
from pathlib import Path

import pytest

from unmix import SolverConfig, SyntheticSpec, gen_cube, gen_endmembers, validate_problem
from unmix.solvers import ALGORITHMS

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    return importlib.import_module("layers")


def test_recorder_sees_every_correntropy_layer(layers):
    M = gen_endmembers(3, 30, seed=0)
    spec = SyntheticSpec(model="lmm", R=3, L=30, T=10, snr_db=30.0, n_corrupt=3, seed=1)
    Y, _ = gen_cube(M, spec)
    handle = validate_problem(Y, M)
    config = SolverConfig(sigma_auto=True, max_outer_iters=3)
    recorder = layers.Recorder()
    with recorder.installed():
        ALGORITHMS["cusal-fc"].solve(handle, config)
        ALGORITHMS["cusal-sp"].solve(handle, config)
    values = {name: value for name, (value, _) in recorder.layer_metrics(workers=1).items()}
    assert values["solvers.x_updates"] == values["solvers.outer_iters"] > 0
    assert values["solvers.gradient_evals"] == values["correntropy.gradient_calls"] > 0
    spans = recorder.by_name()
    for name in (
        "correntropy.objective_reduced_f1",
        "correntropy.gradient_reduced_f1",
        "correntropy.objective_C",
        "correntropy.gradient_full",
    ):
        assert spans.get(name, {}).get("calls", 0) > 0, name
