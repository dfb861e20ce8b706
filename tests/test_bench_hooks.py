"""The traced benchmark run (`bench/run.py --trace 1`) wraps library functions
by module attribute: the four correntropy functions in `unmix.solvers`,
`inner_gradient_descent`, `admm_generic` and others. These tests run the
correntropy solvers and a small CLI pipeline under the benchmark's recorder,
so renaming one of those functions or no longer calling it through its module
attribute shows up here as a failure or a zero count.
"""

import importlib
from pathlib import Path

import pytest

from unmix import SolverConfig, SyntheticSpec, gen_cube, gen_endmembers, validate_problem
from unmix.cli import EXIT_OK, main
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


def test_recorder_sees_every_layer_of_a_cli_pipeline(layers, tmp_path):
    cube = tmp_path / "cube"
    cfg = tmp_path / "grid.txt"
    cfg.write_text(
        "model = lmm\nR = 3\nL = 30\nT = 10\nsnr_db = 30\ncorrupt_list = 3\n"
        "algorithms = ls,fcls,sunsal-sparse,cusal-fc,cusal-sp\nseeds = 1\n"
        "lambda_grid = 1e-3\nmetric = rmse,sad\nmax_outer_iters = 3\n"
    )
    commands = [
        ["generate", "--R", 3, "--L", 30, "--T", 10, "--corrupt", 3, "--out-dir", cube],
        [
            "cusal-fc", cube / "Y.txt", cube / "M.txt", "--sigma-auto", "--max-iters", 3,
            "--out", tmp_path / "X.txt", "--report-path", tmp_path / "report.tsv",
        ],
        ["eval", "sre", cube / "X_true.txt", tmp_path / "X.txt"],
        ["experiment", cfg, "--out", tmp_path / "grid.tsv"],
    ]
    recorder = layers.Recorder()
    with recorder.installed():
        for argv in commands:
            assert main([str(a) for a in argv]) == EXIT_OK, argv
    spans = recorder.by_name()
    missing = sorted(
        {name for _, _, name in layers.LAYER_FUNCTIONS if spans.get(name, {}).get("calls", 0) == 0}
    )
    assert not missing
