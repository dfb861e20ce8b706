import math

import numpy as np
import pytest

from unmix import (
    InvalidInput,
    SolverConfig,
    SyntheticSpec,
    UnmixError,
    baselines,
    experiment,
    cusal_sp,
    gen_cube,
    gen_endmembers,
    rmse,
    solve_sunsal_sparse,
    sre_db,
    validate_problem,
)
from unmix.cli import EXIT_INPUT, EXIT_OK, main
from unmix.experiment import (
    ExperimentRow,
    parse_experiment_config,
    rows_to_tsv,
    run_cell,
    run_experiment,
)
from unmix.fileio import ParseError


CFG = """\
model = lmm
R = 3
L = 30
T = 16
snr_db = 25
corrupt_list = 0,6
algorithms = ls,fcls
seeds = 1,2,3
metric = rmse,sre
"""


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(CFG)
    return parse_experiment_config(path)


class TestConfig:
    def test_every_optional_key_parses_into_its_field(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            CFG
            + "K = 2\nb_range = -2, 2.5\nendmember_seed = 4\nmin_angle_deg = 12.5\n"
            "max_outer_iters = 40\nlambda_grid = 1e-4, 1e-2\n"
        )
        config = parse_experiment_config(path)
        assert config.K == 2
        assert config.b_range == (-2.0, 2.5)
        assert config.endmember_seed == 4
        assert config.min_angle_deg == 12.5
        assert config.max_outer_iters == 40
        assert config.lambda_grid == (1e-4, 1e-2)

    def test_b_range_needs_two_values(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(CFG + "b_range = 1,2,3\n")
        with pytest.raises(ParseError) as err:
            parse_experiment_config(path)
        assert err.value.line == CFG.count("\n") + 1


    def test_line_numbers_count_a_form_feed_as_the_matrix_reader_does(self, tmp_path):
        # every text file is numbered as str.splitlines() splits it, so the
        # form feed ending the comment starts a line of its own
        text = "# grid of three\x0c\n" + CFG + "b_range = 1,2,3\n"
        path = tmp_path / "cfg.txt"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(ParseError) as err:
            parse_experiment_config(path)
        assert err.value.line == len(text.splitlines()) == CFG.count("\n") + 3


def _spec(**changes):
    """The SyntheticSpec of a CFG cell with `changes` applied."""
    return SyntheticSpec(**{"model": "lmm", "R": 3, "L": 30, "T": 16, "snr_db": 25.0, **changes})


class TestInvalidConfig:
    # Each case edits one value of CFG; `owner` builds the type that owns the
    # value with the same setting, which gives the message the CLI must print.
    @pytest.mark.parametrize(
        "old, new, owner",
        [
            (
                "algorithms = ls,fcls",
                "algorithms = ls\nmax_outer_iters = 0",
                lambda: SolverConfig(max_outer_iters=0),
            ),
            ("model = lmm", "model = gbm", lambda: _spec(model="gbm")),
            ("R = 3", "R = 0", lambda: _spec(R=0)),
            ("corrupt_list = 0,6", "corrupt_list = 0,60", lambda: _spec(n_corrupt=60)),
            (
                "metric = rmse,sre",
                "metric = rmse,sre\nlambda_grid = -1",
                lambda: SolverConfig(lam=-1.0),
            ),
            ("seeds = 1,2,3", "seeds = 1,-2", lambda: _spec(seed=-2)),
            ("snr_db = 25", "snr_db = -inf", lambda: _spec(snr_db=-math.inf)),
            ("R = 3", "R = 3\nendmember_seed = -1", lambda: gen_endmembers(3, 30, seed=-1)),
            (
                "R = 3",
                "R = 3\nmin_angle_deg = nan",
                lambda: gen_endmembers(3, 30, min_angle_deg=math.nan),
            ),
        ],
        ids=[
            "max_outer_iters", "model", "R", "corrupt_list", "lambda_grid", "seeds", "snr_db",
            "endmember_seed", "min_angle_deg",
        ],
    )
    def test_stops_before_any_cell_runs(self, old, new, owner, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(CFG.replace(old, new))
        calls = []

        def counting_run_cell(*args):
            calls.append(args)
            return run_cell(*args)

        monkeypatch.setattr(experiment, "run_cell", counting_run_cell)
        out = tmp_path / "rows.tsv"
        assert main(["experiment", str(cfg), "--out", str(out)]) == EXIT_INPUT
        assert not out.exists()
        assert calls == []
        with pytest.raises(InvalidInput) as expected:
            owner()
        assert str(expected.value) in capsys.readouterr().err


class TestGrid:
    def test_row_count_and_order(self, config):
        rows = run_experiment(config, max_workers=1)
        # algorithms x corrupt x seeds x metrics
        assert len(rows) == 2 * 2 * 3 * 2
        assert rows == sorted(rows, key=ExperimentRow.sort_key)
        per_alg_metric = 2 * 3
        ls_rmse = [r for r in rows if r.algorithm == "ls" and r.metric == "RMSE"]
        assert len(ls_rmse) == per_alg_metric

    def test_parallel_rows_identical(self, config):
        serial = rows_to_tsv(run_experiment(config, max_workers=1))
        parallel = rows_to_tsv(run_experiment(config, max_workers=4))
        assert serial == parallel

    def test_fcls_beats_ls_is_plausible(self, config):
        rows = run_experiment(config, max_workers=1)
        assert all(r.status == "ok" for r in rows)
        values = {
            (r.algorithm, r.n_corrupt, r.seed): r.value for r in rows if r.metric == "RMSE"
        }
        # the constrained solve should beat plain LS on noisy data
        wins = sum(
            values[("fcls", c, s)] <= values[("ls", c, s)] for c in (0, 6) for s in (1, 2, 3)
        )
        assert wins >= 4

    def test_failed_cell_gets_status_row(self, config, monkeypatch):
        def boom(*args, **kwargs):
            raise UnmixError("synthetic failure")

        monkeypatch.setattr(baselines, "solve_ls", boom)
        monkeypatch.setattr(baselines, "solve_fcls", boom)
        rows = run_experiment(config, max_workers=1)
        assert len(rows) == 24
        assert all(r.status == "error:UnmixError" and r.value is None for r in rows)
        text = rows_to_tsv(rows)
        assert "error:UnmixError" in text


class TestSparseGrid:
    def test_cells_report_best_value_over_lambda_grid(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            CFG.replace("algorithms = ls,fcls", "algorithms = sunsal-sparse,cusal-sp")
            .replace("seeds = 1,2,3", "seeds = 1")
            + "lambda_grid = 1e-4,1e-2\nmax_outer_iters = 100\n"
        )
        config = parse_experiment_config(path)
        rows = run_experiment(config, max_workers=1)
        assert len(rows) == 2 * 2 * 1 * 2
        assert all(r.status == "ok" for r in rows)
        M = gen_endmembers(3, 30, seed=0)
        for n_corrupt in (0, 6):
            spec = SyntheticSpec(
                model="lmm", R=3, L=30, T=16, snr_db=25.0, n_corrupt=n_corrupt, seed=1
            )
            Y, truth = gen_cube(M, spec)
            h = validate_problem(Y, M)
            direct = {
                "sunsal-sparse": [solve_sunsal_sparse(h, lam) for lam in (1e-4, 1e-2)],
                "cusal-sp": [
                    cusal_sp(h, SolverConfig(sigma_auto=True, lam=lam, max_outer_iters=100))[0]
                    for lam in (1e-4, 1e-2)
                ],
            }
            for algorithm, candidates in direct.items():
                value = {
                    r.metric: r.value
                    for r in rows
                    if r.algorithm == algorithm and r.n_corrupt == n_corrupt
                }
                assert value["RMSE"] == min(rmse(truth.X_true, X) for X in candidates)
                assert value["SRE_dB"] == max(sre_db(truth.X_true, X) for X in candidates)


class TestCliExperiment:
    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(CFG)
        out1, out2, out3 = (tmp_path / f"t{i}.tsv" for i in range(3))
        monkeypatch.setenv("UNMIX_THREADS", "1")
        assert main(["experiment", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert main(["experiment", str(cfg), "--out", str(out2)]) == EXIT_OK
        monkeypatch.setenv("UNMIX_THREADS", "3")
        assert main(["experiment", str(cfg), "--out", str(out3)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes() == out3.read_bytes()

    @pytest.mark.parametrize("threads", ["abc", "0"])
    def test_bad_thread_count_is_input_error(self, threads, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(CFG)
        out = tmp_path / "rows.tsv"
        monkeypatch.setenv("UNMIX_THREADS", threads)
        assert main(["experiment", str(cfg), "--out", str(out)]) == EXIT_INPUT
        assert "UNMIX_THREADS" in capsys.readouterr().err
        assert not out.exists()

    def test_header_and_value_format(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(CFG.replace("seeds = 1,2,3", "seeds = 1"))
        assert main(["experiment", str(cfg)]) == EXIT_OK
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "algorithm\tmodel\tsnr\tn_corrupt\tK\tseed\tmetric\tvalue\tstatus"
        assert len(lines) == 1 + 2 * 2 * 1 * 2
        row = lines[1].split("\t")
        assert row[0] == "fcls" and row[-1] == "ok"
        float(row[7])
