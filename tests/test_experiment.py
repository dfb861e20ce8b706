import math
from dataclasses import replace

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
    synth,
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

from conftest import count_factorizations


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
            ("snr_db = 25", "snr_db = 4000", lambda: _spec(snr_db=4000.0)),
            ("snr_db = 25", "snr_db = -4000", lambda: _spec(snr_db=-4000.0)),
            ("R = 3", "R = 3\nendmember_seed = -1", lambda: gen_endmembers(3, 30, seed=-1)),
            (
                "R = 3",
                "R = 3\nmin_angle_deg = nan",
                lambda: gen_endmembers(3, 30, min_angle_deg=math.nan),
            ),
        ],
        ids=[
            "max_outer_iters", "model", "R", "corrupt_list", "lambda_grid", "seeds", "snr_db",
            "snr_db-overflow", "snr_db-underflow", "endmember_seed", "min_angle_deg",
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


class TestRepeatedEntries:
    # rows are keyed by (algorithm, model, snr, n_corrupt, K, seed, metric),
    # so a value listed twice would solve its cells twice and repeat the key
    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("algorithms = ls,fcls", "algorithms = ls,fcls,ls", "algorithms lists 'ls'"),
            ("corrupt_list = 0,6", "corrupt_list = 0,6,0", "corrupt_list lists 0"),
            ("seeds = 1,2,3", "seeds = 1,1", "seeds lists 1"),
            ("metric = rmse,sre", "metric = rmse,sre,RMSE", "metric lists 'RMSE'"),
        ],
        ids=["algorithms", "corrupt_list", "seeds", "metric"],
    )
    def test_stop_the_cli_before_any_cell_runs(
        self, old, new, message, tmp_path, monkeypatch, capsys
    ):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(CFG.replace(old, new))
        calls = []
        monkeypatch.setattr(experiment, "run_cell", lambda *args: calls.append(args))
        out = tmp_path / "rows.tsv"
        assert main(["experiment", str(cfg), "--out", str(out)]) == EXIT_INPUT
        assert not out.exists()
        assert calls == []
        assert f"{message} more than once" in capsys.readouterr().err

    def test_stop_a_hand_built_config_with_metric_names_resolved(self, config, monkeypatch):
        calls = []
        monkeypatch.setattr(experiment, "run_cell", lambda *args: calls.append(args))
        with pytest.raises(InvalidInput, match="metric lists 'SRE_dB' more than once"):
            run_experiment(replace(config, metrics=("SRE_dB", "sre")), max_workers=1)
        assert calls == []

    def test_a_repeated_lambda_is_still_allowed(self, config):
        rows = run_experiment(
            replace(config, algorithms=("sunsal-sparse",), lambda_grid=(1e-3, 1e-3)),
            max_workers=1,
        )
        assert len(rows) == 2 * 3 * 2 and all(r.status == "ok" for r in rows)


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

    def test_unknown_algorithm_in_a_hand_built_config_stops_before_any_cell(
        self, config, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(experiment, "run_cell", lambda *args: calls.append(args))
        with pytest.raises(InvalidInput, match="unknown algorithm 'nope'"):
            run_experiment(replace(config, algorithms=("ls", "nope")), max_workers=1)
        assert calls == []

    def test_a_hand_built_config_runs_the_resolved_metric_labels(self, config):
        grid = replace(config, algorithms=("ls",), corrupt_list=(6,), seeds=(1,))
        rows = run_experiment(replace(grid, metrics=("rmse", "sad", "sre")), max_workers=1)
        labelled = run_experiment(
            replace(grid, metrics=("RMSE", "SAD_rad", "SRE_dB")), max_workers=1
        )
        assert [(r.metric, r.status) for r in rows] == [
            ("RMSE", "ok"), ("SAD_rad", "ok"), ("SRE_dB", "ok")
        ]
        assert rows == labelled

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

    def test_a_failed_solve_fails_only_its_algorithms_rows(self, config, monkeypatch):
        clean = run_experiment(config, max_workers=1)

        def boom(*args, **kwargs):
            raise UnmixError("synthetic failure")

        # fcls runs first on each shared cube, so ls solves after a failure
        monkeypatch.setattr(baselines, "solve_fcls", boom)
        rows = run_experiment(replace(config, algorithms=("fcls", "ls")), max_workers=1)
        assert {r.status for r in rows if r.algorithm == "fcls"} == {"error:UnmixError"}
        assert all(r.value is None for r in rows if r.algorithm == "fcls")
        assert [r for r in rows if r.algorithm == "ls"] == [
            r for r in clean if r.algorithm == "ls"
        ]

    @pytest.mark.parametrize(
        "module, name, error",
        [(synth, "gen_cube", UnmixError), (experiment, "validate_problem", InvalidInput)],
        ids=["generation", "validation"],
    )
    def test_a_cube_that_cannot_be_made_fails_every_algorithms_rows(
        self, module, name, error, config, monkeypatch
    ):
        def boom(*args, **kwargs):
            raise error("synthetic failure")

        monkeypatch.setattr(module, name, boom)
        rows = run_experiment(config, max_workers=1)
        assert len(rows) == 2 * 2 * 3 * 2
        assert {r.algorithm for r in rows} == {"ls", "fcls"}
        assert all(r.status == f"error:{error.__name__}" and r.value is None for r in rows)


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

    def test_a_cell_fits_least_squares_once_for_its_whole_lambda_grid(self, monkeypatch):
        # a cell is one cube recipe: its cube is generated, validated and
        # fitted once, and every algorithm (every lambda too) solves it
        config = experiment.ExperimentConfig(
            model="lmm", R=3, L=30, T=16, snr_db=25.0, corrupt_list=(0, 6),
            algorithms=("ls", "fcls", "sunsal-sparse", "cusal-fc"), seeds=(1,),
            metrics=("RMSE",), lambda_grid=(1e-4, 1e-3, 1e-2), max_outer_iters=20,
        )
        calls = {"gen_cube": 0, "validate_problem": 0, "solve_ls": 0}
        for module, name in (
            (synth, "gen_cube"), (experiment, "validate_problem"), (baselines, "solve_ls")
        ):
            real = getattr(module, name)

            def counted(*args, real=real, name=name, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        rows = run_experiment(config, max_workers=1)
        assert [r.status for r in rows] == ["ok"] * 4 * 2
        assert calls == {"gen_cube": 2, "validate_problem": 2, "solve_ls": 2}

    def test_a_cell_factors_m_once(self, monkeypatch):
        # every algorithm and lambda of a cell reads its handle's one SVD
        config = experiment.ExperimentConfig(
            model="lmm", R=3, L=30, T=16, snr_db=25.0, corrupt_list=(0, 6),
            algorithms=("ls", "fcls", "sunsal-sparse", "cusal-fc", "cusal-sp"), seeds=(1,),
            metrics=("RMSE",), lambda_grid=(1e-4, 1e-3, 1e-2), max_outer_iters=20,
        )
        calls = count_factorizations(monkeypatch)
        rows = run_experiment(config, max_workers=1)
        assert [r.status for r in rows] == ["ok"] * 5 * 2
        assert calls == {"svd": 2, "qr": 0, "cond": 0}


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

    def test_missing_out_directory_stops_before_any_cell_runs(
        self, tmp_path, monkeypatch, capsys
    ):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(CFG)
        calls = []
        monkeypatch.setattr(experiment, "run_cell", lambda *args: calls.append(args))
        out = tmp_path / "nodir" / "rows.tsv"
        assert main(["experiment", str(cfg), "--out", str(out)]) == EXIT_INPUT
        assert calls == []
        assert not out.parent.exists()
        assert "does not exist" in capsys.readouterr().err

    def test_out_that_is_a_directory_stops_before_any_cell_runs(
        self, tmp_path, monkeypatch, capsys
    ):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(CFG)
        calls = []
        monkeypatch.setattr(experiment, "run_cell", lambda *args: calls.append(args) or [])
        assert main(["experiment", str(cfg), "--out", str(tmp_path)]) == EXIT_INPUT
        assert calls == []
        assert "is a directory" in capsys.readouterr().err

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
