import math

import numpy as np
import pytest

from unmix import (
    SolverConfig,
    cusal_fc,
    cusal_sp,
    linear_mix,
    rmse,
    solve_fcls,
    solve_ls,
    solve_sunsal_sparse,
    validate_problem,
)
from unmix.cli import EXIT_INPUT, EXIT_OK, main
from unmix.fileio import read_matrix, read_truth_meta, write_matrix
from unmix.solvers import ALGORITHMS

# The library call behind each CLI subcommand, run with `--lambda 1e-3` where
# the algorithm takes lambda and `--sigma-auto` where it is a correntropy one.
LIBRARY_CALLS = {
    "ls": solve_ls,
    "fcls": solve_fcls,
    "sunsal-sparse": lambda h: solve_sunsal_sparse(h, 1e-3),
    "cusal-fc": lambda h: cusal_fc(h, SolverConfig(sigma_auto=True))[0],
    "cusal-sp": lambda h: cusal_sp(h, SolverConfig(sigma_auto=True, lam=1e-3))[0],
}


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture
def small_cube(tmp_path):
    out = tmp_path / "cube"
    code = run_cli(
        "generate", "--model", "lmm", "--R", 3, "--L", 30, "--T", 12,
        "--snr", "inf", "--corrupt", 0, "--seed", 5, "--out-dir", out,
    )
    assert code == EXIT_OK
    return out


class TestGenerate:
    def test_writes_four_files_with_shapes(self, tmp_path):
        out = tmp_path / "g"
        code = run_cli(
            "generate", "--model", "lmm", "--R", 3, "--L", 50, "--T", 40,
            "--snr", 35, "--corrupt", 8, "--seed", 7, "--out-dir", out,
        )
        assert code == EXIT_OK
        Y = read_matrix(out / "Y.txt")
        M = read_matrix(out / "M.txt")
        X = read_matrix(out / "X_true.txt")
        assert Y.shape == (50, 40) and M.shape == (50, 3) and X.shape == (3, 40)
        meta = read_truth_meta(out / "truth_meta.txt")
        assert len(meta["corrupted_bands"].split(",")) == 8

    def test_ppnmm_records_b_in_range(self, tmp_path):
        out = tmp_path / "p"
        code = run_cli(
            "generate", "--model", "ppnmm", "--R", 2, "--L", 20, "--T", 25,
            "--snr", "inf", "--b-range", "-3,3", "--seed", 3, "--out-dir", out,
        )
        assert code == EXIT_OK
        b = [float(v) for v in read_truth_meta(out / "truth_meta.txt")["b"].split(",")]
        assert len(b) == 25 and all(-3 < v < 3 for v in b)

    def test_noiseless_uncorrupted_is_exact_mixing(self, small_cube):
        Y = read_matrix(small_cube / "Y.txt")
        M = read_matrix(small_cube / "M.txt")
        X = read_matrix(small_cube / "X_true.txt")
        np.testing.assert_array_equal(Y, M @ X)

    def test_minus_inf_snr_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "cube"
        code = run_cli(
            "generate", "--R", 3, "--L", 20, "--T", 5, "--snr=-inf", "--out-dir", out,
        )
        assert code == EXIT_INPUT
        assert "snr_db" in capsys.readouterr().err
        assert not out.exists()

    def test_b_range_needs_two_values(self, tmp_path, capsys):
        # the same converter as the experiment config's b_range key
        out = tmp_path / "cube"
        code = run_cli(
            "generate", "--R", 3, "--L", 20, "--T", 5, "--b-range", "1,2,3", "--out-dir", out,
        )
        assert code == EXIT_INPUT
        assert "expected 'lo,hi'" in capsys.readouterr().err
        assert not out.exists()


class TestUnmixCommands:
    def test_ls_on_identity_endmembers_reproduces_y(self, tmp_path):
        rng = np.random.default_rng(0)
        Y = rng.uniform(size=(4, 6))
        write_matrix(tmp_path / "Y.txt", Y)
        write_matrix(tmp_path / "M.txt", np.eye(4))
        code = run_cli("ls", tmp_path / "Y.txt", tmp_path / "M.txt", "--out", tmp_path / "X.txt")
        assert code == EXIT_OK
        assert (tmp_path / "X.txt").read_text() == (tmp_path / "Y.txt").read_text()

    @pytest.mark.parametrize("name", list(ALGORITHMS))
    def test_cli_is_thin_shell_over_library(self, name, small_cube, tmp_path):
        algorithm = ALGORITHMS[name]
        flags = (["--lambda", "1e-3"] if algorithm.takes_lambda else []) + (
            ["--sigma-auto"] if algorithm.correntropy else []
        )
        code = run_cli(
            name, small_cube / "Y.txt", small_cube / "M.txt", *flags,
            "--out", tmp_path / "X_cli.txt",
        )
        assert code == EXIT_OK
        handle = validate_problem(
            read_matrix(small_cube / "Y.txt"), read_matrix(small_cube / "M.txt")
        )
        write_matrix(tmp_path / "X_lib.txt", LIBRARY_CALLS[name](handle))
        assert (tmp_path / "X_cli.txt").read_text() == (tmp_path / "X_lib.txt").read_text()

    def test_cusal_fc_auto_sigma_report(self, small_cube, tmp_path):
        code = run_cli(
            "cusal-fc", small_cube / "Y.txt", small_cube / "M.txt",
            "--sigma-auto", "--out", tmp_path / "X.txt",
            "--report-path", tmp_path / "report.tsv",
        )
        assert code == EXIT_OK
        X = read_matrix(tmp_path / "X.txt")
        np.testing.assert_allclose(X.sum(axis=0), 1.0, atol=1e-9)
        assert rmse(read_matrix(small_cube / "X_true.txt"), X) < 1e-3
        report = (tmp_path / "report.tsv").read_text()
        assert "# sigma_used " in report
        ratio = float(
            next(l for l in report.splitlines() if l.startswith("# reconstruction_ratio")).split()[-1]
        )
        assert ratio < 2.0

    def test_cusal_sp_output_nonnegative(self, small_cube, tmp_path):
        code = run_cli(
            "cusal-sp", small_cube / "Y.txt", small_cube / "M.txt",
            "--lambda", "1e-3", "--sigma-auto", "--out", tmp_path / "X.txt",
        )
        assert code == EXIT_OK
        assert read_matrix(tmp_path / "X.txt").min() >= 0.0

    def test_capped_solve_warns_on_stderr(self, tmp_path, capsys):
        cube = tmp_path / "cube"
        run_cli(
            "generate", "--R", 3, "--L", 40, "--T", 30, "--snr", 30, "--corrupt", 5,
            "--seed", 1, "--out-dir", cube,
        )
        capsys.readouterr()
        code = run_cli(
            "cusal-fc", cube / "Y.txt", cube / "M.txt", "--sigma-auto", "--max-iters", 2,
            "--out", tmp_path / "X.txt", "--report-path", tmp_path / "r.tsv",
        )
        assert code == EXIT_OK
        assert "# termination_reason max_iters" in (tmp_path / "r.tsv").read_text()
        err = capsys.readouterr().err
        assert "iteration cap (--max-iters 2) after 2 outer iterations" in err

    def test_sigma_with_sigma_auto_is_input_error(self, small_cube, tmp_path, capsys):
        code = run_cli(
            "cusal-fc", small_cube / "Y.txt", small_cube / "M.txt", "--sigma", 0.05,
            "--sigma-auto", "--out", tmp_path / "X.txt",
        )
        assert code == EXIT_INPUT
        assert "sigma and sigma_auto" in capsys.readouterr().err
        assert not (tmp_path / "X.txt").exists()

    def test_missing_file_is_input_error(self, tmp_path):
        code = run_cli("ls", tmp_path / "nope.txt", tmp_path / "nope2.txt")
        assert code == EXIT_INPUT

    def test_dimension_mismatch_is_input_error(self, tmp_path):
        rng = np.random.default_rng(0)
        write_matrix(tmp_path / "Y.txt", rng.uniform(size=(4, 6)))
        write_matrix(tmp_path / "M.txt", rng.uniform(size=(5, 2)))
        code = run_cli("ls", tmp_path / "Y.txt", tmp_path / "M.txt", "--out", tmp_path / "X.txt")
        assert code == EXIT_INPUT


class TestEval:
    def test_rmse_identical_files(self, small_cube, capsys):
        code = run_cli("eval", "rmse", small_cube / "X_true.txt", small_cube / "X_true.txt")
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "RMSE\t0"

    def test_sre_identical_is_inf(self, small_cube, capsys):
        code = run_cli("eval", "sre", small_cube / "X_true.txt", small_cube / "X_true.txt")
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "SRE_dB\tinf"

    def test_sad_with_exclusions_and_reconstruction(self, small_cube, tmp_path, capsys):
        run_cli(
            "ls", small_cube / "Y.txt", small_cube / "M.txt", "--out", tmp_path / "X.txt"
        )
        capsys.readouterr()
        code = run_cli(
            "eval", "sad", small_cube / "Y.txt", tmp_path / "X.txt",
            "--reconstruct-with", small_cube / "M.txt", "--exclude", "1-3,10-12",
        )
        assert code == EXIT_OK
        name, value = capsys.readouterr().out.split()
        assert name == "SAD_rad"
        assert float(value) == pytest.approx(0.0, abs=1e-6)

    def test_append_accumulates_rows(self, small_cube, tmp_path, capsys):
        table = tmp_path / "table.tsv"
        for seed in (1, 2):
            code = run_cli(
                "eval", "rmse", small_cube / "X_true.txt", small_cube / "X_true.txt",
                "--append", table, "--algorithm", "ls", "--n-corrupt", 0, "--seed", seed,
            )
            assert code == EXIT_OK
        lines = table.read_text().splitlines()
        assert lines[0] == "algorithm\tn_corrupt\tseed\tvalue"
        assert len(lines) == 3
        assert lines[1].split("\t") == ["ls", "0", "1", "0"]

    @pytest.mark.parametrize("metric", ["rmse", "sre"])
    @pytest.mark.parametrize("flag", [["--exclude", "1-3"], ["--degrees"]], ids=lambda f: f[0])
    def test_sad_only_flags_are_input_errors(self, metric, flag, small_cube, tmp_path, capsys):
        table = tmp_path / "table.tsv"
        code = run_cli(
            "eval", metric, small_cube / "X_true.txt", small_cube / "X_true.txt", *flag,
            "--append", table,
        )
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag[0] in captured.err
        assert not table.exists()

    @pytest.mark.parametrize("flag", ["--algorithm", "--n-corrupt", "--seed"])
    def test_row_labels_need_append(self, flag, small_cube, capsys):
        code = run_cli("eval", "rmse", small_cube / "X_true.txt", small_cube / "X_true.txt", flag, 3)
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err and "--append" in captured.err

    def test_metric_domain_error_exit_code(self, tmp_path, capsys):
        write_matrix(tmp_path / "z.txt", np.zeros((2, 2)))
        code = run_cli("eval", "sre", tmp_path / "z.txt", tmp_path / "z.txt")
        assert code == EXIT_INPUT


class TestSadPipelineOnSyntheticNoisyBands(object):
    def test_exclusion_recovers_clean_angle(self, tmp_path, capsys):
        # reconstruct with LS on a corrupted cube: excluding the corrupted
        # bands must give a much smaller angle than keeping them
        out = tmp_path / "cube"
        run_cli(
            "generate", "--model", "lmm", "--R", 3, "--L", 60, "--T", 50,
            "--snr", 45, "--corrupt", 12, "--seed", 11, "--out-dir", out,
        )
        run_cli("fcls", out / "Y.txt", out / "M.txt", "--out", tmp_path / "X.txt")
        capsys.readouterr()
        meta = read_truth_meta(out / "truth_meta.txt")
        bands_1based = ",".join(str(int(b) + 1) for b in meta["corrupted_bands"].split(","))
        code = run_cli(
            "eval", "sad", out / "Y.txt", tmp_path / "X.txt",
            "--reconstruct-with", out / "M.txt", "--exclude", bands_1based,
        )
        assert code == EXIT_OK
        sad_clean = float(capsys.readouterr().out.split()[1])
        code = run_cli(
            "eval", "sad", out / "Y.txt", tmp_path / "X.txt",
            "--reconstruct-with", out / "M.txt",
        )
        assert code == EXIT_OK
        sad_all = float(capsys.readouterr().out.split()[1])
        assert sad_clean < 0.5 * sad_all
        assert sad_clean < 0.1
