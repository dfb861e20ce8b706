import math
import os
import subprocess
import sys
from pathlib import Path

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
    tune_sigma,
    validate_problem,
)
import unmix
from unmix import baselines, fileio, solvers
from unmix.cli import EXIT_INPUT, EXIT_OK, main
from unmix.fileio import format_float, read_matrix, read_truth_meta, write_matrix
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

    @pytest.mark.parametrize("name, algorithm", [("cusal-fc", "fc"), ("cusal-sp", "sp")])
    def test_tuned_report_lists_the_attempts_and_refits_nothing(
        self, name, algorithm, tmp_path, monkeypatch
    ):
        cube = tmp_path / "cube"
        run_cli(
            "generate", "--model", "ppnmm", "--R", 3, "--L", 30, "--T", 10, "--snr", 40,
            "--corrupt", 28, "--seed", 2, "--out-dir", cube,
        )
        ratio_calls = []
        real_ratio = solvers.reconstruction_ratio

        def counted_ratio(*args, **kwargs):
            ratio_calls.append(1)
            return real_ratio(*args, **kwargs)

        monkeypatch.setattr(solvers, "reconstruction_ratio", counted_ratio)
        code = run_cli(
            name, cube / "Y.txt", cube / "M.txt", "--sigma-auto",
            *(["--lambda", "1e-3"] if algorithm == "sp" else []),
            "--out", tmp_path / "X.txt", "--report-path", tmp_path / "report.tsv",
        )
        assert code == EXIT_OK
        cli_ratio_calls = len(ratio_calls)
        h = validate_problem(read_matrix(cube / "Y.txt"), read_matrix(cube / "M.txt"))
        _, trace = tune_sigma(h, algorithm, SolverConfig(sigma_auto=True, lam=1e-3))
        # the tuner checks every attempt that did not diverge; the report
        # reads the accepted attempt's ratio from the trace
        assert cli_ratio_calls == sum(a.ratio is not None for a in trace.attempts)
        lines = (tmp_path / "report.tsv").read_text().splitlines()
        header = [line for line in lines if line.startswith("# ")]
        keys = [line.split()[1] for line in header]
        existing = ["termination_reason", "iterations_run", "sigma_used", "reconstruction_ratio"]
        assert keys == existing + ["tuner_attempt"] * len(trace.attempts)
        assert header[3] == f"# reconstruction_ratio {format_float(trace.attempts[-1].ratio)}"
        assert header[4:] == [
            f"# tuner_attempt {format_float(a.sigma)} {a.outcome.value} "
            f"{'nan' if a.ratio is None else format_float(a.ratio)}"
            for a in trace.attempts
        ]
        assert lines[len(header)] == "iteration\tprimal_residual\tdual_residual\tobjective"
        if algorithm == "sp":
            # this cube makes the sparse tuner move on after a divergence
            assert [a.outcome.value for a in trace.attempts] == ["diverged", "converged"]

    def test_fixed_bandwidth_report_fits_least_squares_once(self, small_cube, tmp_path, monkeypatch):
        ls_calls = []
        real_ls = baselines.solve_ls

        def counted_ls(*args, **kwargs):
            ls_calls.append(1)
            return real_ls(*args, **kwargs)

        monkeypatch.setattr(baselines, "solve_ls", counted_ls)
        code = run_cli(
            "cusal-fc", small_cube / "Y.txt", small_cube / "M.txt", "--sigma", "0.1",
            "--out", tmp_path / "X.txt", "--report-path", tmp_path / "report.tsv",
        )
        assert code == EXIT_OK
        # the warm start's fit also gives the report's reconstruction ratio
        assert len(ls_calls) == 1
        monkeypatch.setattr(baselines, "solve_ls", real_ls)
        h = validate_problem(read_matrix(small_cube / "Y.txt"), read_matrix(small_cube / "M.txt"))
        expected = solvers.reconstruction_ratio(h, read_matrix(tmp_path / "X.txt"))
        lines = (tmp_path / "report.tsv").read_text().splitlines()
        assert f"# reconstruction_ratio {format_float(expected)}" in lines

    @pytest.mark.parametrize("sigma", [["--sigma", "0.1"], ["--sigma-auto"]], ids=["fixed", "tuned"])
    def test_cusal_sp_solve_and_report_fit_least_squares_once(
        self, small_cube, tmp_path, monkeypatch, sigma
    ):
        ls_calls = []
        real_ls = baselines.solve_ls

        def counted_ls(*args, **kwargs):
            ls_calls.append(1)
            return real_ls(*args, **kwargs)

        monkeypatch.setattr(baselines, "solve_ls", counted_ls)
        code = run_cli(
            "cusal-sp", small_cube / "Y.txt", small_cube / "M.txt", "--lambda", "1e-3", *sigma,
            "--out", tmp_path / "X.txt", "--report-path", tmp_path / "report.tsv",
        )
        assert code == EXIT_OK
        # the NNLS warm start starts from that fit, and the report's
        # reconstruction ratio takes its residual
        assert len(ls_calls) == 1
        monkeypatch.setattr(baselines, "solve_ls", real_ls)
        h = validate_problem(read_matrix(small_cube / "Y.txt"), read_matrix(small_cube / "M.txt"))
        expected = solvers.reconstruction_ratio(h, read_matrix(tmp_path / "X.txt"))
        lines = (tmp_path / "report.tsv").read_text().splitlines()
        assert f"# reconstruction_ratio {format_float(expected)}" in lines
        # started from the fit the solve already has, the warm start is still
        # the NNLS baseline bit for bit
        starts = []
        real_run = solvers._run_cusal_sp

        def spy(handle, config, sigma, X0, on_iteration):
            starts.append(X0)
            return real_run(handle, config, sigma, X0, on_iteration)

        monkeypatch.setitem(solvers._PROBLEMS, "sp", (spy,) + solvers._PROBLEMS["sp"][1:])
        solvers.cusal_sp(h, SolverConfig(sigma=0.1, lam=1e-3))
        np.testing.assert_array_equal(starts[0], solve_sunsal_sparse(h, 0.0).data)

    @pytest.mark.parametrize("name", ["ls", "fcls", "sunsal-sparse"])
    def test_baseline_report_says_direct(self, name, small_cube, tmp_path):
        lam = ["--lambda", "1e-3"] if ALGORITHMS[name].takes_lambda else []
        code = run_cli(
            name, small_cube / "Y.txt", small_cube / "M.txt", *lam,
            "--out", tmp_path / "X.txt", "--report-path", tmp_path / "report.tsv",
        )
        assert code == EXIT_OK
        assert (tmp_path / "report.tsv").read_text() == (
            "# termination_reason direct\n# iterations_run 0\n"
            "iteration\tprimal_residual\tdual_residual\tobjective\n"
        )

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

    @pytest.mark.parametrize("name", ["cusal-fc", "cusal-sp"])
    def test_inner_step_cap_is_not_an_option(self, name, small_cube, tmp_path, capsys):
        # the CLI always runs majorized ADMM: one half-quadratic step per x-update
        with pytest.raises(SystemExit) as exited:
            run_cli(
                name, small_cube / "Y.txt", small_cube / "M.txt", "--sigma-auto",
                "--max-inner-iters", 5, "--out", tmp_path / "X.txt",
            )
        assert exited.value.code == EXIT_INPUT
        assert "--max-inner-iters" in capsys.readouterr().err
        assert not (tmp_path / "X.txt").exists()
        with pytest.raises(SystemExit) as exited:
            run_cli(name, "--help")
        assert exited.value.code == EXIT_OK
        shown = capsys.readouterr().out
        assert "--max-iters" in shown and "--max-inner-iters" not in shown


class TestOutputDestinations:
    # an output path that cannot be written stops the command before it reads
    # any input, so nothing is solved, printed or half written
    @pytest.fixture
    def reads(self, monkeypatch):
        calls = []
        real = fileio.read_matrix

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(fileio, "read_matrix", counted)
        return calls

    def test_solve_out_that_is_a_directory(self, small_cube, tmp_path, reads, capsys):
        code = run_cli("fcls", small_cube / "Y.txt", small_cube / "M.txt", "--out", tmp_path)
        assert code == EXIT_INPUT
        assert reads == []
        assert "--out" in capsys.readouterr().err

    def test_report_path_in_a_missing_directory_writes_no_abundances(
        self, small_cube, tmp_path, reads, capsys
    ):
        out = tmp_path / "X.txt"
        code = run_cli(
            "cusal-fc", small_cube / "Y.txt", small_cube / "M.txt", "--sigma-auto",
            "--out", out, "--report-path", tmp_path / "missing" / "r.tsv",
        )
        assert code == EXIT_INPUT
        assert reads == []
        assert not out.exists()
        assert "--report-path" in capsys.readouterr().err

    def test_eval_append_that_is_a_directory(self, small_cube, tmp_path, reads, capsys):
        code = run_cli(
            "eval", "rmse", small_cube / "X_true.txt", small_cube / "X_true.txt",
            "--append", tmp_path,
        )
        assert code == EXIT_INPUT
        assert reads == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--append" in captured.err


class TestBlasThreadCount:
    def test_outputs_are_byte_identical_at_one_and_two_blas_threads(self, tmp_path):
        # L * T = 12,000 entries: BLAS splits dot products this long across
        # its threads, which moved the least-squares residual norm, and with
        # it the tuned bandwidth and every abundance, in the last digit
        cube = tmp_path / "cube"
        assert run_cli(
            "generate", "--R", 3, "--L", 100, "--T", 120, "--snr", 30, "--corrupt", 10,
            "--seed", 1, "--out-dir", cube,
        ) == EXIT_OK
        src = str(Path(unmix.__file__).resolve().parent.parent)
        outputs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            out.mkdir()
            script = (
                "import sys\n"
                "from unmix.cli import main\n"
                "y, m, out = sys.argv[1:]\n"
                "sys.exit(main(['cusal-fc', y, m, '--sigma-auto', '--out', out + '/X_cusal.txt',"
                " '--report-path', out + '/report.tsv'])"
                " or main(['fcls', y, m, '--out', out + '/X_fcls.txt']))\n"
            )
            path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
            env = dict(os.environ, PYTHONPATH=path)
            env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            subprocess.run(
                [sys.executable, "-c", script, str(cube / "Y.txt"), str(cube / "M.txt"), str(out)],
                env=env, check=True, timeout=120,
            )
            outputs[threads] = {
                name: (out / name).read_bytes() for name in ("X_cusal.txt", "report.tsv", "X_fcls.txt")
            }
        for name, data in outputs["1"].items():
            assert outputs["2"][name] == data, name


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

    def test_sad_of_huge_spectra_is_finite(self, tmp_path, capsys):
        write_matrix(tmp_path / "a.txt", np.array([[1e200, 2e200], [3e200, 1e200]]))
        write_matrix(tmp_path / "b.txt", np.array([[2e200, 1e200], [3e200, 3e200]]))
        code = run_cli("eval", "sad", tmp_path / "a.txt", tmp_path / "b.txt")
        assert code == EXIT_OK
        name, value = capsys.readouterr().out.split()
        assert name == "SAD_rad"
        assert 0.0 < float(value) < math.pi / 2

    def test_sre_of_a_huge_estimate_is_finite(self, tmp_path, capsys):
        write_matrix(tmp_path / "a.txt", np.ones((2, 2)))
        write_matrix(tmp_path / "b.txt", np.full((2, 2), 1e300))
        code = run_cli("eval", "sre", tmp_path / "a.txt", tmp_path / "b.txt")
        assert code == EXIT_OK
        name, value = capsys.readouterr().out.split()
        assert name == "SRE_dB"
        assert float(value) == pytest.approx(-6000.0, rel=1e-12)

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
