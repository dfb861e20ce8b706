"""Command-line interface.

Every command is a thin shell over library calls: files in, library out,
files/stdout back. Exit codes: 0 success, 2 invalid input (files, flags,
dimensions, metric domain), 3 solver diverged, 4 bandwidth tuning failed,
1 unexpected internal error (an uncaught exception, with its traceback).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import experiment, fileio, metrics, solvers, synth
from .core import (
    InvalidInput,
    SolverConfig,
    Termination,
    TuningFailed,
    UnmixError,
    linear_mix,
    validate_problem,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DIVERGED = 3
EXIT_TUNING = 4


def _add_generate(sub):
    p = sub.add_parser("generate", help="write a synthetic cube (Y, M, X_true, truth meta)")
    p.add_argument("--model", choices=("lmm", "ppnmm"), default="lmm")
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--snr", type=float, default="inf", help="SNR in dB, or 'inf' for noiseless")
    p.add_argument("--corrupt", type=int, default=0, help="number of corrupted bands")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--K", type=int, default=None, help="nonzeros per pixel (sparse abundances)")
    p.add_argument("--b-range", default="-3,3", help="ppnmm coefficient interval 'lo,hi'")
    p.add_argument("--min-angle", type=float, default=10.0, help="pairwise endmember angle (deg)")
    p.add_argument("--endmember-seed", type=int, default=0)
    p.add_argument("--endmembers", default=None, help="matrix file to use instead of synthesis")
    p.add_argument("--out-dir", default=".")


def _add_algorithms(sub):
    for name, algorithm in solvers.ALGORITHMS.items():
        p = sub.add_parser(name, help=f"unmix with {name}")
        p.add_argument("observations", help="matrix file with Y (bands x pixels)")
        p.add_argument("endmembers", help="matrix file with M (bands x endmembers)")
        p.add_argument("--out", default="X_hat.txt", help="output abundance file")
        p.add_argument("--report-path", default=None, help="write per-iteration diagnostics TSV")
        if algorithm.takes_lambda:
            p.add_argument("--lambda", dest="lam", type=float, default=0.0, help="l1 weight (default 0)")
        if algorithm.correntropy:
            p.add_argument("--sigma", type=float, default=None, help="kernel bandwidth")
            p.add_argument(
                "--sigma-auto",
                action="store_true",
                help="search the bandwidth: start at sqrt(R/8L)*||Y - M X_ls||_F (floored to "
                "1e-6*max(1, ||Y||_F/sqrt(LT))), grow by 1.2, divide the start by p after "
                "divergence beyond 1000x, accept at reconstruction ratio < 2, give up after 60 attempts, "
                "or at the first ratio >= 2 when the best feasible fit's ratio (fcls, or NNLS for "
                "cusal-sp) is >= 2 as well",
            )
            p.add_argument(
                "--rho", type=float, default=SolverConfig.rho,
                help=f"ADMM penalty (default {SolverConfig.rho:g})",
            )
            p.add_argument(
                "--max-iters", type=int, default=SolverConfig.max_outer_iters,
                help=f"outer iteration cap (default {SolverConfig.max_outer_iters:g})",
            )


def _add_eval(sub):
    p = sub.add_parser("eval", help="print '<metric>\\t<value>' for a truth/estimate pair")
    p.add_argument("metric", choices=("rmse", "sre", "sad"))
    p.add_argument("truth", help="reference matrix file")
    p.add_argument("estimate", help="estimate matrix file")
    p.add_argument("--exclude", default="", help="1-based band ranges to drop (sad), e.g. 1-3,105-115")
    p.add_argument("--degrees", action="store_true", help="report sad in degrees")
    p.add_argument(
        "--reconstruct-with",
        default=None,
        help="endmember matrix file; treats the estimate file as abundances and compares M @ X",
    )
    p.add_argument("--append", default=None, help="TSV file to append a result row to")
    p.add_argument("--algorithm", default="", help="row label used with --append")
    p.add_argument("--n-corrupt", default="", help="row label used with --append")
    p.add_argument("--seed", default="", help="row label used with --append")


def _add_experiment(sub):
    p = sub.add_parser("experiment", help="run a Monte-Carlo grid from a config file")
    p.add_argument("config", help="flat key = value experiment file")
    p.add_argument("--out", default=None, help="TSV output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unmix",
        description="Robust hyperspectral abundance estimation (correntropy ADMM solvers, "
        "quadratic baselines, synthetic data, metrics).",
        epilog=f"Solver defaults: rho={SolverConfig.rho:g}, "
        f"{SolverConfig.max_outer_iters:g} outer iterations, "
        "residual thresholds sqrt(R*T)*1e-5. Fixed values, not settings: "
        f"{SolverConfig.max_inner_iters:g} half-quadratic step per x-update (majorized ADMM), "
        "which minimizes the weighted least-squares majorizer of the x-subproblem "
        "(unit step; a step that does not lower the subproblem ends the x-update), "
        "inner tolerance 1e-6. "
        "Exit codes: 0 ok, 2 input error, 3 diverged, 4 tuning failed.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate(sub)
    _add_algorithms(sub)
    _add_eval(sub)
    _add_experiment(sub)
    return parser


def _check_destination(path, flag) -> None:
    """Reject an output path that is a directory or lies in a missing one,
    before any input is read, so a bad path leaves no partial output."""
    if path is not None and os.path.isdir(path):
        raise InvalidInput(f"{flag} {path!r} is a directory")
    if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
        raise InvalidInput(f"the directory of {flag} {path!r} does not exist")


def cmd_generate(args) -> int:
    if args.endmembers is not None:
        M = fileio.read_matrix(args.endmembers)
    else:
        M = synth.gen_endmembers(
            args.R, args.L, seed=args.endmember_seed, min_angle_deg=args.min_angle
        ).data
    spec = synth.SyntheticSpec(
        model=args.model,
        R=args.R,
        L=args.L,
        T=args.T,
        snr_db=args.snr,
        n_corrupt=args.corrupt,
        sparsity_K=args.K,
        seed=args.seed,
        b_range=fileio.parse_interval(args.b_range),
    )
    Y, truth = synth.gen_cube(M, spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_matrix(out / "Y.txt", Y)
    fileio.write_matrix(out / "M.txt", M)
    fileio.write_matrix(out / "X_true.txt", truth.X_true)
    fileio.write_truth_meta(out / "truth_meta.txt", truth, spec)
    print(f"wrote Y.txt M.txt X_true.txt truth_meta.txt in {out}")
    return EXIT_OK


def _write_report(path, report, handle, X) -> None:
    """The report file: header lines, then the per-iteration TSV. A tuned solve
    takes its reconstruction ratio from the accepted attempt and lists every
    attempt as `# tuner_attempt <sigma> <outcome> <ratio>` (ratio nan for a
    diverged attempt, which is not checked); a fixed-bandwidth solve computes
    it against the handle's least-squares residual."""
    attempts = () if report.tuning is None else report.tuning.attempts
    ratio = attempts[-1].ratio if attempts else solvers.reconstruction_ratio(handle, X)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# termination_reason {report.termination_reason.value}\n")
        fh.write(f"# iterations_run {report.iterations_run}\n")
        if report.sigma_used is not None:
            fh.write(f"# sigma_used {fileio.format_float(report.sigma_used)}\n")
        fh.write(f"# reconstruction_ratio {fileio.format_float(ratio)}\n")
        for attempt in attempts:
            shown = float("nan") if attempt.ratio is None else attempt.ratio
            fh.write(
                f"# tuner_attempt {fileio.format_float(attempt.sigma)} {attempt.outcome.value}"
                f" {fileio.format_float(shown)}\n"
            )
        fh.write("iteration\tprimal_residual\tdual_residual\tobjective\n")
        for i in range(report.iterations_run):
            fh.write(
                f"{i + 1}\t{fileio.format_float(report.primal_residuals[i])}"
                f"\t{fileio.format_float(report.dual_residuals[i])}"
                f"\t{fileio.format_float(report.objective_trace[i])}\n"
            )


def cmd_unmix(args) -> int:
    _check_destination(args.out, "--out")
    _check_destination(args.report_path, "--report-path")
    Y = fileio.read_matrix(args.observations)
    M = fileio.read_matrix(args.endmembers)
    handle = validate_problem(Y, M)
    algorithm = solvers.ALGORITHMS[args.command]
    options = {"lam": args.lam} if algorithm.takes_lambda else {}
    if algorithm.correntropy:
        options.update(
            sigma=args.sigma,
            rho=args.rho,
            max_outer_iters=args.max_iters,
            sigma_auto=args.sigma_auto,
        )
    X, report = algorithm.solve(handle, SolverConfig(**options))
    fileio.write_matrix(args.out, X)
    if args.report_path is not None:
        if report is not None:
            _write_report(args.report_path, report, handle, X)
        else:
            with open(args.report_path, "w", encoding="utf-8") as fh:
                fh.write(f"# termination_reason direct\n# iterations_run 0\n")
                fh.write("iteration\tprimal_residual\tdual_residual\tobjective\n")
    reason = None if report is None else report.termination_reason
    if reason == Termination.PRIMAL_INCREASED:
        print("warning: solver terminated on a primal residual increase", file=sys.stderr)
        return EXIT_DIVERGED
    if reason == Termination.MAX_ITERS:
        print(
            f"warning: solver stopped at its iteration cap (--max-iters {args.max_iters}) after "
            f"{report.iterations_run} outer iterations, before the residual tolerances were met",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_eval(args) -> int:
    _check_destination(args.append, "--append")
    flag = "--exclude" if args.exclude else "--degrees" if args.degrees else None
    if flag is not None and args.metric != "sad":
        raise InvalidInput(f"{flag} applies only to sad, not to {args.metric}")
    label = (
        "--algorithm" if args.algorithm else "--n-corrupt" if args.n_corrupt
        else "--seed" if args.seed else None
    )
    if label is not None and args.append is None:
        raise InvalidInput(f"{label} is a row label and needs --append")
    truth = fileio.read_matrix(args.truth)
    estimate = fileio.read_matrix(args.estimate)
    if args.reconstruct_with is not None:
        M = fileio.read_matrix(args.reconstruct_with)
        estimate = linear_mix(M, estimate)
    exclude = fileio.parse_band_ranges(args.exclude)
    result = metrics.evaluate_metric(metrics.resolve_metric(args.metric), truth, estimate, exclude)
    name, value = result.name, result.value
    if args.degrees:
        name, value = "SAD_deg", math.degrees(value)
    print(f"{name}\t{fileio.format_float(value)}")
    if args.append is not None:
        new = not os.path.exists(args.append)
        with open(args.append, "a", encoding="utf-8") as fh:
            if new:
                fh.write("algorithm\tn_corrupt\tseed\tvalue\n")
            fh.write(
                f"{args.algorithm}\t{args.n_corrupt}\t{args.seed}\t{fileio.format_float(value)}\n"
            )
    return EXIT_OK


def cmd_experiment(args) -> int:
    _check_destination(args.out, "--out")
    config = experiment.parse_experiment_config(args.config)
    text = os.environ.get("UNMIX_THREADS", "1")
    try:
        max_workers = int(text)
    except ValueError:
        raise fileio.ParseError(f"UNMIX_THREADS must be an integer, got {text!r}") from None
    if max_workers < 1:
        raise fileio.ParseError(f"UNMIX_THREADS must be >= 1, got {max_workers}")
    rows = experiment.run_experiment(config, max_workers=max_workers)
    text = experiment.rows_to_tsv(rows)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def _join_negative_values(argv):
    """Fold values that start with '-' into '--flag=value' form so argparse
    accepts e.g. `--b-range -3,3`."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok in ("--b-range", "--exclude"):
            nxt = next(it, None)
            if nxt is None:
                out.append(tok)
            else:
                out.append(f"{tok}={nxt}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_negative_values([str(a) for a in argv]))
    try:
        if args.command == "generate":
            return cmd_generate(args)
        if args.command in solvers.ALGORITHMS:
            return cmd_unmix(args)
        if args.command == "eval":
            return cmd_eval(args)
        return cmd_experiment(args)
    except TuningFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TUNING
    except (UnmixError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
