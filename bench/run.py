"""Benchmark of the unmix library and CLI.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: cli-paper, sparse-r20, grid-fc, bulk-io (see workloads.py for why
each was chosen). Run from the root of a source checkout; the library is
imported from ./src, so nothing needs installing.

With --trace 0 the run measures the end-to-end metrics: set-up time is the
median of 7 fresh processes from spawn to inputs ready (3 before the timed
process, its own, 3 after), and the timed pipeline repeats while another
repetition fits in --seconds. Every time is reported at the reference speed:
each sample is multiplied by calibrate.REFERENCE_S over the time a fixed piece
of reference work took in the same process next to it, because the shared
host this was written on changed speed by up to a factor of 1.9 for minutes at
a time (README.md). The raw times are printed and recorded beside them. With
--trace 1 one pipeline runs with every layer function wrapped and the
per-layer metrics are reported instead.

Every run pins BLAS, OpenMP and the experiment pool (UNMIX_THREADS) to one
thread: results change with the BLAS thread count, and on a small shared
machine a run that needs every core slows far more than a one-thread run when
the host is busy (see README.md).

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; every run also appends a full record (versions, thread
variables, load average, counts next to every time) to
.bench_out/records.jsonl. The command exits 1 when an operation or a check
failed, and 2 when the checkout has no unmix sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("cli-paper", "sparse-r20", "grid-fc", "bulk-io")
# set-up probes started before and again after the timed process, so the
# set-up median spans the whole run rather than one moment of it
SETUP_PROBES = 3
DEADLINE_S = 170.0

END_TO_END = {
    "wall_ref_s": "s",
    "setup_s": "s",
    "pixels_per_ref_s": "1/s",
    "peak_rss_mb": "MB",
    "abundance_rmse": "1",
    "sre_db": "dB",
}


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", UNMIX_THREADS="1")
    return env


def _spawn(args, env, deadline):
    """Run one worker to completion; return (spawn time, its JSON result)."""
    cmd = [sys.executable, str(WORKER), *args, "--out-dir", str(OUT_DIR)]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - started)
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline: {' '.join(args)}")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    env = _env()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "env": {k: env.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "UNMIX_THREADS")},
    }
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup, setup_calib = [], []

    def probe_setup():
        for _ in range(0 if args.trace else SETUP_PROBES):
            started, probe = _spawn(common + ["--setup-only"], env, deadline)
            setup.append(probe["ready"] - started)
            setup_calib.extend(probe["calib_s"])

    probe_setup()
    started, result = _spawn(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline
    )
    setup.append(result["ready"] - started)
    setup_calib.extend(result["calib_s"])
    probe_setup()
    reps = result["reps"]
    first = reps[0]["outputs"]
    record.update(
        versions=result["versions"],
        setup_samples_s=setup,
        setup_calib_s=setup_calib,
        reps=reps,
        attempted=sum(r["attempted"] for r in reps),
        failed=sum(len(r["failures"]) for r in reps),
        counts=first["counts"],
    )
    if args.trace:
        record["layers"] = result["layers"]
        record["spans_file"] = result["spans_file"]
        metrics = {name: value for name, (value, _) in result["layers"].items()}
        units = {name: unit for name, (_, unit) in result["layers"].items()}
    else:
        ref = result["reference_s"]
        record["raw"] = {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "setup_s": statistics.median(setup),
            "pixels_per_s": statistics.median(
                r["pixels"] / r["solve_s"] if r["solve_s"] else 0.0 for r in reps
            ),
            "host_speed": ref / statistics.median(r["calib_s"] for r in reps),
        }
        metrics = {
            "wall_ref_s": statistics.median(r["wall_s"] * ref / r["calib_s"] for r in reps),
            "setup_s": statistics.median(s * ref / c for s, c in zip(setup, setup_calib)),
            "pixels_per_ref_s": statistics.median(
                r["pixels"] * r["calib_s"] / (r["solve_s"] * ref) if r["solve_s"] else 0.0
                for r in reps
            ),
            "peak_rss_mb": result["peak_rss_mb"],
            "abundance_rmse": first["abundance_rmse"],
            "sre_db": first["sre_db"],
        }
        units = END_TO_END
        record["counts"].update(
            solve_calls=reps[0]["solve_calls"], solve_pixels=reps[0]["pixels"]
        )
    record["metrics"] = metrics
    record["failed_frac"] = record["failed"] / record["attempted"]
    return record, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "unmix" / "__init__.py").is_file():
        print(f"error: no unmix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    try:
        record, units = _run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(OUT_DIR / "records.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  commit {record['commit']}")
    for rep in record["reps"]:
        for failure in rep["failures"]:
            print(f"FAILED {failure}")
    for name, value in record["metrics"].items():
        print(f"{name:40s} {value!r:>24} {units[name]}")
    for name, value in record.get("raw", {}).items():
        print(f"{'raw ' + name:40s} {value!r:>24}")
    print(f"{'failed_frac':40s} {record['failed_frac']!r:>24} ({record['failed']}/{record['attempted']})")
    for name, value in record["counts"].items():
        print(f"{'count ' + name:40s} {value!r:>24}")
    summary = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in record["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
