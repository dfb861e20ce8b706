"""One benchmark process: import `unmix`, set up one workload, run its timed
pipeline, check the outputs, and print one JSON line.

Started by run.py, never by hand. With --setup-only it stops once the inputs
are built and measures the reference work once (calibrate.py), which is how
run.py samples set-up time. With --trace 1 it installs the layer recorder
before set-up, runs the pipeline once and writes its spans. Otherwise it
repeats the pipeline while another repetition still fits in --seconds, timing
only the outermost solver calls, and measures the reference work before the
first repetition and after each one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from unmix import core  # noqa: E402

import calibrate  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS, Ledger  # noqa: E402


def _versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
    }


def _run_once(workload, timer_or_recorder, out: Path):
    """One pipeline repetition writing into `out`: wall seconds, ledger,
    headline outputs, and the number of MaxItersWarning the baselines emitted."""
    ledger = Ledger()
    out.mkdir()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        with timer_or_recorder.installed():
            workload.pipeline(ledger, out)
        wall = time.perf_counter() - start
    cap_hits = sum(1 for w in caught if issubclass(w.category, core.MaxItersWarning))
    try:
        outputs = workload.finish(ledger, out)
    except Exception:  # outputs missing or unreadable: the run has failed
        ledger.record("read outputs", False, traceback.format_exc(limit=3).strip())
        outputs = {"abundance_rmse": None, "sre_db": None, "counts": {}}
    shutil.rmtree(out)
    outputs["counts"]["baselines.cap_hits"] = cap_hits
    return wall, ledger, outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    recorder = layers.Recorder() if args.trace else None
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if recorder is not None:
            with recorder.installed():
                workload.setup()
        else:
            workload.setup()
        ready = time.monotonic()
        result = {"ready": ready}
        calib = [] if recorder is not None else [calibrate.measure()]
        result["calib_s"] = calib[:1]
        result["reference_s"] = calibrate.REFERENCE_S
        if args.setup_only:
            print(json.dumps(result))
            return 0

        reps = []
        while True:
            measure = recorder if recorder is not None else layers.SolveTimer()
            wall, ledger, outputs = _run_once(workload, measure, workdir / f"rep{len(reps)}")
            rep = {
                "wall_s": wall,
                "attempted": ledger.attempted,
                "failures": ledger.failures,
                "outputs": outputs,
            }
            if recorder is None:
                calib.append(calibrate.measure())
                rep.update(
                    solve_s=measure.seconds,
                    pixels=measure.pixels,
                    solve_calls=measure.calls,
                    calib_s=(calib[-2] + calib[-1]) / 2,
                )
            reps.append(rep)
            elapsed = time.monotonic() - ready
            if recorder is not None or elapsed + elapsed / len(reps) > args.seconds:
                break
        result["reps"] = reps
        result["versions"] = _versions()
        if recorder is not None:
            recorder.count("baselines.cap_hits", reps[0]["outputs"]["counts"]["baselines.cap_hits"])
            result["layers"] = recorder.layer_metrics(int(os.environ.get("UNMIX_THREADS", "1")))
            result["layers"]["trace.wall_s"] = (reps[0]["wall_s"], "s")
            result["layers"]["trace.spans"] = (len(recorder.spans), "count")
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            with open(spans_path, "w", encoding="utf-8") as fh:
                for span in recorder.spans:
                    fh.write(json.dumps(dict(zip(("id", "name", "start", "end", "parent", "thread"), span))) + "\n")
            result["spans_file"] = str(spans_path)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
