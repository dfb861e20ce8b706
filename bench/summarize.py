"""Summarize the records that bench/run.py appended to .bench_out/records.jsonl.

    python3 bench/summarize.py [records.jsonl] [--json baseline.json]

For each workload it prints, over the untraced runs, the median, quartiles
and spread ((Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives
them) of every end-to-end metric; whether the counts agree between traced runs
of one seed and between traced and untraced runs of one seed; and the tracing
overhead, traced minus untraced pipeline wall time of the same seed. With
--json it also writes the untraced medians and quartiles and the traced
per-layer medians, with the commit, machine and versions they were measured
on.
"""

from __future__ import annotations

import argparse
import collections
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _spread(values):
    if len(values) < 2:
        return None, None, None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("records", nargs="?", default=ROOT / ".bench_out" / "records.jsonl")
    parser.add_argument("--json", dest="json_path", default=None)
    args = parser.parse_args(argv)
    text = Path(args.records).read_text(encoding="utf-8")
    records = [json.loads(line) for line in text.splitlines() if line]
    baseline = {}
    by_workload = collections.defaultdict(list)
    for rec in records:
        by_workload[rec["workload"]].append(rec)
    ok = True
    for workload, recs in by_workload.items():
        plain = [r for r in recs if not r["trace"]]
        traced = [r for r in recs if r["trace"]]
        print(f"== {workload}: {len(plain)} untraced, {len(traced)} traced runs, "
              f"seeds {sorted({r['seed'] for r in plain})}")
        if plain:
            baseline[workload] = {"seeds": sorted(r["seed"] for r in plain)}
            for name in plain[0]["metrics"]:
                values = [r["metrics"][name] for r in plain]
                q1, q3, spread = _spread(values)
                med = statistics.median(values)
                baseline[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
                if spread is None:
                    print(f"  {name:16s} median {med:.6g}")
                else:
                    print(f"  {name:16s} median {med:.6g}  Q1 {q1:.6g}  Q3 {q3:.6g}  spread {spread:.4f}")
            failed = sum(r["failed"] for r in plain)
            print(f"  failed {failed} of {sum(r['attempted'] for r in plain)} operations")
        by_seed = collections.defaultdict(list)
        for rec in traced:
            by_seed[rec["seed"]].append(rec)
        overheads = []
        for seed, runs in sorted(by_seed.items()):
            counts = [{k: v for k, v in r["layers"].items() if v[1] == "count"} for r in runs]
            identical = all(c == counts[0] for c in counts)
            ok = ok and identical
            baseline.setdefault(workload, {})[f"per_layer_seed{seed}"] = {
                name: statistics.median(r["layers"][name][0] for r in runs) for name in runs[0]["layers"]
            }
            untraced = [r for r in plain if r["seed"] == seed]
            for r in untraced:
                same = (
                    r["counts"].items() >= runs[0]["counts"].items()
                    and r["metrics"]["abundance_rmse"] == runs[0]["reps"][0]["outputs"]["abundance_rmse"]
                    and r["metrics"]["sre_db"] == runs[0]["reps"][0]["outputs"]["sre_db"]
                )
                if not same:
                    ok = False
                    print(f"  seed {seed}: traced and untraced outputs or counts DIFFER")
                overheads.append(
                    (runs[0]["layers"]["trace.wall_s"][0] - r["raw"]["wall_s"], r["raw"]["wall_s"])
                )
            print(f"  seed {seed}: {len(runs)} traced runs, per-layer counts identical: {identical}; "
                  f"{len(untraced)} untraced runs of this seed")
        if overheads:
            extra = statistics.median(o for o, _ in overheads)
            share = statistics.median(o / w for o, w in overheads)
            print(f"  tracing overhead: median {extra:+.3f} s ({share:+.1%} of untraced wall_s), "
                  f"{len(overheads)} pairs")
    if args.json_path:
        first = records[0]
        meta = {key: first[key] for key in ("commit", "nproc", "versions", "seconds")}
        meta["env"] = {w: r["env"] for w, r in {r["workload"]: r for r in records}.items()}
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "workloads": baseline}, fh, indent=2)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
