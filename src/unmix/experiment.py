"""Monte-Carlo experiment grids: algorithms x corrupted-band counts x seeds,
emitted as one canonical TSV for downstream plotting.

Cells are independent pure computations; they may run on a thread pool (capped
by the UNMIX_THREADS environment variable via the CLI), and the rows are
sorted canonically before writing so the worker count never changes a byte of
output. Failures are recorded in the status column instead of aborting the
grid.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

from . import metrics, solvers, synth
from .core import SolverConfig, UnmixError, validate_problem
from .fileio import ExperimentConfig, format_float

TSV_COLUMNS = ("algorithm", "model", "snr", "n_corrupt", "K", "seed", "metric", "value", "status")

# Lower is better for these metrics when collapsing a lambda grid.
_MINIMIZE = {"RMSE": True, "SRE_dB": False, "SAD_rad": True}


@dataclass(frozen=True)
class ExperimentRow:
    algorithm: str
    model: str
    snr_db: float
    n_corrupt: int
    K: Optional[int]
    seed: int
    metric: str
    value: Optional[float]
    status: str = "ok"

    def sort_key(self):
        return (
            self.algorithm,
            self.model,
            self.snr_db,
            self.n_corrupt,
            -1 if self.K is None else self.K,
            self.seed,
            self.metric,
        )

    def to_tsv(self) -> str:
        return "\t".join(
            (
                self.algorithm,
                self.model,
                format_float(self.snr_db),
                str(self.n_corrupt),
                "" if self.K is None else str(self.K),
                str(self.seed),
                self.metric,
                "" if self.value is None else format_float(self.value),
                self.status,
            )
        )


def _metric_value(name: str, truth: synth.GroundTruth, handle, X_hat) -> float:
    if name == "SAD_rad":
        # reconstruction quality on the uncorrupted bands
        return metrics.sad(
            handle.Y, handle.M @ X_hat.data, exclude_bands=truth.corrupted_bands
        )
    return metrics.evaluate_metric(name, truth.X_true, X_hat).value


def run_cell(config: ExperimentConfig, M, algorithm: str, n_corrupt: int, seed: int):
    """All metric rows for one (algorithm, corrupt count, seed) grid cell."""
    spec = synth.SyntheticSpec(
        model=config.model,
        R=config.R,
        L=config.L,
        T=config.T,
        snr_db=config.snr_db,
        n_corrupt=n_corrupt,
        sparsity_K=config.K,
        seed=seed,
        b_range=config.b_range,
    )
    rows: list[ExperimentRow] = []

    def make_row(metric_name, value, status="ok"):
        rows.append(
            ExperimentRow(
                algorithm=algorithm,
                model=config.model,
                snr_db=config.snr_db,
                n_corrupt=n_corrupt,
                K=config.K,
                seed=seed,
                metric=metric_name,
                value=value,
                status=status,
            )
        )

    try:
        Y, truth = synth.gen_cube(M, spec)
        handle = validate_problem(Y, M)
        solver_config = SolverConfig(sigma_auto=True, max_outer_iters=config.max_outer_iters)
        if algorithm not in solvers.ALGORITHMS:
            raise UnmixError(f"unknown algorithm {algorithm!r}")
        entry = solvers.ALGORITHMS[algorithm]
        # an algorithm that takes lambda reports its best value over the grid
        lams = config.lambda_grid if entry.takes_lambda else (solver_config.lam,)
        candidates = [entry.solve(handle, replace(solver_config, lam=lam))[0] for lam in lams]
        for name in config.metrics:
            values = [_metric_value(name, truth, handle, X) for X in candidates]
            make_row(name, min(values) if _MINIMIZE[name] else max(values))
    except UnmixError as exc:
        rows = []
        for name in config.metrics:
            make_row(name, None, status=f"error:{type(exc).__name__}")
    return rows


def run_experiment(config: ExperimentConfig, max_workers: int = 1):
    """Run the full grid and return rows in canonical order."""
    M = synth.gen_endmembers(
        config.R, config.L, seed=config.endmember_seed, min_angle_deg=config.min_angle_deg
    )
    cells = [
        (algorithm, n_corrupt, seed)
        for algorithm in config.algorithms
        for n_corrupt in config.corrupt_list
        for seed in config.seeds
    ]
    if max_workers <= 1:
        results = [run_cell(config, M, *cell) for cell in cells]
    else:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            futures = [pool.submit(run_cell, config, M, *cell) for cell in cells]
            results = [f.result() for f in futures]
    rows = [row for cell_rows in results for row in cell_rows]
    rows.sort(key=ExperimentRow.sort_key)
    return rows


def rows_to_tsv(rows) -> str:
    lines = ["\t".join(TSV_COLUMNS)]
    lines.extend(row.to_tsv() for row in rows)
    return "\n".join(lines) + "\n"
