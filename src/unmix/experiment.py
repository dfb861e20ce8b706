"""Monte-Carlo experiment grids: algorithms x corrupted-band counts x seeds,
read from a flat `key = value` config file and emitted as one canonical TSV
for downstream plotting.

The config parser converts each value and rejects syntax errors, unknown or
duplicate keys, empty lists and unknown algorithm or metric names, with the
line number. Every cell's cube recipe and solver settings are then built
before the first cell runs, so any other invalid value stops the grid with the
InvalidInput of the type that owns it and no output.

Cells are independent pure computations; they may run on a thread pool (capped
by the UNMIX_THREADS environment variable via the CLI), and the rows are
sorted canonically before writing so the worker count never changes a byte of
output. A cell that fails while solving is recorded in the status column
instead of aborting the grid.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields
from typing import Optional

from . import metrics, solvers, synth
from .core import InvalidInput, SolverConfig, UnmixError, validate_problem
from .fileio import ParseError, _content_lines, format_float, parse_interval

# The default l1 grid used when a config does not set lambda_grid.
DEFAULT_LAMBDA_GRID = (1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 1e-2, 1e-1)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment grid."""

    model: str
    R: int
    L: int
    T: int
    snr_db: float
    corrupt_list: tuple
    algorithms: tuple
    seeds: tuple
    metrics: tuple
    lambda_grid: tuple = DEFAULT_LAMBDA_GRID
    K: Optional[int] = None
    b_range: tuple = (-3.0, 3.0)
    endmember_seed: int = 0
    min_angle_deg: float = 10.0
    max_outer_iters: int = SolverConfig.max_outer_iters

    def spec(self, n_corrupt: int, seed: int) -> synth.SyntheticSpec:
        """The cube recipe of one grid cell."""
        return synth.SyntheticSpec(
            model=self.model,
            R=self.R,
            L=self.L,
            T=self.T,
            snr_db=self.snr_db,
            n_corrupt=n_corrupt,
            sparsity_K=self.K,
            seed=seed,
            b_range=self.b_range,
        )

    def solver_config(self, lam: float) -> SolverConfig:
        """The solver settings of one grid cell at l1 weight `lam`."""
        return SolverConfig(lam=lam, sigma_auto=True, max_outer_iters=self.max_outer_iters)


def _items(convert):
    """Converter of a non-empty comma-separated list."""

    def parse(text: str) -> tuple:
        items = tuple(convert(v.strip()) for v in text.split(",") if v.strip())
        if not items:
            raise ValueError("empty list")
        return items

    return parse


def _algorithm(name: str) -> str:
    if name not in solvers.ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}")
    return name


# config key -> (ExperimentConfig field, converter of the value text)
_KEYS = {
    "model": ("model", str),
    "R": ("R", int),
    "L": ("L", int),
    "T": ("T", int),
    "snr_db": ("snr_db", float),
    "corrupt_list": ("corrupt_list", _items(int)),
    "algorithms": ("algorithms", _items(_algorithm)),
    "lambda_grid": ("lambda_grid", _items(float)),
    "seeds": ("seeds", _items(int)),
    "metric": ("metrics", _items(metrics.resolve_metric)),
    "K": ("K", int),
    "b_range": ("b_range", parse_interval),
    "endmember_seed": ("endmember_seed", int),
    "min_angle_deg": ("min_angle_deg", float),
    "max_outer_iters": ("max_outer_iters", int),
}


def parse_experiment_config(path) -> ExperimentConfig:
    """Parse the flat `key = value` experiment file; unknown keys are an error.

    Optional keys missing from the file take the ExperimentConfig default.
    """
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, stripped in _content_lines(fh):
            key, sep, value = stripped.partition("=")
            if not sep:
                raise ParseError(f"expected 'key = value', got {stripped!r}", line=lineno)
            key = key.strip()
            if key not in _KEYS:
                raise ParseError(f"unknown key {key!r}", line=lineno)
            name, convert = _KEYS[key]
            if name in values:
                raise ParseError(f"duplicate key {key!r}", line=lineno)
            try:
                values[name] = convert(value.strip())
            except (ValueError, InvalidInput) as exc:
                raise ParseError(f"key {key!r}: {exc}", line=lineno) from None
    required = {f.name for f in fields(ExperimentConfig) if f.default is MISSING}
    for key, (name, _) in _KEYS.items():
        if name in required and name not in values:
            raise ParseError(f"missing required key {key!r}")
    return ExperimentConfig(**values)


TSV_COLUMNS = ("algorithm", "model", "snr", "n_corrupt", "K", "seed", "metric", "value", "status")


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
    spec = config.spec(n_corrupt, seed)
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
        if algorithm not in solvers.ALGORITHMS:
            raise UnmixError(f"unknown algorithm {algorithm!r}")
        entry = solvers.ALGORITHMS[algorithm]
        # an algorithm that takes lambda reports its best value over the grid
        lams = config.lambda_grid if entry.takes_lambda else (SolverConfig.lam,)
        candidates = [entry.solve(handle, config.solver_config(lam))[0] for lam in lams]
        for name in config.metrics:
            values = [_metric_value(name, truth, handle, X) for X in candidates]
            make_row(name, min(values) if metrics.LOWER_IS_BETTER[name] else max(values))
    except UnmixError as exc:
        rows = []
        for name in config.metrics:
            make_row(name, None, status=f"error:{type(exc).__name__}")
    return rows


def run_experiment(config: ExperimentConfig, max_workers: int = 1):
    """Run the full grid and return rows in canonical order.

    Every cell's recipe and solver settings are built first, so an invalid
    value raises InvalidInput before any cell runs.
    """
    for n_corrupt in config.corrupt_list:
        for seed in config.seeds:
            config.spec(n_corrupt, seed)
    for lam in (SolverConfig.lam, *config.lambda_grid):
        config.solver_config(lam)
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
