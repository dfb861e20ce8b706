"""Monte-Carlo experiment grids: algorithms x corrupted-band counts x seeds,
read from a flat `key = value` config file and emitted as one canonical TSV.

The config parser rejects syntax errors, unknown or duplicate keys, empty lists
and unknown algorithm or metric names, with the line number. Names, values
listed twice in algorithms, corrupt_list, seeds or metric, cube recipes and
solver settings are then checked before the first cube is made, so an invalid
value, also in a config built by hand, stops the grid with an InvalidInput.

The unit of work is one cube recipe (n_corrupt, seed): its cube is generated
and validated once, and every algorithm solves that one problem handle, sharing
its least-squares fit. Recipes may run on a thread pool, one task each (capped
by UNMIX_THREADS via the CLI); rows are sorted canonically, so the worker count
never changes a byte of output. A failure becomes the status of its rows: a
cube that cannot be made fails every algorithm's, a failed solve only its own.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, fields, replace
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
        """The cube recipe (n_corrupt, seed) that one grid cell runs."""
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
        """The solver settings of every grid solve at l1 weight `lam`."""
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
        raise InvalidInput(f"unknown algorithm {name!r}")
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


def _best_values(config: ExperimentConfig, algorithm: str, truth, handle) -> list:
    """Each metric's value for one algorithm; an algorithm that takes lambda
    reports its best value over the lambda grid."""
    entry = solvers.ALGORITHMS[algorithm]
    lams = config.lambda_grid if entry.takes_lambda else (SolverConfig.lam,)
    candidates = [entry.solve(handle, config.solver_config(lam))[0] for lam in lams]
    best = []
    for name in config.metrics:
        values = [_metric_value(name, truth, handle, X) for X in candidates]
        best.append(min(values) if metrics.LOWER_IS_BETTER[name] else max(values))
    return best


def run_cell(config: ExperimentConfig, M, spec: synth.SyntheticSpec):
    """All metric rows of one cube recipe: every algorithm solves its one cube."""
    try:
        Y, truth = synth.gen_cube(M, spec)
        handle = validate_problem(Y, M)
        cube_status = "ok"
    except UnmixError as exc:
        cube_status = f"error:{type(exc).__name__}"
    rows = []
    for algorithm in config.algorithms:
        values, status = [None] * len(config.metrics), cube_status
        if status == "ok":
            try:
                values = _best_values(config, algorithm, truth, handle)
            except UnmixError as exc:
                status = f"error:{type(exc).__name__}"
        rows.extend(
            ExperimentRow(
                algorithm, config.model, config.snr_db, spec.n_corrupt, config.K, spec.seed,
                name, value, status,
            )
            for name, value in zip(config.metrics, values)
        )
    return rows


def run_experiment(config: ExperimentConfig, max_workers: int = 1):
    """Run the full grid and return rows in canonical order.

    Every algorithm and metric name, repeated list entry, cube recipe and
    solver setting is checked first, so an invalid value raises InvalidInput
    before any cube is generated. The cells run the resolved metric labels.
    """
    config = replace(config, metrics=tuple(map(metrics.resolve_metric, config.metrics)))
    lists = {
        "algorithms": [_algorithm(name) for name in config.algorithms],
        "corrupt_list": config.corrupt_list,
        "seeds": config.seeds,
        "metric": config.metrics,
    }
    for key, values in lists.items():
        repeated = [value for i, value in enumerate(values) if value in values[:i]]
        if repeated:
            raise InvalidInput(f"{key} lists {repeated[0]!r} more than once")
    specs = [config.spec(n, seed) for n in config.corrupt_list for seed in config.seeds]
    for lam in (SolverConfig.lam, *config.lambda_grid):
        config.solver_config(lam)
    M = synth.gen_endmembers(
        config.R, config.L, seed=config.endmember_seed, min_angle_deg=config.min_angle_deg
    )
    if max_workers <= 1:
        results = [run_cell(config, M, spec) for spec in specs]
    else:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(lambda spec: run_cell(config, M, spec), specs))
    rows = [row for cell_rows in results for row in cell_rows]
    rows.sort(key=ExperimentRow.sort_key)
    return rows


def rows_to_tsv(rows) -> str:
    lines = ["\t".join(TSV_COLUMNS)]
    lines.extend(row.to_tsv() for row in rows)
    return "\n".join(lines) + "\n"
