"""Layer timing from outside the library, by wrapping module attributes.

Nothing in `unmix` is edited. Each wrapped public function records a span
(name, start, end, parent span, thread id) and, where the layer has one, a
count such as outer iterations or file bytes. Spans stay in memory; the
caller writes them out when the run ends.

Functions that `unmix` binds by name through `from .x import y` have to be
wrapped in the namespace that calls them: the four correntropy functions live
in `unmix.solvers`, and `validate_problem` in `unmix.cli` and
`unmix.experiment`. Everything else is looked up as a module attribute at call
time and is wrapped once, in its own module.

`SolveTimer` is the untraced counterpart: it times only the outermost solver
calls, which `pixels_per_ref_s` needs, and records no spans.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import os
import statistics
import threading
import time

from unmix import baselines, cli, core, experiment, fileio, metrics, solvers, synth

# (namespace, attribute, span name)
SOLVER_ENTRY_POINTS = (
    (baselines, "solve_ls", "baselines.solve_ls"),
    (baselines, "solve_fcls", "baselines.solve_fcls"),
    (baselines, "solve_sunsal_sparse", "baselines.solve_sunsal_sparse"),
    (solvers, "cusal_fc", "solvers.cusal_fc"),
    (solvers, "cusal_sp", "solvers.cusal_sp"),
)

CORRENTROPY = (
    (solvers, "objective_C", "correntropy.objective_C"),
    (solvers, "objective_reduced_f1", "correntropy.objective_reduced_f1"),
    (solvers, "gradient_full", "correntropy.gradient_full"),
    (solvers, "gradient_reduced_f1", "correntropy.gradient_reduced_f1"),
)

LAYER_FUNCTIONS = SOLVER_ENTRY_POINTS + CORRENTROPY + (
    (cli, "cmd_generate", "cli.generate"),
    (cli, "cmd_unmix", "cli.unmix"),
    (cli, "cmd_eval", "cli.eval"),
    (cli, "cmd_experiment", "cli.experiment"),
    (fileio, "read_matrix", "fileio.read"),
    (fileio, "write_matrix", "fileio.write"),
    (synth, "gen_cube", "synth.gen_cube"),
    (synth, "gen_endmembers", "synth.gen_endmembers"),
    (core, "validate_problem", "core.validate_problem"),
    (cli, "validate_problem", "core.validate_problem"),
    (experiment, "validate_problem", "core.validate_problem"),
    (metrics, "rmse", "metrics.rmse"),
    (metrics, "sre_db", "metrics.sre_db"),
    (metrics, "sad", "metrics.sad"),
    (metrics, "evaluate_metric", "metrics.evaluate_metric"),
    (solvers, "admm_generic", "solvers.admm_generic"),
    (solvers, "inner_gradient_descent", "solvers.inner_gradient_descent"),
    (solvers, "reconstruction_ratio", "solvers.reconstruction_ratio"),
    (experiment, "run_experiment", "experiment.run_experiment"),
    (experiment, "run_cell", "experiment.run_cell"),
)


@contextlib.contextmanager
def _patched(replacements):
    """Set (namespace, attribute, value) triples; restore the originals on exit."""
    saved = [(ns, attr, getattr(ns, attr)) for ns, attr, _ in replacements]
    try:
        for ns, attr, value in replacements:
            setattr(ns, attr, value)
        yield
    finally:
        for ns, attr, value in reversed(saved):
            setattr(ns, attr, value)


class SolveTimer:
    """Seconds and pixels of the outermost solver calls, summed over threads."""

    def __init__(self):
        self.seconds = 0.0
        self.pixels = 0
        self.calls = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    def _wrap(self, fn):
        @functools.wraps(fn)
        def wrapper(handle, *args, **kwargs):
            depth = getattr(self._local, "depth", 0)
            self._local.depth = depth + 1
            start = time.perf_counter()
            try:
                return fn(handle, *args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._local.depth = depth
                if depth == 0:
                    with self._lock:
                        self.seconds += elapsed
                        self.pixels += handle.T
                        self.calls += 1

        return wrapper

    def installed(self):
        return _patched([(ns, attr, self._wrap(getattr(ns, attr))) for ns, attr, _ in SOLVER_ENTRY_POINTS])


def _correntropy_flop(handle, X) -> int:
    """Floating-point operations of one objective or gradient call, computed
    from array sizes: the residual Y - M X is 2*L*R'*T, the band energies and
    weights about 3*L*T, and a gradient repeats the product with M' (R' = rows
    of X)."""
    rows = len(X.data if hasattr(X, "data") else X)
    return 2 * handle.L * rows * handle.T + 3 * handle.L * handle.T


class Recorder:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.spans = []  # (span_id, name, start, end, parent_id, thread_id)
        self.counts = collections.Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = None
        self._lock = threading.Lock()

    def count(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
        return stack

    def _wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._main_stack:
                # a pool thread: the span open on the main thread caused it
                parent = self._main_stack[-1]
            else:
                parent = None
            if before is not None:
                args, kwargs = before(args, kwargs)
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent, threading.get_ident()))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- per-function count hooks ------------------------------------------
    def _counting(self, key, fn):
        def counted(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)

        return counted

    def _before_inner_descent(self, args, kwargs):
        # inner_gradient_descent(grad_fn, objective_fn, x_init, ...): every
        # gradient is one descent step, every objective after the first is one
        # Armijo trial
        args = list(args)
        args[0] = self._counting("solvers.gradient_evals", args[0])
        args[1] = self._counting("solvers.objective_evals", args[1])
        return tuple(args), kwargs

    def _after_admm(self, args, kwargs, result):
        _, report = result
        self.count("solvers.outer_iters", report.iterations_run)
        if report.termination_reason == core.Termination.MAX_ITERS:
            self.count("solvers.capped")

    def _after_correntropy(self, args, kwargs, result):
        handle, X = args[0], args[1]
        self.count("correntropy.flop", _correntropy_flop(handle, X))

    def _after_gradient(self, args, kwargs, result):
        handle, X = args[0], args[1]
        self.count("correntropy.flop", 2 * _correntropy_flop(handle, X))

    def _after_read(self, args, kwargs, result):
        self.count("fileio.read_bytes", os.path.getsize(args[0]))

    def _after_write(self, args, kwargs, result):
        self.count("fileio.write_bytes", os.path.getsize(args[0]))

    def _after_cell(self, args, kwargs, rows):
        if any(row.status != "ok" for row in rows):
            self.count("experiment.failed_cells")

    def installed(self):
        hooks = {
            "solvers.inner_gradient_descent": (self._before_inner_descent, None),
            "solvers.admm_generic": (None, self._after_admm),
            "correntropy.objective_C": (None, self._after_correntropy),
            "correntropy.objective_reduced_f1": (None, self._after_correntropy),
            "correntropy.gradient_full": (None, self._after_gradient),
            "correntropy.gradient_reduced_f1": (None, self._after_gradient),
            "fileio.read": (None, self._after_read),
            "fileio.write": (None, self._after_write),
            "experiment.run_cell": (None, self._after_cell),
        }
        return _patched(
            [
                (ns, attr, self._wrap(name, getattr(ns, attr), *hooks.get(name, (None, None))))
                for ns, attr, name in LAYER_FUNCTIONS
            ]
        )

    # -- aggregation ---------------------------------------------------------
    def by_name(self):
        """Per span name: calls, summed self seconds, and inclusive durations.

        Self time is a span's duration minus its children on the same thread;
        children on pool threads run alongside it and are not subtracted.
        """
        child_s = collections.Counter()
        thread_of = {span[0]: span[5] for span in self.spans}
        for span_id, _, start, end, parent, thread in self.spans:
            if parent is not None and thread_of.get(parent) == thread:
                child_s[parent] += end - start
        out = {}
        for span_id, name, start, end, _, _ in self.spans:
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_s[span_id]
            entry["durations"].append(end - start)
        return out

    def layer_metrics(self, workers: int) -> dict:
        """Every per-layer metric, by name: (value, unit)."""
        agg = self.by_name()
        c = self.counts

        def calls(name):
            return agg.get(name, {}).get("calls", 0)

        def self_s(*names):
            return sum(agg.get(n, {}).get("self_s", 0.0) for n in names)

        def inclusive_s(name):
            return sum(agg.get(name, {}).get("durations", []), 0.0)

        def ratio(num, den):
            return num / den if den else 0.0

        read_mb = c["fileio.read_bytes"] / 1e6
        write_mb = c["fileio.write_bytes"] / 1e6
        read_s, write_s = self_s("fileio.read"), self_s("fileio.write")
        solves = calls("solvers.cusal_fc") + calls("solvers.cusal_sp")
        attempts = calls("solvers.admm_generic")
        grads = c["solvers.gradient_evals"]
        trials = c["solvers.objective_evals"] - calls("solvers.inner_gradient_descent")
        obj_names = ("correntropy.objective_C", "correntropy.objective_reduced_f1")
        grad_names = ("correntropy.gradient_full", "correntropy.gradient_reduced_f1")
        obj_s, grad_s = self_s(*obj_names), self_s(*grad_names)
        gflop = c["correntropy.flop"] / 1e9
        cells = agg.get("experiment.run_cell", {}).get("durations", [])
        grid_wall = inclusive_s("experiment.run_experiment")
        solver_spans = (
            "solvers.cusal_fc",
            "solvers.cusal_sp",
            "solvers.admm_generic",
            "solvers.inner_gradient_descent",
            "solvers.reconstruction_ratio",
        )
        values = {
            "cli.generate_s": (inclusive_s("cli.generate"), "s"),
            "cli.unmix_s": (inclusive_s("cli.unmix"), "s"),
            "cli.eval_s": (inclusive_s("cli.eval"), "s"),
            "cli.experiment_s": (inclusive_s("cli.experiment"), "s"),
            "fileio.read_s": (read_s, "s"),
            "fileio.write_s": (write_s, "s"),
            "fileio.read_calls": (calls("fileio.read"), "count"),
            "fileio.write_calls": (calls("fileio.write"), "count"),
            "fileio.read_mb": (read_mb, "MB"),
            "fileio.write_mb": (write_mb, "MB"),
            "fileio.read_mb_per_s": (ratio(read_mb, read_s), "MB/s"),
            "fileio.write_mb_per_s": (ratio(write_mb, write_s), "MB/s"),
            "synth.gen_cube_s": (self_s("synth.gen_cube"), "s"),
            "synth.gen_endmembers_s": (self_s("synth.gen_endmembers"), "s"),
            "core.validate_problem_s": (self_s("core.validate_problem"), "s"),
            "metrics.eval_s": (
                self_s("metrics.rmse", "metrics.sre_db", "metrics.sad", "metrics.evaluate_metric"),
                "s",
            ),
            "baselines.solve_ls_calls": (calls("baselines.solve_ls"), "count"),
            "baselines.solve_ls_s": (self_s("baselines.solve_ls"), "s"),
            "baselines.solve_fcls_calls": (calls("baselines.solve_fcls"), "count"),
            "baselines.solve_fcls_s": (self_s("baselines.solve_fcls"), "s"),
            "baselines.solve_sunsal_sparse_calls": (calls("baselines.solve_sunsal_sparse"), "count"),
            "baselines.solve_sunsal_sparse_s": (self_s("baselines.solve_sunsal_sparse"), "s"),
            "baselines.cap_hits": (c["baselines.cap_hits"], "count"),
            "solvers.solves": (solves, "count"),
            "solvers.tuner_attempts": (attempts, "count"),
            "solvers.tuner_useful_ratio": (ratio(solves, attempts), "ratio"),
            "solvers.outer_iters": (c["solvers.outer_iters"], "count"),
            "solvers.capped_frac": (ratio(c["solvers.capped"], attempts), "ratio"),
            "solvers.x_updates": (calls("solvers.inner_gradient_descent"), "count"),
            "solvers.gradient_evals": (grads, "count"),
            "solvers.backtrack_trials": (trials, "count"),
            "solvers.trials_per_step": (ratio(trials, grads), "ratio"),
            "solvers.self_s": (self_s(*solver_spans), "s"),
            "solvers.reconstruction_ratio_calls": (calls("solvers.reconstruction_ratio"), "count"),
            "solvers.reconstruction_ratio_s": (self_s("solvers.reconstruction_ratio"), "s"),
            "correntropy.objective_calls": (sum(calls(n) for n in obj_names), "count"),
            "correntropy.gradient_calls": (sum(calls(n) for n in grad_names), "count"),
            "correntropy.objective_s": (obj_s, "s"),
            "correntropy.gradient_s": (grad_s, "s"),
            "correntropy.computed_gflop": (gflop, "GFLOP"),
            "correntropy.gflop_per_s": (ratio(gflop, obj_s + grad_s), "GFLOP/s"),
            "experiment.cells": (len(cells), "count"),
            "experiment.cell_s_p50": (statistics.median(cells) if cells else 0.0, "s"),
            "experiment.cell_s_max": (max(cells, default=0.0), "s"),
            "experiment.pool_efficiency": (ratio(sum(cells), workers * grid_wall), "ratio"),
            "experiment.failed_cells": (c["experiment.failed_cells"], "count"),
        }
        return values
