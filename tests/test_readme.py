"""The README's Defaults table states the library's constants."""

import re
from pathlib import Path

from unmix import SolverConfig, baselines, solvers
from unmix.cli import _g
from unmix.core import TOL_FEAS

README = Path(__file__).resolve().parents[1] / "README.md"


def defaults_table() -> dict:
    """The Defaults table's rows, knob -> default, as the README writes them."""
    section = README.read_text(encoding="utf-8").split("\n## Defaults\n", 1)[1]
    rows = re.findall(r"^\| (.+?) \| (.+) \|$", section.split("\n## ", 1)[0], re.MULTILINE)
    return dict(rows[1:])  # the header row goes; the |---| line has no spaced cells


def test_defaults_table_states_the_library_constants():
    config = SolverConfig()
    # one threshold row serves both tolerances
    assert config.eps_primal == config.eps_dual
    expected = {
        "ADMM penalty `rho`": _g(config.rho),
        "baseline tolerance / cap": (
            f"sqrt(R*T) * {_g(baselines._BASELINE_TOL)} / "
            f"{baselines._BASELINE_MAX_ITERS:,} iterations"
        ),
        "baseline ADMM penalty (`solve_fcls`, `solve_sunsal_sparse`)": (
            f"starts at {_g(baselines._PENALTY_SCALE)} * 2 * s_min * s_max of M (extreme "
            f"singular values); balanced every {baselines._BALANCE_PERIOD}th iteration, at most "
            f"{baselines._BALANCE_MAX_CHANGES} times: doubled when the primal residual norm "
            f"exceeds {_g(baselines._BALANCE_RATIO)}x the dual's, halved in the opposite case"
        ),
        "baseline over-relaxation": f"{_g(baselines._RELAXATION)} (1 once a residual norm overflows)",
        "inner iterations (half-quadratic steps per x-update)": str(config.max_inner_iters),
        "outer iterations": str(config.max_outer_iters),
        "residual thresholds": f"sqrt(R*T) * {_g(config.eps_primal)}, primal and dual",
        "feasibility tolerance (tags)": _g(TOL_FEAS),
        "bandwidth floor": f"{_g(solvers._SIGMA_FLOOR)} * max(1, ||Y||_F / sqrt(L*T))",
        "tuner growth / guard / cap": (
            f"{_g(solvers._TUNER_GROWTH)} / {_g(solvers._TUNER_OVERESTIMATE)} * sigma0 / "
            f"{solvers._TUNER_ATTEMPT_CAP} attempts"
        ),
    }
    table = defaults_table()
    assert {knob: table.get(knob) for knob in expected} == expected
