"""Robust hyperspectral abundance estimation by correntropy maximization.

Solvers for the fully-constrained and sparsity-promoting problems (ADMM with
an inexact half-quadratic x-update and an automatic kernel bandwidth search),
quadratic baselines, a ground-truthed synthetic data generator, evaluation
metrics, and a file-based CLI.
"""

from .core import (
    AbundanceMatrix,
    DimensionMismatch,
    EndmemberMatrix,
    GenerationFailed,
    InnerSolverFailure,
    InvalidInput,
    MaxItersWarning,
    NonFiniteData,
    NonFiniteIterate,
    ObservationMatrix,
    ProblemHandle,
    RankDeficiencyWarning,
    SingularNormalEquations,
    SolverConfig,
    SolverReport,
    Termination,
    TuningFailed,
    UndefinedMetric,
    UnmixError,
    ZeroNormSpectrum,
    linear_mix,
    project_nonnegative,
    soft_threshold,
    validate_problem,
)
from .correntropy import (
    ReducedAbundance,
    ResidualCache,
    band_weights,
    gradient_full,
    gradient_reduced_f1,
    objective_C,
    objective_reduced_f1,
    reconstruct_full,
    reduce_abundances,
    residual_cache,
)
from .baselines import solve_fcls, solve_ls, solve_sunsal_sparse
from .solvers import (
    AdmmState,
    TuneOutcome,
    TuningAttempt,
    TuningTrace,
    admm_generic,
    cusal_fc,
    cusal_sp,
    inner_gradient_descent,
    reconstruction_ratio,
    stop_check,
    tune_sigma,
)
from .synth import GroundTruth, SyntheticSpec, gen_abundances, gen_cube, gen_endmembers
from .metrics import MetricResult, evaluate_metric, rmse, sad, sre_db

__version__ = "0.1.0"
