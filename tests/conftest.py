import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# `pytest --hypothesis-profile=ci` runs every property test on a fixed sequence
# of examples, so a run cannot fail on a draw no earlier run made.
settings.register_profile("ci", derandomize=True, database=None)

from unmix import validate_problem


def random_problem(rng, L, R, T, residual_scale=0.0):
    """A small dense problem; with residual_scale > 0, Y deviates from exact
    mixing by Gaussian residuals of that scale."""
    M = rng.uniform(0.05, 1.0, size=(L, R))
    X = rng.dirichlet(np.ones(R), size=T).T
    Y = M @ X
    if residual_scale > 0:
        Y = Y + residual_scale * rng.standard_normal((L, T))
    return validate_problem(Y, M), M, X, Y


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
