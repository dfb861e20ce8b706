import numpy as np
import pytest
from hypothesis import given, strategies as st

from unmix import (
    AbundanceMatrix,
    DimensionMismatch,
    EndmemberMatrix,
    InvalidInput,
    NonFiniteData,
    ObservationMatrix,
    RankDeficiencyWarning,
    SolverConfig,
    SolverReport,
    Termination,
    project_nonnegative,
    soft_threshold,
    validate_problem,
)

finite_floats = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False)


class TestProjectNonnegative:
    def test_sign_cases(self):
        np.testing.assert_array_equal(project_nonnegative([-1.0, 0.0, 2.0]), [0.0, 0.0, 2.0])

    def test_fixed_point_at_zero(self):
        np.testing.assert_array_equal(project_nonnegative([0.0, 0.0]), [0.0, 0.0])

    def test_elementwise_max(self):
        np.testing.assert_array_equal(
            project_nonnegative([3.5, -0.25, 1e-12]), [3.5, 0.0, 1e-12]
        )

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInput):
            project_nonnegative([np.nan, 0.0])

    @given(st.lists(finite_floats, min_size=1, max_size=20), st.lists(finite_floats, min_size=1, max_size=20))
    def test_idempotent_and_lipschitz(self, vals_a, vals_b):
        n = min(len(vals_a), len(vals_b))
        a, b = np.array(vals_a[:n]), np.array(vals_b[:n])
        w = project_nonnegative(a)
        np.testing.assert_array_equal(project_nonnegative(w), w)
        assert np.all(np.abs(w - project_nonnegative(b)) <= np.abs(a - b))


class TestSoftThreshold:
    @pytest.mark.parametrize(
        "zeta,b,expected",
        [(5.0, 2.0, 3.0), (-5.0, 2.0, -3.0), (1.0, 2.0, 0.0), (2.0, 2.0, 0.0), (-2.0, 2.0, 0.0)],
    )
    def test_branches(self, zeta, b, expected):
        assert soft_threshold(np.array([zeta]), b)[0] == expected

    def test_rejects_negative_threshold(self):
        with pytest.raises(InvalidInput):
            soft_threshold(np.array([1.0]), -0.5)

    @given(st.lists(finite_floats, min_size=1, max_size=20))
    def test_zero_threshold_is_identity(self, vals):
        v = np.array(vals)
        np.testing.assert_array_equal(soft_threshold(v, 0.0), v)

    @given(finite_floats, st.floats(min_value=0, max_value=1e12, allow_nan=False))
    def test_magnitude_identity(self, zeta, b):
        out = soft_threshold(np.array([zeta]), b)[0]
        assert abs(out) == pytest.approx(max(abs(zeta) - b, 0.0), abs=1e-12)

    @given(finite_floats, finite_floats, st.floats(min_value=0, max_value=1e6))
    def test_one_lipschitz_per_entry(self, a, b, thr):
        sa = soft_threshold(np.array([a]), thr)[0]
        sb = soft_threshold(np.array([b]), thr)[0]
        assert abs(sa - sb) <= abs(a - b) * (1 + 1e-12) + 1e-15

    def test_order_preserving(self, rng):
        v = np.sort(rng.standard_normal(50))
        out = soft_threshold(v, 0.7)
        assert np.all(np.diff(out) >= 0)


class TestDomainTypes:
    def test_observation_rejects_nan(self):
        with pytest.raises(NonFiniteData):
            ObservationMatrix(np.array([[1.0, np.nan]]))

    def test_endmember_must_be_tall(self):
        with pytest.raises(InvalidInput):
            EndmemberMatrix(np.ones((2, 3)))

    def test_data_is_read_only(self):
        Y = ObservationMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            Y.data[0, 0] = 3.0

    def test_fully_constrained_tag_enforced(self):
        AbundanceMatrix(np.array([[0.4], [0.6]]), tag="fully_constrained")
        with pytest.raises(InvalidInput):
            AbundanceMatrix(np.array([[0.4], [0.7]]), tag="fully_constrained")
        with pytest.raises(InvalidInput):
            AbundanceMatrix(np.array([[-0.1], [1.1]]), tag="fully_constrained")

    def test_nonnegative_tag_allows_tol(self):
        AbundanceMatrix(np.array([[-1e-10], [0.5]]), tag="nonnegative")
        with pytest.raises(InvalidInput):
            AbundanceMatrix(np.array([[-1e-6], [0.5]]), tag="nonnegative")

    def test_solver_config_validation(self):
        with pytest.raises(InvalidInput):
            SolverConfig(sigma=-1.0)
        with pytest.raises(InvalidInput):
            SolverConfig(rho=0.0)
        with pytest.raises(InvalidInput):
            SolverConfig(lam=-1e-3)
        with pytest.raises(InvalidInput):
            SolverConfig(max_outer_iters=0)
        for name, bad in (
            ("max_inner_iters", 2.5),
            ("max_outer_iters", 1.5),
            ("eps_primal", np.inf),
            ("eps_dual", np.inf),
        ):
            with pytest.raises(InvalidInput, match=name):
                SolverConfig(**{name: bad})
        with pytest.raises(InvalidInput, match="sigma and sigma_auto"):
            SolverConfig(sigma=0.05, sigma_auto=True)
        SolverConfig(max_outer_iters=np.int64(5), max_inner_iters=np.int32(3))

    def test_report_length_and_consistency_checks(self):
        with pytest.raises(InvalidInput):
            SolverReport(2, (0.1,), (0.1, 0.2), (0.0, 0.0), Termination.MAX_ITERS)
        with pytest.raises(InvalidInput):
            SolverReport(2, (0.5, 0.4), (0.1, 0.1), (0.0, 0.0), Termination.PRIMAL_INCREASED)
        SolverReport(2, (0.5, 0.6), (0.1, 0.1), (0.0, 0.0), Termination.PRIMAL_INCREASED)


class TestValidateProblem:
    def test_paper_scale_dimensions(self, rng):
        Y = rng.uniform(size=(244, 2500))
        M = rng.uniform(size=(244, 3))
        h = validate_problem(Y, M)
        assert (h.L, h.T, h.R) == (244, 2500, 3)

    def test_band_count_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            validate_problem(rng.uniform(size=(10, 4)), rng.uniform(size=(9, 2)))

    def test_duplicate_columns_warn(self, rng):
        m = rng.uniform(size=(10, 1))
        M = np.hstack([m, m, rng.uniform(size=(10, 1))])
        with pytest.warns(RankDeficiencyWarning):
            validate_problem(rng.uniform(size=(10, 5)), M)

    def test_pure_function(self, rng):
        Y = rng.uniform(size=(6, 3))
        M = rng.uniform(size=(6, 2))
        h1 = validate_problem(Y, M)
        h2 = validate_problem(Y, M)
        np.testing.assert_array_equal(h1.Y, h2.Y)
        np.testing.assert_array_equal(h1.M, h2.M)
        assert (h1.L, h1.T, h1.R) == (h2.L, h2.T, h2.R)
