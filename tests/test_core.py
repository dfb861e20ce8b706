import warnings

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
    ReducedAbundance,
    SolverConfig,
    SolverReport,
    SyntheticSpec,
    Termination,
    evaluate_metric,
    gen_cube,
    linear_mix,
    objective_C,
    objective_reduced_f1,
    project_nonnegative,
    reconstruct_full,
    reconstruction_ratio,
    reduce_abundances,
    rmse,
    sad,
    soft_threshold,
    sre_db,
    validate_problem,
)
from unmix.fileio import write_matrix

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

    @pytest.mark.parametrize("b", [np.nan, np.inf, "a", True, None, np.array([1.0])])
    def test_rejects_a_threshold_that_is_not_a_finite_real(self, b):
        with pytest.raises(InvalidInput, match="threshold b"):
            soft_threshold(np.array([1.0]), b)

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
            ("max_outer_iters", True),
            ("max_inner_iters", True),
            ("eps_primal", np.inf),
            ("eps_dual", np.inf),
            *(
                (name, bad)
                for name in ("rho", "lam", "eps_primal", "eps_dual")
                for bad in ("1", None, 1 + 0j, np.array([1.0]), np.array(1.0), 10**400)
            ),
        ):
            with pytest.raises(InvalidInput, match=name):
                SolverConfig(**{name: bad})
        with pytest.raises(InvalidInput, match="sigma and sigma_auto"):
            SolverConfig(sigma=0.05, sigma_auto=True)
        # 2 sigma^2 must be a finite normal float: it overflows, underflows to
        # 0 or is subnormal here
        for sigma in (1e170, 1e-200, 1e-155, np.nan, "0.5", 10**400):
            with pytest.raises(InvalidInput, match="sigma"):
                SolverConfig(sigma=sigma)
        SolverConfig(sigma=np.float32(1e-30))
        SolverConfig(max_outer_iters=np.int64(5), max_inner_iters=np.int32(3))

    @pytest.mark.parametrize("name", ["sigma", "rho", "lam", "eps_primal", "eps_dual"])
    @pytest.mark.parametrize("bad", [True, False])
    def test_solver_config_rejects_a_bool_for_a_real(self, name, bad):
        # as _check_int does for the iteration caps: lam=True was lam = 1.0
        with pytest.raises(InvalidInput, match=name):
            SolverConfig(**{name: bad})

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

    def test_wide_raw_endmember_matrix_is_invalid_input(self):
        # EndmemberMatrix rejects R > L before the band counts are compared
        with pytest.raises(InvalidInput):
            validate_problem(np.ones((3, 5)), np.ones((3, 4)))

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


DOMAIN_TYPES = (ObservationMatrix, EndmemberMatrix, AbundanceMatrix, ReducedAbundance)


class TestArrayLike:
    # L=6 bands, R=3 endmembers, T=2 pixels: every matrix is tall, so each
    # domain type can wrap each of them
    @pytest.fixture
    def calls(self, rng, tmp_path):
        """Each matrix-taking function as (name, matrix, call of that matrix)."""
        M = rng.uniform(0.1, 1.0, size=(6, 3))
        X = rng.dirichlet(np.ones(3), size=2).T
        Y = M @ X + 0.01 * rng.standard_normal((6, 2))
        h = validate_problem(Y, M)
        spec = SyntheticSpec(model="lmm", R=3, L=6, T=2, snr_db=30.0, n_corrupt=1, seed=4)

        def written(A):
            write_matrix(tmp_path / "A.txt", A)
            return (tmp_path / "A.txt").read_bytes()

        return [
            ("validate_problem Y", Y, lambda A: validate_problem(A, M).Y),
            ("validate_problem M", M, lambda A: validate_problem(Y, A).M),
            ("linear_mix M", M, lambda A: linear_mix(A, X)),
            ("linear_mix X", X, lambda A: linear_mix(M, A)),
            ("reduce_abundances", X, lambda A: reduce_abundances(A).data),
            ("reconstruct_full", X[:-1], reconstruct_full),
            ("objective_C", X, lambda A: objective_C(h, A, 0.1)),
            ("objective_reduced_f1", X[:-1], lambda A: objective_reduced_f1(h, A, 0.1)),
            ("reconstruction_ratio", X, lambda A: reconstruction_ratio(h, A)),
            ("rmse truth", X, lambda A: rmse(A, X + 0.1)),
            ("rmse estimate", X, lambda A: rmse(X + 0.1, A)),
            ("sre_db", X, lambda A: sre_db(A, X + 0.1)),
            ("sad", Y, lambda A: sad(Y + 0.1, A, exclude_bands=(1,))),
            ("evaluate_metric", Y, lambda A: evaluate_metric("SAD_rad", A, Y + 0.1).value),
            ("write_matrix", Y, written),
            ("gen_cube", M, lambda A: gen_cube(A, spec)[0].data),
        ]

    @pytest.mark.parametrize("wrap", DOMAIN_TYPES, ids=lambda t: t.__name__)
    def test_functions_take_every_domain_type(self, wrap, calls):
        # the same bits from a raw array and from the domain type wrapping it
        differ = []
        for name, A, call in calls:
            expected = np.asarray(call(A))
            try:
                got = np.asarray(call(wrap(A)))
            except TypeError as exc:
                differ.append(f"{name}: {exc}")
                continue
            if got.dtype != expected.dtype or got.tobytes() != expected.tobytes():
                differ.append(f"{name}: {got!r} != {expected!r}")
        assert differ == []

    @pytest.mark.parametrize("wrap", DOMAIN_TYPES, ids=lambda t: t.__name__)
    def test_numpy_reads_the_data(self, wrap):
        m = wrap(np.arange(6.0).reshape(3, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.asarray(m) is m.data
            assert np.asarray(m, dtype=float) is m.data
            copied = np.array(m)
        assert not m.data.flags.writeable
        assert copied is not m.data and copied.flags.writeable
        copied[0, 0] = 7.0
        assert m.data[0, 0] == 0.0
        np.testing.assert_array_equal(copied[1:], m.data[1:])

    @pytest.mark.parametrize("wrap", DOMAIN_TYPES, ids=lambda t: t.__name__)
    def test_array_protocol_without_copy_as_numpy_1_calls_it(self, wrap):
        # numpy 1 passes no copy argument: the data itself, or a cast of it
        m = wrap(np.arange(6.0).reshape(3, 2))
        assert m.__array__() is m.data
        assert m.__array__(float) is m.data
        cast = m.__array__(np.float32)
        assert cast.dtype == np.float32
        np.testing.assert_array_equal(cast, m.data)
