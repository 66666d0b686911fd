"""Core types: lag sets, parameter validation, reparametrization, moments."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cinar import (
    CinarParams,
    CountGrid,
    ModelOrder,
    PoissonInnovation,
    NbMarginalInnovation,
    SignPattern,
    ValidationError,
    stationary_moments,
    validate_params,
)
from cinar.model import lag_views

from _stats_helpers import lagged_stack


def _poi_params(theta, mu=1.0, order=None):
    theta = np.asarray(theta, dtype=float)
    if order is None:
        order = ModelOrder(1, 1)
    return CinarParams(order=order, theta=theta, innovation=PoissonInnovation(mu))


# =============================================================================
# Lag set and order
# =============================================================================


class TestModelOrder:
    def test_lag_set_order_11(self):
        """Order (1,1) lag set is exactly [(0,1),(1,0),(1,1)] in that order."""
        assert ModelOrder(1, 1).lags == ((0, 1), (1, 0), (1, 1))

    def test_lag_set_order_22(self):
        """Order (2,2) enumerates i ascending then j ascending, (0,0) dropped."""
        expected = ((0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2))
        assert ModelOrder(2, 2).lags == expected

    def test_lag_set_cardinality(self):
        """|S| = (p1+1)(p2+1) - 1 for a sweep of orders."""
        for p1 in range(1, 5):
            for p2 in range(1, 5):
                lags = ModelOrder(p1, p2).lags
                assert len(lags) == ModelOrder(p1, p2).n_lags == (p1 + 1) * (p2 + 1) - 1

    def test_theta_names(self):
        assert ModelOrder(1, 1).theta_names() == ("theta_01", "theta_10", "theta_11")

    def test_invalid_order_rejected(self):
        with pytest.raises(ValidationError):
            ModelOrder(0, 1)
        with pytest.raises(ValidationError):
            ModelOrder(1, -2)

    @pytest.mark.parametrize("p1", [True, 1.5, "2"])
    def test_non_integer_order_rejected(self, p1):
        """A bool or a string is refused like 1.5, naming the value."""
        with pytest.raises(ValidationError,
                           match=f"^model order p1 must be an integer, got {p1!r}$"):
            ModelOrder(p1, 1)

    def test_integral_order_stored_as_int(self):
        order = ModelOrder(2.0, np.int64(1))
        assert (order.p1, order.p2) == (2, 1)
        assert type(order.p1) is int and type(order.p2) is int


# =============================================================================
# Validation
# =============================================================================


class TestValidateParams:
    def test_benchmark_weak_dependence_ok(self):
        """theta=(0.1,0.1,0.1) with Poisson(1) innovations is admissible."""
        verdict = validate_params(_poi_params([0.1, 0.1, 0.1]))
        assert verdict.ok
        assert verdict.violations == ()

    def test_sum_at_least_one_rejected(self):
        verdict = validate_params(_poi_params([0.5, 0.5, 0.1]))
        assert not verdict.ok
        assert any("< 1" in v for v in verdict.violations)

    def test_negative_coefficient_rejected(self):
        verdict = validate_params(_poi_params([-0.1, 0.2, 0.2]))
        assert not verdict.ok
        assert any("negative" in v for v in verdict.violations)

    def test_all_zero_rejected(self):
        verdict = validate_params(_poi_params([0.0, 0.0, 0.0]))
        assert not verdict.ok

    def test_mismatched_innovation_alpha_flagged(self):
        """NB innovation built for one alpha, theta implying another -> violation."""
        inn = NbMarginalInnovation.from_targets(1.0, 2.0, alpha=0.3)
        params = CinarParams(ModelOrder(1, 1), np.array([0.3, 0.3, 0.3]), inn)
        verdict = validate_params(params)
        assert not verdict.ok

    def test_verdict_is_truthy(self):
        assert bool(validate_params(_poi_params([0.1, 0.1, 0.1])))
        assert not bool(validate_params(_poi_params([0.6, 0.6, 0.1])))


# =============================================================================
# Reparametrization
# =============================================================================


class TestReparametrization:
    """theta = alpha * phi, split by CinarParams.alpha and CinarParams.phi."""

    def test_known_split_09(self):
        params = _poi_params([0.2, 0.2, 0.5])
        assert params.alpha == pytest.approx(0.9, abs=1e-15)
        assert params.phi == pytest.approx([2 / 9, 2 / 9, 5 / 9], abs=1e-15)

    def test_known_split_08(self):
        params = _poi_params([0.3, 0.4, 0.1])
        assert params.alpha == pytest.approx(0.8, abs=1e-15)
        assert params.phi == pytest.approx([0.375, 0.5, 0.125], abs=1e-15)

    def test_degenerate_zero_errors(self):
        with pytest.raises(ValidationError):
            _poi_params([0.0, 0.0, 0.0]).phi

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=8, max_size=8),
        st.floats(0.01, 0.99),
    )
    def test_round_trip(self, p, raw, alpha):
        """theta -> (alpha, phi) -> theta round-trips within 1e-12."""
        order = ModelOrder(*p)
        raw = np.asarray(raw[: order.n_lags]) + 1e-6
        theta = alpha * raw / raw.sum()
        params = _poi_params(theta, order=order)
        assert abs(params.phi.sum() - 1.0) < 1e-12
        assert np.max(np.abs(params.alpha * params.phi - theta)) < 1e-12


# =============================================================================
# Stationary moments
# =============================================================================


class TestStationaryMoments:
    def test_poisson_equidispersed(self):
        """Poisson innovations, alpha=0.3: mu_X = 1/0.7 and variance equals it."""
        mu_x, s2_x = stationary_moments(_poi_params([0.1, 0.1, 0.1]))
        assert mu_x == pytest.approx(1 / 0.7, rel=1e-12)
        assert s2_x == pytest.approx(1.3 / 0.91, rel=1e-12)
        assert s2_x == pytest.approx(mu_x, rel=1e-12)

    def test_near_independence_limit(self):
        """alpha ~ 0 returns the innovation moments themselves."""
        mu_x, s2_x = stationary_moments(_poi_params([1e-12, 1e-12, 1e-12], mu=2.5))
        assert mu_x == pytest.approx(2.5, rel=1e-9)
        assert s2_x == pytest.approx(2.5, rel=1e-9)

    def test_overdispersed_strong_dependence(self):
        """mu_eps=1, dispersion 2, alpha=0.9: mean 10, variance 2.9/0.19."""
        inn = NbMarginalInnovation.from_targets(1.0, 2.0, alpha=0.9)
        params = CinarParams(ModelOrder(1, 1), np.array([0.2, 0.2, 0.5]), inn)
        mu_x, s2_x = stationary_moments(params)
        assert mu_x == pytest.approx(10.0, abs=1e-8)
        assert s2_x == pytest.approx(2.9 / 0.19, abs=1e-8)  # = 15.26315789...

    def test_invalid_params_raise(self):
        with pytest.raises(ValidationError):
            stationary_moments(_poi_params([0.6, 0.6, 0.1]))

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.02, 0.95),
        st.floats(0.1, 20.0),
        st.floats(0.2, 5.0),
    )
    def test_dispersion_identity_and_transfer(self, alpha, mu_eps, ratio):
        """sigma2_X/mu_X = (alpha + I_eps)/(1 + alpha); dispersion sign transfers."""

        class _FakeInn:
            def __init__(self, mean, var):
                self._m, self._v = mean, var

            def moments(self):
                return self._m, self._v

        sigma2_eps = ratio * mu_eps
        params = CinarParams(
            ModelOrder(1, 1),
            alpha * np.array([0.25, 0.5, 0.25]),
            _FakeInn(mu_eps, sigma2_eps),
        )
        mu_x, s2_x = stationary_moments(params)
        assert s2_x / mu_x == pytest.approx((alpha + ratio) / (1 + alpha), rel=1e-12)
        # over/equi/under-dispersion carries over from innovations to the field
        # (sign is ill-defined at the equidispersed boundary, so keep away from it)
        assume(abs(ratio - 1.0) > 1e-6)
        assert np.sign(s2_x - mu_x) == np.sign(sigma2_eps - mu_eps)


# =============================================================================
# Grids, signs, lagged views
# =============================================================================


class TestCountGrid:
    def test_accepts_integral_floats(self):
        grid = CountGrid(np.array([[1.0, 2.0], [0.0, 3.0]]))
        assert grid.values.dtype == np.int64
        assert grid.n1 == 2 and grid.n2 == 2

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            CountGrid(np.array([[1, -1], [0, 2]]))

    def test_rejects_fractional(self):
        with pytest.raises(ValidationError):
            CountGrid(np.array([[1.5, 0.0], [0.0, 2.0]]))

    def test_values_read_only(self):
        grid = CountGrid(np.array([[1, 2], [3, 4]]))
        with pytest.raises(ValueError):
            grid.values[0, 0] = 9


class TestSignPattern:
    def test_valid_pattern(self):
        sp = SignPattern(ModelOrder(1, 1), [1, 1, -1])
        assert sp.signs.tolist() == [1, 1, -1]

    def test_rejects_other_values(self):
        with pytest.raises(ValidationError):
            SignPattern(ModelOrder(1, 1), [1, 0, -1])


class TestLaggedStack:
    def test_hand_example_order_11(self):
        """3x3 grid, order (1,1): interior is the bottom-right 2x2 block."""
        v = np.array([[1, 2, 0], [0, 1, 3], [2, 2, 1]])
        x, lagged = lagged_stack(v, ModelOrder(1, 1))
        assert x.tolist() == [1, 3, 2, 1]
        # lag (0,1): left neighbours; (1,0): upper; (1,1): upper-left
        assert lagged[:, 0].tolist() == [0, 1, 2, 2]
        assert lagged[:, 1].tolist() == [2, 0, 1, 3]
        assert lagged[:, 2].tolist() == [1, 2, 0, 1]

    def test_too_small_grid_raises(self):
        with pytest.raises(ValidationError):
            lag_views(np.ones((2, 2), dtype=int), ModelOrder(2, 2))
