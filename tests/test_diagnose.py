"""Tests for conditional laws, residuals, PIT, and information criteria."""

import tracemalloc

import numpy as np
import pytest
from scipy import stats

from cinar import (
    CinarParams,
    CountGrid,
    ModelOrder,
    NbMarginalInnovation,
    PoissonInnovation,
    SignPattern,
    SimConfig,
    ValidationError,
    build_diagnostics,
    conditional_moments,
    conditional_pmf,
    information_criteria,
    multilateral_conditional_pmf,
    pearson_residuals,
    pit_histogram,
    simulate_cinar,
    tobit_conditional_pmf,
)
from cinar.diagnose import ConditionalPmf, DiagnosticsReport
from cinar.model import lagged_stack

from _diag_oracle import pearson_oracle, pit_oracle


def _poi_params(theta=(0.2, 0.2, 0.35), mu=1.5):
    return CinarParams(ModelOrder(1, 1), np.asarray(theta), PoissonInnovation(mu))


def _nb_params(theta=(0.2, 0.2, 0.35), mu=1.5, i_eps=2.0):
    theta = np.asarray(theta)
    innovation = NbMarginalInnovation.from_targets(mu, i_eps, float(theta.sum()))
    return CinarParams(ModelOrder(1, 1), theta, innovation)


def _convolve_mixture(alpha, phi, past, innovation):
    """Mixture PMF via plain np.convolve, independently of the table kernel."""
    eps = innovation.pmf_table(innovation.quantile(1.0 - 1e-13))
    n_max = int(max(past))
    out = np.zeros(n_max + eps.size)
    for w, n in zip(phi, past):
        bp = stats.binom.pmf(np.arange(n + 1), n, alpha)
        conv = np.convolve(bp, eps)
        out[: conv.size] += w * conv
    return out


# =============================================================================
# Conditional PMF: mixture law of thinned past + innovation
# =============================================================================


class TestConditionalPmf:
    def test_matches_direct_convolution_poisson(self):
        """Table-kernel mixture equals a plain convolution mixture."""
        params = _poi_params()
        past = np.array([3, 0, 5])
        got = conditional_pmf(params, past)
        want = _convolve_mixture(params.alpha, params.phi, past, params.innovation)
        np.testing.assert_allclose(got.probs, want[: got.support_max + 1], atol=1e-13)

    def test_matches_direct_convolution_nb(self):
        """Same agreement under the negative-binomial innovation law."""
        params = _nb_params(mu=1.0, i_eps=2.0)
        past = np.array([2, 4, 1])
        got = conditional_pmf(params, past)
        want = _convolve_mixture(params.alpha, params.phi, past, params.innovation)
        np.testing.assert_allclose(got.probs, want[: got.support_max + 1], atol=1e-13)

    def test_normalized_and_moment_consistent(self):
        """Across random pasts: mass 1 and moments match the closed forms."""
        rng = np.random.default_rng(42)
        params = _nb_params(theta=(0.15, 0.25, 0.3), mu=2.0, i_eps=1.8)
        for _ in range(100):
            past = rng.integers(0, 9, size=3)
            pmf = conditional_pmf(params, past)
            mean, var = conditional_moments(params, past)
            assert abs(pmf.probs.sum() - 1.0) < 1e-10
            assert pmf.mean == pytest.approx(mean, abs=1e-10)
            assert pmf.variance == pytest.approx(var, abs=1e-8)

    def test_all_zero_past_gives_innovation_law(self):
        """Zero neighbours leave only the innovation: PMF equals its table."""
        params = _poi_params(mu=2.5)
        pmf = conditional_pmf(params, np.zeros(3, dtype=int))
        want = params.innovation.pmf_table(pmf.support_max)
        np.testing.assert_allclose(pmf.probs, want, atol=1e-13)

    def test_vanishing_dependence_moments(self):
        """As alpha -> 0 the conditional moments collapse to the innovation's."""
        params = _poi_params(theta=(1e-9, 1e-9, 1e-9), mu=1.5)
        mean, var = conditional_moments(params, np.array([4, 7, 2]))
        assert mean == pytest.approx(1.5, abs=1e-7)
        assert var == pytest.approx(1.5, abs=1e-7)

    def test_single_lag_variance_formula(self):
        """One active lag: var = sigma2_eps + alpha(1-alpha)x (pure thinning)."""
        params = CinarParams(
            ModelOrder(1, 1), np.array([0.4, 0.0, 0.0]), PoissonInnovation(1.0)
        )
        for x in (0, 3, 11):
            mean, var = conditional_moments(params, np.array([x, 9, 9]))
            assert mean == pytest.approx(1.0 + 0.4 * x, abs=1e-12)
            assert var == pytest.approx(1.0 + 0.4 * 0.6 * x, abs=1e-12)

    def test_site_is_carried(self):
        pmf = conditional_pmf(_poi_params(), np.array([1, 1, 1]), site=(4, 7))
        assert pmf.site == (4, 7)

    def test_rejects_bad_past(self):
        params = _poi_params()
        with pytest.raises(ValidationError, match="one value per lag"):
            conditional_pmf(params, np.array([1, 2]))
        with pytest.raises(ValidationError, match="nonnegative integers"):
            conditional_pmf(params, np.array([1, -2, 0]))
        with pytest.raises(ValidationError, match="nonnegative integers"):
            conditional_pmf(params, np.array([1.0, 2.5, 0.0]))


class TestConditionalPmfType:
    def test_validates_mass(self):
        probs = np.array([0.5, 0.4])  # sums to 0.9
        with pytest.raises(ValidationError, match="mass"):
            ConditionalPmf(1, probs, 0.4, 0.3)

    def test_validates_nonnegative(self):
        with pytest.raises(ValidationError, match=">= 0"):
            ConditionalPmf(1, np.array([1.2, -0.2]), 0.0, 0.0)

    def test_validates_moment_consistency(self):
        probs = np.array([0.5, 0.5])
        with pytest.raises(ValidationError, match="inconsistent"):
            ConditionalPmf(1, probs, 0.9, 0.25)

    def test_validates_support_length(self):
        with pytest.raises(ValidationError, match="support_max"):
            ConditionalPmf(3, np.array([0.5, 0.5]), 0.5, 0.25)

    def test_probs_read_only_and_cdf(self):
        pmf = ConditionalPmf.from_probs(np.array([0.25, 0.5, 0.25]))
        with pytest.raises(ValueError):
            pmf.probs[0] = 1.0
        np.testing.assert_allclose(pmf.cdf(), [0.25, 0.75, 1.0])
        assert pmf.mean == pytest.approx(1.0)
        assert pmf.variance == pytest.approx(0.5)


# =============================================================================
# Censored (signed) conditional law
# =============================================================================


def _enum_tobit_pmf(alpha, phi, signs, past, innovation):
    """Exhaustive enumeration over (lag choice, thinning count, innovation)."""
    eps_hi = innovation.quantile(1.0 - 1e-13)
    eps = innovation.pmf_table(eps_hi)
    out = {}
    for j, (w, s, n) in enumerate(zip(phi, signs, past)):
        for z in range(n + 1):
            pz = stats.binom.pmf(z, n, alpha)
            for e in range(eps_hi + 1):
                x = max(s * z + e, 0)
                out[x] = out.get(x, 0.0) + w * pz * eps[e]
    probs = np.zeros(max(out) + 1)
    for x, p in out.items():
        probs[x] = p
    return probs


class TestTobitConditionalPmf:
    def test_exhaustive_enumeration_oracle(self):
        """Signed mixture law equals brute-force enumeration on small pasts."""
        params = _nb_params(theta=(0.2, 0.3, 0.2), mu=1.0, i_eps=1.6)
        signs = SignPattern(params.order, np.array([1, -1, -1]))
        for past in ([2, 1, 3], [0, 4, 2], [1, 0, 0], [0, 0, 0]):
            got = tobit_conditional_pmf(params, signs, np.array(past))
            want = _enum_tobit_pmf(
                params.alpha, params.phi, signs.signs, past, params.innovation
            )
            hi = min(got.support_max, want.size - 1)
            np.testing.assert_allclose(
                got.probs[: hi + 1], want[: hi + 1], atol=1e-10,
                err_msg=f"past={past}",
            )

    def test_all_plus_reduces_to_plain_conditional(self):
        """With every sign +1 the censoring never binds: identical PMFs."""
        params = _poi_params(mu=2.0)
        signs = SignPattern(params.order, np.array([1, 1, 1]))
        past = np.array([4, 2, 6])
        censored = tobit_conditional_pmf(params, signs, past)
        plain = conditional_pmf(params, past)
        hi = min(censored.support_max, plain.support_max)
        np.testing.assert_allclose(
            censored.probs[: hi + 1], plain.probs[: hi + 1], atol=1e-12
        )

    def test_negative_signs_pile_mass_at_zero(self):
        """Flipping a sign to -1 moves conditional mass onto x = 0."""
        params = _poi_params(mu=1.0)
        past = np.array([5, 5, 5])
        plus = SignPattern(params.order, np.array([1, 1, 1]))
        mixed = SignPattern(params.order, np.array([1, -1, -1]))
        p_plus = tobit_conditional_pmf(params, plus, past)
        p_mixed = tobit_conditional_pmf(params, mixed, past)
        assert p_mixed.probs[0] > p_plus.probs[0] + 0.1
        assert p_mixed.mean < p_plus.mean

    def test_order_mismatch_rejected(self):
        params = _poi_params()
        signs = SignPattern(ModelOrder(2, 1), np.array([-1, 1, 1, 1, 1]))
        with pytest.raises(ValidationError, match="order"):
            tobit_conditional_pmf(params, signs, np.array([1, 2, 3]))


# =============================================================================
# Multilateral mixture
# =============================================================================


class TestMultilateralConditionalPmf:
    def test_degenerate_matches_unilateral(self):
        """A one-active-lag multilateral law coincides with the plain conditional."""
        inn = PoissonInnovation(1.2)
        params = CinarParams(ModelOrder(1, 1), np.array([0.45, 0.0, 0.0]), inn)
        for x in (0, 2, 7):
            a = multilateral_conditional_pmf(0.45, [1.0], inn, [x])
            b = conditional_pmf(params, [x, 0, 0])
            hi = min(a.support_max, b.support_max)
            np.testing.assert_allclose(a.probs[: hi + 1], b.probs[: hi + 1], atol=1e-14)

    def test_matches_direct_convolution(self):
        """Four-neighbour mixture equals the hand-built convolution mixture."""
        inn = NbMarginalInnovation.from_targets(1.5, 2.2, 0.5)
        phi = np.array([0.1, 0.2, 0.3, 0.4])
        past = np.array([3, 0, 6, 2])
        got = multilateral_conditional_pmf(0.5, phi, inn, past)
        want = _convolve_mixture(0.5, phi, past, inn)
        np.testing.assert_allclose(got.probs, want[: got.support_max + 1], atol=1e-13)
        assert abs(got.probs.sum() - 1.0) < 1e-10
        mu_eps, _ = inn.moments()
        assert got.mean == pytest.approx(mu_eps + 0.5 * float(phi @ past), abs=1e-9)

    def test_rejects_bad_weights(self):
        inn = PoissonInnovation(1.0)
        with pytest.raises(ValidationError, match="alpha"):
            multilateral_conditional_pmf(1.0, [1.0], inn, [2])
        with pytest.raises(ValidationError, match="sum to 1"):
            multilateral_conditional_pmf(0.5, [0.6, 0.6], inn, [2, 3])
        with pytest.raises(ValidationError, match="sum to 1"):
            multilateral_conditional_pmf(0.5, [1.4, -0.4], inn, [2, 3])


# =============================================================================
# Pearson residuals
# =============================================================================


class TestPearsonResiduals:
    def test_per_site_against_conditional_moments(self):
        """Vectorized residuals equal the site-by-site standardization."""
        params = _nb_params(theta=(0.25, 0.15, 0.3), mu=1.0, i_eps=1.7)
        grid = simulate_cinar(SimConfig(params, n1=9, n2=8, burn_in=30, seed=5))
        res = pearson_residuals(params, grid)
        x, lagged = lagged_stack(grid.values, params.order)
        flat = res.values.reshape(-1)
        for s in range(x.size):
            mean, var = conditional_moments(params, lagged[s])
            assert flat[s] == pytest.approx((x[s] - mean) / np.sqrt(var), abs=1e-12)

    def test_calibrated_under_true_model(self):
        """True-model residuals: mean near 0, variance near 1, no ACF spikes."""
        params = _poi_params(theta=(0.2, 0.2, 0.35), mu=1.5)
        grid = simulate_cinar(SimConfig(params, n1=200, n2=200, burn_in=80, seed=11))
        res = pearson_residuals(params, grid)
        assert abs(res.mean) < 0.05
        assert 0.9 < res.variance < 1.1
        assert res.acf.window == (2, 2)
        assert res.acf.value(0, 0) == 1.0
        for k, l in ((0, 1), (1, 0), (1, 1), (1, -1), (2, 0), (0, 2)):
            assert abs(res.acf.value(k, l)) < 0.05, (k, l)

    def test_shape_tracks_interior(self):
        params = _poi_params()
        grid = simulate_cinar(SimConfig(params, n1=12, n2=9, burn_in=20, seed=3))
        res = pearson_residuals(params, grid)
        assert res.values.shape == (11, 8)

    def test_wrong_mean_shifts_residuals(self):
        """Overstating the innovation mean drives the residual mean negative."""
        params = _poi_params(mu=1.5)
        grid = simulate_cinar(SimConfig(params, n1=120, n2=120, burn_in=60, seed=21))
        wrong = CinarParams(params.order, params.theta, PoissonInnovation(3.0))
        res = pearson_residuals(wrong, grid)
        assert res.mean < -0.5


# =============================================================================
# PIT histogram
# =============================================================================


def _pit_oracle(params, grid, bins):
    """Mean-PIT heights from per-site CDF ratios, built without the kernel."""
    x, lagged = lagged_stack(grid.values, params.order)
    edges = np.linspace(0.0, 1.0, bins + 1)
    heights = np.zeros(bins)
    for s in range(x.size):
        pmf = conditional_pmf(params, lagged[s])
        cdf = pmf.cdf()
        f_hi = float(cdf[x[s]]) if x[s] <= pmf.support_max else 1.0
        f_lo = float(cdf[x[s] - 1]) if 1 <= x[s] <= pmf.support_max else (
            0.0 if x[s] == 0 else 1.0
        )

        def big_f(u):
            return min(1.0, max(0.0, (u - f_lo) / (f_hi - f_lo)))

        for b in range(bins):
            heights[b] += big_f(edges[b + 1]) - big_f(edges[b])
    return bins * heights / x.size


class TestPitHistogram:
    def test_matches_per_site_oracle(self):
        """Vectorized overlap computation equals the site-by-site CDF path."""
        params = _nb_params(theta=(0.2, 0.2, 0.3), mu=1.2, i_eps=1.9)
        grid = simulate_cinar(SimConfig(params, n1=12, n2=12, burn_in=30, seed=9))
        got = pit_histogram(params, grid, bins=10)
        want = _pit_oracle(params, grid, 10)
        np.testing.assert_allclose(got, want, atol=5e-10)

    def test_heights_average_to_one(self):
        """Histogram is on the density scale: mean height is exactly 1."""
        params = _poi_params()
        grid = simulate_cinar(SimConfig(params, n1=40, n2=40, burn_in=40, seed=2))
        for bins in (5, 10, 20):
            heights = pit_histogram(params, grid, bins=bins)
            assert heights.mean() == pytest.approx(1.0, abs=1e-12)
            assert np.all(heights >= 0.0)

    def test_site_whose_cdf_underflows_is_a_point_at_zero(self):
        """F(x-1) = F(x) = 0 gives the site its unit mass in the first cell.

        An outcome 0 below pasts of 800 has F(0) = 0.2**800, which
        underflows to 0.
        """
        values = np.full((6, 6), 800)
        values[3, 3] = 0
        grid = CountGrid(values)
        params = _poi_params(theta=(0.3, 0.4, 0.1), mu=1.0)
        heights = pit_histogram(params, grid, bins=10)
        assert heights.mean() == pytest.approx(1.0, abs=1e-12)
        # one of 25 sites, on a density scale of 10 bins
        assert heights[0] >= 10 / 25
        report = build_diagnostics(params, grid)
        np.testing.assert_array_equal(report.pit_bins, heights)

    def test_near_uniform_under_true_model(self):
        """Calibrated forecasts give an approximately flat histogram."""
        params = _poi_params(theta=(0.2, 0.2, 0.35), mu=1.5)
        grid = simulate_cinar(SimConfig(params, n1=150, n2=150, burn_in=80, seed=31))
        heights = pit_histogram(params, grid, bins=10)
        assert np.max(np.abs(heights - 1.0)) < 0.2

    def test_underdispersed_model_bends_histogram(self):
        """Fitting equidispersed forecasts to NB data bows the PIT upward."""
        nb = _nb_params(theta=(0.2, 0.2, 0.35), mu=1.5, i_eps=3.0)
        grid = simulate_cinar(SimConfig(nb, n1=150, n2=150, burn_in=80, seed=31))
        poi = CinarParams(nb.order, nb.theta, PoissonInnovation(1.5))
        bad = pit_histogram(poi, grid, bins=10)
        good = pit_histogram(nb, grid, bins=10)
        assert np.max(np.abs(bad - 1.0)) > 2.0 * np.max(np.abs(good - 1.0))
        assert np.max(np.abs(bad - 1.0)) > 0.2

    def test_rejects_bad_bins(self):
        params = _poi_params()
        grid = simulate_cinar(SimConfig(params, n1=8, n2=8, burn_in=10, seed=0))
        with pytest.raises(ValidationError, match="bins"):
            pit_histogram(params, grid, bins=1)


def _grid_with_outlier(params, seed):
    """A seeded 200x200 grid with one count of 150, far in the tail.

    At that site F(x-1) and F(x) both round to 1.
    """
    grid = simulate_cinar(SimConfig(params, n1=200, n2=200, burn_in=50, seed=seed))
    values = grid.values.copy()
    values[120, 80] = 150
    return CountGrid(values)


_ORACLE_CASES = {
    "poisson-11": (_poi_params(), 41),
    "nb-11": (_nb_params(theta=(0.25, 0.15, 0.3), mu=1.0, i_eps=2.5), 42),
    "poisson-21": (CinarParams(ModelOrder(2, 1), np.array([0.1, 0.2, 0.05, 0.15, 0.1]),
                               PoissonInnovation(2.0)), 43),
}


@pytest.fixture(scope="module", params=sorted(_ORACLE_CASES))
def oracle_case(request):
    params, seed = _ORACLE_CASES[request.param]
    return params, _grid_with_outlier(params, seed)


class TestGridDiagnosticsAgainstLaggedStack:
    """The lag-view diagnostics equal the lagged_stack formulas on 200x200."""

    def test_pit_matches_sites_by_bins_formula(self, oracle_case):
        params, grid = oracle_case
        assert np.count_nonzero(grid.values[1:, 1:] == 0) > 50
        for bins in (10, 7):
            want, collapsed = pit_oracle(params, grid, bins)
            assert collapsed >= 1
            np.testing.assert_allclose(pit_histogram(params, grid, bins), want,
                                       rtol=1e-12)

    def test_pearson_matches_lagged_stack_formula(self, oracle_case):
        """rtol 1e-12; atol 1e-13 covers residuals that round to about 0."""
        params, grid = oracle_case
        res = pearson_residuals(params, grid)
        want = pearson_oracle(params, grid)
        assert res.values.shape == want.shape
        np.testing.assert_allclose(res.values, want, rtol=1e-12, atol=1e-13)
        assert res.mean == pytest.approx(want.mean(), rel=1e-12, abs=1e-13)
        assert res.variance == pytest.approx(want.var(ddof=1), rel=1e-12)

    def test_pit_memory_stays_below_one_sites_by_bins_array(self):
        """Peak traced memory on 300x300 is under one float (sites x bins) array."""
        params = _poi_params()
        grid = simulate_cinar(SimConfig(params, n1=300, n2=300, burn_in=50, seed=4))
        bins = 10
        pit_histogram(params, grid, bins)  # the innovation's CDF cache is built
        tracemalloc.start()
        try:
            pit_histogram(params, grid, bins)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 299 * 299 * bins * 8


# =============================================================================
# Information criteria and the assembled report
# =============================================================================


class TestInformationCriteria:
    def test_hand_computed_values(self):
        """Frozen arithmetic: loglik -120 on 81 of 100 sites, 4 parameters."""
        aic, bic = information_criteria(-120.0, 4, 10, 10, 81)
        scaled = 100.0 / 81.0 * -120.0
        assert aic == pytest.approx(-2.0 * scaled + 8.0, rel=1e-14)
        assert bic == pytest.approx(-2.0 * scaled + np.log(100.0) * 4, rel=1e-14)
        assert aic == pytest.approx(304.2962962962963, abs=1e-10)
        assert bic == pytest.approx(314.71697704024866, abs=1e-10)

    def test_full_grid_reduces_to_plain_criteria(self):
        aic, bic = information_criteria(-50.0, 2, 5, 4, 20)
        assert aic == pytest.approx(104.0)
        assert bic == pytest.approx(100.0 + np.log(20.0) * 2)

    def test_bic_penalizes_harder_on_large_grids(self):
        aic, bic = information_criteria(-500.0, 4, 100, 100, 9801)
        assert bic > aic

    def test_rejects_empty_site_count(self):
        with pytest.raises(ValidationError, match="n_ell"):
            information_criteria(-10.0, 2, 5, 5, 0)


class TestBuildDiagnostics:
    def test_assembles_report(self):
        params = _poi_params()
        grid = simulate_cinar(SimConfig(params, n1=60, n2=60, burn_in=40, seed=13))
        report = build_diagnostics(params, grid, loglik_max=-5000.0, n_params=4)
        assert np.isfinite(report.aic) and np.isfinite(report.bic)
        assert report.bic > report.aic
        assert report.pit_bins.size == 10
        assert report.pit_bins.mean() == pytest.approx(1.0, abs=1e-12)
        assert report.residual_acf.value(0, 0) == 1.0
        assert abs(report.residual_mean) < 0.2

    def test_without_loglik_reports_nan_criteria(self):
        params = _poi_params()
        grid = simulate_cinar(SimConfig(params, n1=20, n2=20, burn_in=20, seed=13))
        report = build_diagnostics(params, grid)
        assert np.isnan(report.aic) and np.isnan(report.bic)

    def test_report_rejects_bad_pit(self):
        table = pytest.importorskip("cinar.acf").theoretical_acf(
            _poi_params(), (2, 2)
        )
        with pytest.raises(ValidationError, match="average"):
            DiagnosticsReport(0.0, 1.0, table, np.array([0.5, 0.6]), 1.0, 2.0)
