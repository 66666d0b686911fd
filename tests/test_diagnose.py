"""Tests for conditional laws, residuals, PIT, and information criteria."""

import re
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
    conditional_pmf,
    information_criteria,
    pearson_residuals,
    pit_histogram,
    simulate_cinar,
    tobit_conditional_pmf,
)
from cinar import _kernels
from cinar._kernels import SiteTuples
from cinar.diagnose import ConditionalPmf, DiagnosticsReport, conditional_moments
from cinar.estimate import _CmlLikelihood
from cinar.model import lag_views

from _diag_oracle import pearson_oracle, pit_oracle
from _stats_helpers import lagged_stack


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

    def test_rejects_bad_past(self):
        params = _poi_params()
        with pytest.raises(ValidationError, match="one value per lag"):
            conditional_pmf(params, np.array([1, 2]))
        with pytest.raises(ValidationError, match="nonnegative integers"):
            conditional_pmf(params, np.array([1, -2, 0]))
        with pytest.raises(ValidationError, match="nonnegative integers"):
            conditional_pmf(params, np.array([1.0, 2.5, 0.0]))

    def test_refusal_names_the_past_count_and_the_support(self):
        """A past of 4090 needs a table of 4091 rows and columns up to the
        truncated support's end, 4105: refused naming both, the count
        given and the end."""
        params = CinarParams(ModelOrder(1, 1), np.array([0.2, 0.2, 0.1]),
                             PoissonInnovation(1.0))
        with pytest.raises(ValidationError, match=(
                r"^count 4090 is too large: its probability table up to the"
                r" support's end 4105 would exceed 16777216 cells$")):
            conditional_pmf(params, [4090, 1, 1])


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
        np.testing.assert_allclose(np.cumsum(pmf.probs), [0.25, 0.75, 1.0])
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
# Pearson residuals
# =============================================================================


class TestPearsonResiduals:
    def test_constant_residual_field_is_refused(self):
        """An all-zero grid gives every site the same residual, whose sample
        ACF is undefined: refused naming the residuals, not the grid."""
        with pytest.raises(ValidationError, match=(
                r"^Pearson residuals are all equal \(-1\.22474\) on this 20x30"
                r" grid, so their sample ACF is undefined$")):
            pearson_residuals(_poi_params(), CountGrid(np.zeros((20, 30), dtype=int)))

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

    @pytest.mark.parametrize("shape", [(2, 2), (2, 10), (10, 2), (3, 3)],
                             ids=["2x2", "2x10", "10x2", "3x3"])
    def test_interior_below_3x3_refused_by_shape(self, shape):
        """The (2, 2) residual ACF needs a 3x3 interior: a smaller one is
        refused up front, naming the grid's shape and the order, with no
        numpy warning (tier-1 turns RuntimeWarnings into errors)."""
        grid = CountGrid(np.arange(1, shape[0] * shape[1] + 1).reshape(shape))
        n1, n2 = shape
        with pytest.raises(ValidationError, match=(
                rf"interior of at least 3x3 sites .* a {n1}x{n2} grid at order"
                rf" \(1,1\) has {n1 - 1}x{n2 - 1}$")):
            pearson_residuals(_poi_params(), grid)

    def test_3x3_interior_accepted(self):
        grid = CountGrid(np.arange(1, 17).reshape(4, 4) % 5)
        assert pearson_residuals(_poi_params(), grid).values.shape == (3, 3)


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
        cdf = np.cumsum(pmf.probs)
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

    @pytest.mark.parametrize("bins", [2.5, True, np.True_, "10", float("nan"),
                                      float("inf")])
    def test_rejects_bins_that_are_not_integers(self, bins):
        """int() would take 2.5 as 2 bins and True as 1; each is refused
        with the value given."""
        params = _poi_params()
        grid = simulate_cinar(SimConfig(params, n1=8, n2=8, burn_in=10, seed=0))
        with pytest.raises(ValidationError,
                           match=f"bins must be an integer, got {re.escape(repr(bins))}$"):
            pit_histogram(params, grid, bins=bins)

    def test_integral_bins_of_any_number_type(self):
        params = _poi_params()
        grid = simulate_cinar(SimConfig(params, n1=8, n2=8, burn_in=10, seed=0))
        want = pit_histogram(params, grid, bins=4)
        for bins in (4.0, np.int64(4), np.float64(4.0)):
            np.testing.assert_array_equal(pit_histogram(params, grid, bins=bins), want)


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


def _plain_grid(params, seed):
    return simulate_cinar(SimConfig(params, n1=200, n2=200, burn_in=50, seed=seed))


# Grids of small counts: their (x, past) key space is at most 4 keys per site
_TUPLE_CASES = {
    "poisson-11": (_poi_params(theta=(0.2, 0.2, 0.3), mu=1.0), _plain_grid, 41),
    "nb-11": (_nb_params(theta=(0.2, 0.2, 0.2), mu=1.0, i_eps=2.0), _plain_grid, 41),
    "poisson-21": (CinarParams(ModelOrder(2, 1), np.array([0.05, 0.1, 0.05, 0.05, 0.05]),
                               PoissonInnovation(0.5)), _plain_grid, 43),
    "all-zero": (_poi_params(), lambda params, seed: CountGrid(np.zeros((20, 30), int)), 0),
}


@pytest.fixture(scope="module", params=sorted(_TUPLE_CASES))
def tuple_case(request):
    params, make_grid, seed = _TUPLE_CASES[request.param]
    return params, make_grid(params, seed)


def _tuple_counts(params, grid):
    """Number of interior sites, and of the (x, past) tuples the PIT and
    the Pearson residuals reduce over."""
    sites = SiteTuples(grid.values, params.order)
    return sites.n_sites, sites.size


def _check_pit(params, grid):
    for bins in (10, 7):
        want, collapsed = pit_oracle(params, grid, bins)
        np.testing.assert_allclose(pit_histogram(params, grid, bins), want,
                                   rtol=1e-12)
    return collapsed


def _check_pearson(params, grid):
    """rtol 1e-12; atol 1e-13 covers residuals that round to about 0."""
    res = pearson_residuals(params, grid)
    want = pearson_oracle(params, grid)
    assert res.values.shape == want.shape
    np.testing.assert_allclose(res.values, want, rtol=1e-12, atol=1e-13)
    assert res.mean == pytest.approx(want.mean(), rel=1e-12, abs=1e-13)
    assert res.variance == pytest.approx(want.var(ddof=1), rel=1e-12)


class TestGridDiagnosticsAgainstLaggedStack:
    """The lag-view diagnostics equal the lagged_stack formulas on 200x200,
    site by site where one count of 150 spreads the key space (outlier
    grids), and on distinct tuples where the counts are small."""

    def test_outlier_grids_are_read_site_by_site(self, oracle_case):
        n_sites, tuples = _tuple_counts(*oracle_case)
        assert tuples == n_sites

    def test_small_count_grids_are_read_as_tuples(self, tuple_case):
        params, grid = tuple_case
        n_sites, tuples = _tuple_counts(params, grid)
        assert tuples < n_sites / 2
        if not grid.values.any():
            assert tuples == 1

    def test_pit_matches_sites_by_bins_formula(self, oracle_case):
        params, grid = oracle_case
        assert np.count_nonzero(grid.values[1:, 1:] == 0) > 50
        assert _check_pit(params, grid) >= 1

    def test_pit_on_tuples_matches_sites_by_bins_formula(self, tuple_case):
        _check_pit(*tuple_case)

    def test_pearson_matches_lagged_stack_formula(self, oracle_case):
        _check_pearson(*oracle_case)

    def test_pit_in_small_blocks_matches_sites_by_bins_formula(self, oracle_case,
                                                                monkeypatch):
        """Blocks of 37 sites cut the grid into 199 blocks of one row; only
        the order of the cell sums changes."""
        monkeypatch.setattr(_kernels, "_BLOCK", 37)
        _check_pit(*oracle_case)

    def test_pit_on_tuples_in_small_blocks_matches_sites_by_bins_formula(
            self, tuple_case, monkeypatch):
        monkeypatch.setattr(_kernels, "_BLOCK", 37)
        _check_pit(*tuple_case)

    def test_pearson_in_small_blocks_is_bit_identical(self, oracle_case, monkeypatch):
        """Residuals, mean, variance and ACF in blocks of 37 sites (one row)
        and of 400 (two rows) equal those of one block bit for bit.  (The
        oracle sums w1 and w2 by matmul, so it agrees to rounding only.)"""
        params, grid = oracle_case
        want = pearson_residuals(params, grid)
        for block in (37, 400):
            monkeypatch.setattr(_kernels, "_BLOCK", block)
            got = pearson_residuals(params, grid)
            assert np.array_equal(got.values, want.values)
            assert (got.mean, got.variance) == (want.mean, want.variance)
            assert np.array_equal(got.acf.values, want.acf.values)
            _check_pearson(params, grid)

    def test_pearson_on_tuples_matches_lagged_stack_formula(self, tuple_case):
        params, grid = tuple_case
        if grid.values.any():
            _check_pearson(params, grid)
        else:
            # equal residuals have no sample ACF
            with pytest.raises(ValidationError, match="sample ACF is undefined"):
                pearson_residuals(params, grid)

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

    def test_pit_holds_one_cdf_table(self):
        """One count of 1,000 on a 12x12 Poisson grid: the PIT thins the
        zero-prefixed running sum, so it peaks at one (1001, 1002) table,
        not a thinned table and its zero-padded copy (2.00 tables)."""
        params = _poi_params()
        values = np.random.default_rng(0).poisson(1.5, (12, 12))
        values[6, 6] = 1000
        grid = CountGrid(values)
        pit_histogram(params, grid)  # the innovation's CDF cache is built
        tracemalloc.start()
        try:
            pit_histogram(params, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 1001 * 1001 * 8, peak / (1001 * 1001 * 8)

    def test_pit_memory_on_site_tuples_stays_below_one_and_a_half_site_vectors(self):
        """On a 700x700 grid whose tuples are its sites (i.i.d. counts about
        50 spread the key space), the PIT holds a few blocks of tuple
        vectors and its table: measured 0.72 float site vectors (5.27 in
        one block)."""
        params = _poi_params()
        grid = CountGrid(np.random.default_rng(1).poisson(50.0, (700, 700)))
        sites = SiteTuples(grid.values, params.order)
        assert sites.size == sites.n_sites == 699 * 699
        pit_histogram(params, grid)  # the innovation's CDF cache is built
        tracemalloc.start()
        try:
            pit_histogram(params, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 699 * 699 * 8, peak / (699 * 699 * 8)

    @pytest.mark.parametrize("params", [_poi_params(), _nb_params()],
                             ids=["poisson", "nb"])
    def test_pearson_memory_stays_below_its_output_and_0_73_site_vectors(self, params):
        """On 600x600, the moments are taken in blocks into the output, and
        the variance and the residual ACF centre it a block of rows at a
        time, so the peak is the output and a few blocks (measured 0.569
        float site vectors beside the output; a whole centred copy for the
        variance and the ACF took 1.003, the moments over every site at
        once 2.02)."""
        grid = simulate_cinar(SimConfig(params, n1=600, n2=600, burn_in=50, seed=4))
        pearson_residuals(params, grid)
        tracemalloc.start()
        try:
            pearson_residuals(params, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.73 * 599 * 599 * 8, peak / (599 * 599 * 8)

    def test_each_table_is_sized_where_it_is_built(self):
        """A count of 4095 puts n_max = x_max = 4095: the PIT's zero-prefixed
        CDF table would be 4096 x 4097 cells, one column past the cap, and is
        refused naming the count before it is allocated.  The likelihood's
        4096 x 4096 table C is at the cap and is admitted, and the Pearson
        residuals build no table."""
        values = np.ones((5, 5), dtype=np.int64)
        values[2, 2] = 4095
        grid, params = CountGrid(values), _poi_params()
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=(
                    r"^count 4095 is too large: its probability table would"
                    r" exceed 16777216 cells$")):
                pit_histogram(params, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        assert _CmlLikelihood(values, params.order).x_max == 4095
        assert np.isfinite(pearson_residuals(params, grid).values).all()

    def test_pearson_residuals_of_a_count_too_large_for_any_table(self):
        """A count of 1e12, refused by every table (its thinning table would
        take 1e24 cells), still has closed-form conditional moments."""
        values = np.ones((5, 5), dtype=np.int64)
        values[2, 2] = 10**12
        params = CinarParams(ModelOrder(1, 1), np.array([0.2, 0.2, 0.1]),
                             PoissonInnovation(1.0))
        res = pearson_residuals(params, CountGrid(values))
        assert res.values.shape == (4, 4)
        assert np.isfinite(res.values).all()
        assert res.values[1, 1] == res.values.max() > 1e11


def _bincount_tuples(values, order):
    """The distinct (x, past) tuples in key order and their counts, by one
    ``bincount`` over the whole key space of ``ravel_multi_index``."""
    x, pasts = lag_views(values, order)
    columns = [column.ravel() for column in (x, *pasts)]
    radices = [int(column.max()) + 1 for column in columns]
    table = np.bincount(np.ravel_multi_index(columns, radices))
    keys = np.flatnonzero(table)
    return np.unravel_index(keys, radices), table[keys]


def _keyed_grid(order, radix, shape, seed):
    """A grid of i.i.d. counts below ``radix - 1`` with one ``radix - 1`` in
    its middle, so that every column of its tuples has the radix ``radix``."""
    values = np.random.default_rng(seed).integers(0, radix - 1, shape)
    values[shape[0] // 2, shape[1] // 2] = radix - 1
    return values


class TestSiteTuples:
    # (order, radix, shape): key spaces of 0.5, 1, 2, 3.1 and 4 keys per site
    # at order (1,1), and of 2 at order (2,1)
    _KEYED = {
        "0.5-keys": (ModelOrder(1, 1), 10, (142, 142)),
        "1-key": (ModelOrder(1, 1), 10, (101, 101)),
        "2-keys": (ModelOrder(1, 1), 10, (51, 101)),
        "3-keys": (ModelOrder(1, 1), 10, (35, 96)),
        "4-keys": (ModelOrder(1, 1), 10, (51, 51)),
        "2-keys-21": (ModelOrder(2, 1), 4, (34, 65)),
    }

    @pytest.mark.parametrize("case", sorted(_KEYED))
    def test_sorted_keys_give_the_bincount_tuples(self, case):
        """The keys are sorted in place, not counted by ``bincount``, at any
        number of keys per site; x, every past and the counts are the same
        arrays, in the same order, as one ``bincount`` over the key space
        gives."""
        order, radix, shape = self._KEYED[case]
        for seed in range(3):
            values = _keyed_grid(order, radix, shape, seed)
            sites = SiteTuples(values, order)
            keys_per_site = radix ** (order.n_lags + 1) / sites.n_sites
            assert keys_per_site == pytest.approx(float(case.split("-")[0]), rel=0.05)
            (x, *pasts), counts = _bincount_tuples(values, order)
            for got, want in zip((sites.x, *sites.pasts, sites.counts),
                                 (x, *pasts, counts)):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
            assert sites.size == counts.size < sites.n_sites == counts.sum()

    @pytest.mark.parametrize("case", ["0.5-keys", "2-keys", "2-keys-21"])
    def test_wide_keys_give_the_same_tuples(self, case, monkeypatch):
        """Keys are uint32 where the key space fits in ``_KEYS_32``, else
        intp; with that limit below the key space, the intp keys give the
        same tuples and counts, of the same dtypes."""
        order, radix, shape = self._KEYED[case]
        values = _keyed_grid(order, radix, shape, 0)
        want = SiteTuples(values, order)
        monkeypatch.setattr(_kernels, "_KEYS_32", radix ** (order.n_lags + 1) - 1)
        got = SiteTuples(values, order)
        for a, b in zip((got.x, *got.pasts, got.counts), (want.x, *want.pasts, want.counts)):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    def test_memory_at_two_keys_per_site(self):
        """On a 300x300 grid of 2.18 keys per site, building the tuples holds
        the uint32 key vector and a bool mask: measured 0.775 int64 per site
        (int64 keys took 1.14, a ``bincount`` table beside them 3.36)."""
        values = np.minimum(np.random.default_rng(2).poisson(1.0, (300, 300)), 19)
        values[150, 150] = 20
        SiteTuples(values, ModelOrder(1, 1))
        tracemalloc.start()
        try:
            sites = SiteTuples(values, ModelOrder(1, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 21 ** 4 / sites.n_sites == pytest.approx(2.18, abs=0.01)
        assert peak < 0.86 * 299 * 299 * 8, peak / (299 * 299 * 8)


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

    @pytest.mark.parametrize("counts, name, value", [
        ((2.5, 10, 10, 81), "n_params", 2.5), ((2, 10.5, 10, 81), "n1", 10.5),
        ((2, 10, True, 81), "n2", True), ((2, 10, 10, 81.7), "n_ell", 81.7)])
    def test_counts_are_checked_not_truncated(self, counts, name, value):
        """int() would take (2.5, 10, 10, 81.7) as (2, 10, 10, 81); refused
        instead."""
        with pytest.raises(ValidationError, match=(
                f"^{re.escape(name)} must be an integer, got {value!r}$")):
            information_criteria(-100.0, *counts)

    def test_integral_counts_of_any_number_type(self):
        assert (information_criteria(-100.0, 2.0, np.int64(10), 10.0, np.int32(81))
                == information_criteria(-100.0, 2, 10, 10, 81))


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
