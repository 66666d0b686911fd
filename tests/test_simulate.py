"""Simulator behaviour: determinism, margins, marginal laws, censoring."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    simulate_cinar,
    simulate_tobit_cinar,
    stationary_moments,
)

from cinar._kernels import thinning_convolution_table

from _sim_oracle import simulate_oracle
from _stats_helpers import chisq_gof


class _Tabulated:
    """Innovations with a finite PMF on {0, ..., K}, a duck-typed law that
    the simulator samples by inverse CDF."""

    def __init__(self, probs):
        self.probs = np.asarray(probs, dtype=float)

    def moments(self):
        k = np.arange(self.probs.size)
        mean = float(self.probs @ k)
        return mean, float(self.probs @ k**2) - mean**2

    def sample(self, rng, size=None):
        """Inverse-CDF draws, one uniform each."""
        out = np.searchsorted(np.cumsum(self.probs), rng.random(size))
        return out if size is not None else int(out)


def _weak_params():
    return CinarParams(
        ModelOrder(1, 1), np.array([0.1, 0.1, 0.1]), PoissonInnovation(1.0)
    )


def _strong_params():
    return CinarParams(
        ModelOrder(1, 1), np.array([0.2, 0.2, 0.5]), PoissonInnovation(1.0)
    )


@pytest.fixture(scope="module")
def weak_grid():
    return simulate_cinar(SimConfig(_weak_params(), 500, 500, seed=20250819))


@pytest.fixture(scope="module")
def strong_grid():
    return simulate_cinar(SimConfig(_strong_params(), 500, 500, seed=7))


@pytest.fixture(scope="module")
def nb_grid():
    inn = NbMarginalInnovation.from_targets(1.0, 2.0, 0.9)
    par = CinarParams(ModelOrder(1, 1), np.array([0.2, 0.2, 0.5]), inn)
    return par, simulate_cinar(SimConfig(par, 500, 500, seed=7))


# =============================================================================
# Binomial thinning
# =============================================================================


def _binomial_rows(n_max, alpha):
    """rows[n, z] = P(Binomial(n, alpha) = z): the unit row thinned."""
    return thinning_convolution_table(alpha, np.eye(1, n_max + 1)[0], n_max)


class TestBinomialThin:
    """The law of alpha o n, tabulated for likelihoods and diagnostics."""

    def test_alpha_zero_is_zero(self):
        """Thinning with alpha = 0 is the constant 0."""
        rows = _binomial_rows(500, 0.0)
        np.testing.assert_allclose(rows[:, 0], 1.0, rtol=1e-11)
        assert np.all(rows[:, 1:] == 0.0)

    def test_alpha_one_is_identity(self):
        rows = _binomial_rows(500, 1.0)
        np.testing.assert_allclose(np.diag(rows), 1.0, rtol=1e-11)
        assert np.all(rows[~np.eye(501, dtype=bool)] == 0.0)

    def test_mean_matches_binomial(self):
        """n=50, alpha=0.3: unit mass, mean 15, and scipy's binomial PMF."""
        row = _binomial_rows(50, 0.3)[50]
        z = np.arange(51)
        assert row.sum() == pytest.approx(1.0, abs=1e-13)
        assert row @ z == pytest.approx(15.0, abs=1e-12)
        np.testing.assert_allclose(row, stats.binom.pmf(z, 50, 0.3), rtol=1e-12)

    def test_large_count_matches_mpmath(self):
        """n=1000, alpha=0.37: within 1e-13 relative of 50-digit binomial
        probabilities on every entry above 1e-10 of the row's largest."""
        import mpmath as mp

        n, alpha = 1000, 0.37
        row = _binomial_rows(n, alpha)[n]
        with mp.workdps(50):
            a = mp.mpf(alpha)
            exact = np.array([float(mp.binomial(n, z) * a**z * (1 - a) ** (n - z))
                              for z in range(n + 1)])
        kept = exact > 1e-10 * exact.max()
        np.testing.assert_allclose(row[kept], exact[kept], rtol=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(0.0, 1.0), n_max=st.integers(0, 60),
           probs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    def test_thinned_cdf_is_running_sum_of_thinned_pmf(self, alpha, n_max,
                                                       probs):
        """Thinning a PMF's running sum, in the same stack as the PMF,
        gives the running sums of the thinned PMF rows within 1e-14."""
        pmf = np.asarray(probs)
        pmf = pmf / pmf.sum() if pmf.sum() > 0 else np.eye(1, pmf.size)[0]
        pmf_table, cdf_table = thinning_convolution_table(
            alpha, np.vstack([pmf, np.cumsum(pmf)]), n_max)
        assert cdf_table.shape == (n_max + 1, pmf.size)
        np.testing.assert_allclose(cdf_table, np.cumsum(pmf_table, axis=1),
                                   rtol=0.0, atol=1e-14)


# =============================================================================
# Plain simulator
# =============================================================================


class TestSimulateCinar:
    def test_shape_and_type(self, weak_grid):
        assert isinstance(weak_grid, CountGrid)
        assert weak_grid.values.shape == (500, 500)

    def test_deterministic_given_config(self):
        cfg = SimConfig(_weak_params(), 40, 60, burn_in=30, seed=99)
        a = simulate_cinar(cfg)
        b = simulate_cinar(cfg)
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_output(self):
        par = _weak_params()
        a = simulate_cinar(SimConfig(par, 40, 40, burn_in=20, seed=1))
        b = simulate_cinar(SimConfig(par, 40, 40, burn_in=20, seed=2))
        assert not np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("field, value", [
        ("n1", 10.7), ("n2", 9.2), ("burn_in", 3.9), ("seed", 1.5),
        ("n1", True), ("n2", np.True_), ("seed", "1")])
    def test_integer_fields_are_checked_not_truncated(self, field, value):
        """int() would simulate a 10x9 grid from (10.7, 9.2) and a 1-row grid
        from True; each is refused, naming the field and the value."""
        fields = {"n1": 10, "n2": 9, "burn_in": 3, "seed": 1, field: value}
        with pytest.raises(ValidationError, match=(
                f"^{field} must be an integer, got {re.escape(repr(value))}$")):
            SimConfig(_weak_params(), **fields)

    def test_integral_fields_of_any_number_type(self):
        """Integral floats and numpy integers are stored as ints and give the
        same grid."""
        want = simulate_cinar(SimConfig(_weak_params(), 10, 9, burn_in=3, seed=1))
        cfg = SimConfig(_weak_params(), 10.0, np.int64(9), burn_in=np.float64(3.0),
                        seed=np.uint64(1))
        assert [type(v) for v in (cfg.n1, cfg.n2, cfg.burn_in, cfg.seed)] == [int] * 4
        assert np.array_equal(simulate_cinar(cfg).values, want.values)

    def test_burn_in_zero_allowed(self):
        g = simulate_cinar(SimConfig(_weak_params(), 25, 30, burn_in=0, seed=5))
        assert g.values.shape == (25, 30)

    def test_stationary_mean(self, weak_grid):
        """Sample mean of a 500x500 grid is mu_X = 1/0.7 within 0.02."""
        mu_x, _ = stationary_moments(_weak_params())
        assert abs(weak_grid.values.mean() - mu_x) < 0.02

    def test_subblock_stationarity(self, weak_grid):
        """Disjoint 250x250 quadrants have means within 3 block SEs of the total."""
        v = weak_grid.values
        s2 = v.var(ddof=1)
        se = np.sqrt(2.0 * s2 / 62_500)
        quads = [v[:250, :250], v[:250, 250:], v[250:, :250], v[250:, 250:]]
        for q in quads:
            assert abs(q.mean() - v.mean()) < 3.0 * se

    def test_rejects_sign_pattern(self):
        signs = SignPattern(ModelOrder(1, 1), np.array([1, 1, 1]))
        cfg = SimConfig(_weak_params(), 10, 10, seed=0, signs=signs)
        with pytest.raises(ValidationError, match="simulate_tobit_cinar"):
            simulate_cinar(cfg)

    def test_rejects_invalid_params(self):
        par = CinarParams(
            ModelOrder(1, 1), np.array([0.5, 0.4, 0.3]), PoissonInnovation(1.0)
        )
        with pytest.raises(ValidationError):
            simulate_cinar(SimConfig(par, 10, 10, seed=0))

    def test_selection_frequencies_match_phi(self):
        """The decisions, as the oracle records them, select each lag with
        frequency phi (4-sigma CI); the simulator's grid is the oracle's."""
        par = _strong_params()
        config = SimConfig(par, 300, 300, seed=3)
        grid, dec = simulate_oracle(config, return_decisions=True)
        assert np.array_equal(simulate_cinar(config).values, grid.values)
        assert dec.shape == (300, 300)
        assert dec.min() >= 0 and dec.max() < par.order.n_lags
        freq = np.bincount(dec.ravel(), minlength=3) / dec.size
        band = 4.0 * np.sqrt(par.phi * (1.0 - par.phi) / dec.size)
        assert np.all(np.abs(freq - par.phi) < band)

    def test_peak_memory_is_four_site_vectors(self):
        """The innovation field, the decisions and the two index vectors that
        build the pasts' offsets: 4 int64 per site of the extended grid
        (measured 4.002); a site-length temporary kept alive through the
        wavefront, such as the decision uniforms, reads 5."""
        import tracemalloc

        config = SimConfig(_strong_params(), 300, 300, burn_in=100, seed=4)
        simulate_cinar(config)  # lazy set-up outside the traced call
        tracemalloc.start()
        try:
            simulate_cinar(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 8 * 400 * 400, peak / (8 * 400 * 400)

    def test_marginal_is_poisson(self, strong_grid):
        """theta=(0.2,0.2,0.5), mu_eps=1: marginal passes GOF vs Poisson(10).

        Neighbouring sites are strongly dependent, so the grid is thinned to
        a stride-8 sublattice (lag correlation ~0.004) before applying the
        chi-square test at level 0.01.
        """
        sub = strong_grid.values[::8, ::8]
        stat, _, crit, _ = chisq_gof(sub, lambda k: stats.poisson.pmf(k, 10.0))
        assert stat < crit, f"GOF stat {stat:.1f} >= crit {crit:.1f}"


class TestNbMarginalSimulation:
    def test_sample_moments(self, nb_grid):
        """Strong-dependence NB field: sample mean/var near (10, 15.26)."""
        par, grid = nb_grid
        mu_x, s2_x = stationary_moments(par)
        assert abs(grid.values.mean() - mu_x) < 0.15
        assert abs(grid.values.var(ddof=1) - s2_x) < 1.2

    def test_marginal_is_negative_binomial(self, nb_grid):
        """Stride-8 sublattice passes GOF vs the target NB(nu, pi) law."""
        par, grid = nb_grid
        inn = par.innovation
        sub = grid.values[::8, ::8]
        stat, _, crit, _ = chisq_gof(
            sub, lambda k: stats.nbinom.pmf(k, inn.nu, inn.pi)
        )
        assert stat < crit, f"GOF stat {stat:.1f} >= crit {crit:.1f}"


# =============================================================================
# Censored (Tobit) simulator
# =============================================================================


class TestSimulateTobit:
    def test_all_plus_signs_bit_identical(self):
        """With every sign +1 the censoring never binds: same seed, same grid."""
        par = _strong_params()
        plain = simulate_cinar(SimConfig(par, 60, 60, burn_in=40, seed=17))
        signs = SignPattern(par.order, np.array([1, 1, 1]))
        cens = simulate_tobit_cinar(
            SimConfig(par, 60, 60, burn_in=40, seed=17, signs=signs)
        )
        assert np.array_equal(plain.values, cens.values)

    def test_requires_signs(self):
        with pytest.raises(ValidationError, match="SignPattern"):
            simulate_tobit_cinar(SimConfig(_weak_params(), 10, 10, seed=0))

    def test_sign_order_mismatch(self):
        signs = SignPattern(ModelOrder(2, 2), np.ones(8, dtype=int))
        cfg = SimConfig(_weak_params(), 10, 10, seed=0, signs=signs)
        with pytest.raises(ValidationError, match="order"):
            simulate_tobit_cinar(cfg)

    def test_mixed_signs_censor_and_stay_nonnegative(self):
        """A dominant negative lag triggers censoring yet output stays a count grid."""
        par = CinarParams(
            ModelOrder(1, 1), np.array([0.1, 0.1, 0.6]), PoissonInnovation(1.0)
        )
        signs = SignPattern(par.order, np.array([1, 1, -1]))
        cfg = SimConfig(par, 80, 80, burn_in=40, seed=12, signs=signs)
        g = simulate_tobit_cinar(cfg)
        h = simulate_tobit_cinar(cfg)
        assert np.array_equal(g.values, h.values)
        assert g.values.min() == 0
        # the negative branch really subtracts: mean drops below mu_eps
        assert g.values.mean() < 1.0


# =============================================================================
# Strided wavefront against the per-diagonal loop oracle
# =============================================================================


def _oracle_params(p1, p2, family):
    order = ModelOrder(p1, p2)
    weights = np.arange(1.0, order.n_lags + 1.0)
    theta = 0.85 * weights / weights.sum()
    innovation = {
        "poisson": PoissonInnovation(1.3),
        "nb": NbMarginalInnovation.from_targets(1.3, 2.5, 0.85),
        "tabulated": _Tabulated([0.5, 0.3, 0.2]),
    }[family]
    return CinarParams(order, theta, innovation)


@pytest.mark.parametrize("burn_in", [0, 100])
@pytest.mark.parametrize("censored", [False, True], ids=["plain", "tobit"])
@pytest.mark.parametrize("family", ["poisson", "nb", "tabulated"])
@pytest.mark.parametrize("p1, p2", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_matches_per_diagonal_oracle(p1, p2, family, censored, burn_in):
    """Grids are bit-identical to the fancy-indexing loop, on 1 x n, n x 1,
    (p1+1) x (p2+1) and 13 x 9 grids; Tobit runs carry mixed signs."""
    params = _oracle_params(p1, p2, family)
    signs = None
    if censored:
        signs = SignPattern(params.order, (-1) ** np.arange(params.order.n_lags))
    simulate = simulate_tobit_cinar if censored else simulate_cinar
    for seed, (n1, n2) in enumerate([(1, 7), (7, 1), (p1 + 1, p2 + 1), (13, 9)]):
        config = SimConfig(params, n1, n2, burn_in=burn_in, seed=seed, signs=signs)
        assert np.array_equal(simulate(config).values,
                              simulate_oracle(config).values)
