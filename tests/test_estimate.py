"""Tests for the Yule--Walker, least-squares, and likelihood estimators."""

import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize, stats

from cinar import (
    CinarParams,
    CountGrid,
    ModelOrder,
    NbMarginalInnovation,
    NumericalError,
    PoissonInnovation,
    SimConfig,
    ValidationError,
    cls_estimate,
    cml_estimate,
    cml_loglik,
    information_criteria,
    innovation_family,
    pit_histogram,
    sample_acf,
    simulate_cinar,
    yw_estimate,
)
import cinar.estimate as estimate_module
from cinar.estimate import (FitDiagnostics, FitResult, _CmlLikelihood,
                            _pass_tables, _se_from_loglik, _solve_checked)

from _bfgs_oracle import bfgs_fit
from _cml_oracle import per_site_pass
from _hessian_oracle import (fd_hessian, observed_information_se,
                             score_difference_hessian)
from _stats_helpers import (lagged_stack, nb_law_mp, nb_pmf_mp, nb_point_mp,
                            poisson_loglik_mp, thinning_cells_mp)

ORDER11 = ModelOrder(1, 1)


def _poi(theta, mu=1.0):
    return CinarParams(ORDER11, np.asarray(theta, dtype=float), PoissonInnovation(mu))


def _sim(params, n, seed, burn=100):
    return simulate_cinar(SimConfig(params, n1=n, n2=n, burn_in=burn, seed=seed))


def _brute_acvf(values, k, l):
    """Literal all-pairs autocovariance, lex-negative lags canonicalized."""
    if k < 0 or (k == 0 and l < 0):
        k, l = -k, -l
    values = np.asarray(values, dtype=float)
    n1, n2 = values.shape
    xbar = values.mean()
    total = 0.0
    for s in range(k, n1):
        for t in range(max(l, 0), n2 + min(l, 0)):
            total += (values[s, t] - xbar) * (values[s - k, t - l] - xbar)
    return total / (n1 * n2)


# =============================================================================
# Yule--Walker
# =============================================================================


class TestYwEstimate:
    def test_matrix_layout_order_11(self):
        """theta solves the symmetric system with entries rho(1,-1), rho(1,0), rho(0,1)."""
        grid = _sim(_poi([0.2, 0.2, 0.35], 1.5), 30, seed=8)
        table = sample_acf(grid, (1, 1))
        pmat = np.array([
            [1.0, table.value(1, -1), table.value(1, 0)],
            [table.value(1, -1), 1.0, table.value(0, 1)],
            [table.value(1, 0), table.value(0, 1), 1.0],
        ])
        rho = np.array([table.value(0, 1), table.value(1, 0), table.value(1, 1)])
        fit = yw_estimate(grid, ORDER11)
        np.testing.assert_allclose(pmat @ fit.theta, rho, atol=1e-12)

    def test_brute_force_linear_solve_oracle(self):
        """Tiny fixed grid: output equals an independently assembled solve."""
        values = np.array([
            [1, 3, 0, 2],
            [2, 1, 4, 0],
            [0, 2, 1, 3],
            [3, 0, 2, 1],
        ])
        grid = CountGrid(values)
        lags = [(0, 1), (1, 0), (1, 1)]
        g0 = _brute_acvf(values, 0, 0)
        rho = np.array([_brute_acvf(values, k, l) / g0 for (k, l) in lags])
        pmat = np.empty((3, 3))
        for r, (k, l) in enumerate(lags):
            for c, (i, j) in enumerate(lags):
                a, b = k - i, l - j
                if a < 0 or (a == 0 and b < 0):
                    a, b = -a, -b
                pmat[r, c] = _brute_acvf(values, a, b) / g0
        want_theta = np.linalg.solve(pmat, rho)
        alpha = want_theta.sum()
        want_mu = values.mean() * (1.0 - alpha)
        want_s2 = g0 * (1.0 - alpha**2) - alpha * want_mu

        fit = yw_estimate(grid, ORDER11)
        np.testing.assert_allclose(fit.theta, want_theta, atol=1e-12)
        assert fit.mu_eps == pytest.approx(want_mu, abs=1e-12)
        assert fit.i_eps == pytest.approx(want_s2 / want_mu, abs=1e-12)

    def test_replication_means_weak_dependence(self):
        """200 replications at 50x50: mean estimates sit near their targets."""
        params = _poi([0.1, 0.1, 0.1], 1.0)
        target = {"mu": 1.011, "theta": (0.098, 0.098, 0.096)}
        fits = []
        for r in range(200):
            fit = yw_estimate(_sim(params, 50, seed=1000 + r), ORDER11)
            fits.append(np.concatenate([[fit.mu_eps], fit.theta]))
        means = np.mean(fits, axis=0)
        assert means[0] == pytest.approx(target["mu"], abs=0.015)
        np.testing.assert_allclose(means[1:], target["theta"], atol=0.015)

    def test_inadmissible_reported_verbatim(self):
        """Near-independent data: negative theta estimates are not clamped."""
        grid = _sim(_poi([1e-6, 1e-6, 1e-6], 1.0), 15, seed=0, burn=30)
        fit = yw_estimate(grid, ORDER11)
        assert not fit.admissible
        assert fit.theta.min() < 0.0
        assert fit.method == "YW"
        assert fit.std_errors is None and fit.loglik is None

    def test_constant_grid_is_degenerate(self):
        grid = CountGrid(np.full((10, 10), 3))
        with pytest.raises(ValidationError, match="degenerate"):
            yw_estimate(grid, ORDER11)

    def test_singular_system_message(self):
        with pytest.raises(NumericalError, match="YW system singular"):
            _solve_checked(np.ones((3, 3)), np.ones(3), "YW system singular")


# =============================================================================
# Conditional least squares
# =============================================================================


def _q_objective(grid, order):
    x, lagged = lagged_stack(grid.values, order)

    def q(coef):
        resid = x - coef[-1] - lagged @ coef[:-1]
        return float(resid @ resid)

    return q


class TestClsEstimate:
    def test_equals_least_squares_solution(self):
        """Normal-equation solve equals an SVD least-squares fit."""
        grid = _sim(_poi([0.3, 0.4, 0.1], 1.0), 30, seed=15)
        x, lagged = lagged_stack(grid.values, ORDER11)
        design = np.column_stack([lagged.astype(float), np.ones(x.size)])
        want, *_ = np.linalg.lstsq(design, x.astype(float), rcond=None)
        fit = cls_estimate(grid, ORDER11)
        np.testing.assert_allclose(fit.estimates, want, atol=1e-8)

    def test_equals_numerical_minimizer(self):
        """Closed form agrees with a direct minimizer of the squared deviations."""
        grid = _sim(_poi([0.2, 0.2, 0.35], 1.5), 25, seed=16)
        fit = cls_estimate(grid, ORDER11)
        q = _q_objective(grid, ORDER11)
        start = np.array([0.0, 0.0, 0.0, float(grid.values.mean())])
        res = optimize.minimize(q, start, method="BFGS", options={"gtol": 1e-12})
        np.testing.assert_allclose(fit.estimates, res.x, atol=1e-6)
        assert q(fit.estimates) <= res.fun + 1e-9

    def test_replication_means_mixed_dependence(self):
        """200 replications at 50x50, theta=(0.3,0.4,0.1): means near targets."""
        params = _poi([0.3, 0.4, 0.1], 1.0)
        fits = []
        for r in range(200):
            fit = cls_estimate(_sim(params, 50, seed=3000 + r), ORDER11)
            fits.append(np.concatenate([[fit.mu_eps], fit.theta]))
        means = np.mean(fits, axis=0)
        assert means[0] == pytest.approx(1.017, abs=0.015)
        np.testing.assert_allclose(means[1:], (0.299, 0.398, 0.100), atol=0.015)

    def test_constant_grid_singular(self):
        grid = CountGrid(np.full((8, 8), 2))
        with pytest.raises(NumericalError, match="CLS normal equations singular"):
            cls_estimate(grid, ORDER11)

    def test_inadmissible_not_clamped(self):
        grid = _sim(_poi([1e-6, 1e-6, 1e-6], 1.0), 15, seed=0, burn=30)
        fit = cls_estimate(grid, ORDER11)
        assert not fit.admissible
        assert fit.theta.min() < 0.0


# =============================================================================
# Conditional log-likelihood
# =============================================================================


def _brute_loglik(params, grid):
    """Sum of log P(X|past) by enumerating lag choice and thinning value."""
    x, lagged = lagged_stack(grid.values, params.order)
    alpha, phi = params.alpha, params.phi
    eps = params.innovation.pmf_table(int(x.max()))
    total = 0.0
    for s in range(x.size):
        p = 0.0
        for j in range(phi.size):
            n = int(lagged[s, j])
            for z in range(min(n, int(x[s])) + 1):
                p += phi[j] * stats.binom.pmf(z, n, alpha) * eps[x[s] - z]
        total += np.log(p)
    return total


class TestCmlLoglik:
    def test_brute_force_enumeration_oracle(self):
        """10x10 grid: kernel likelihood equals the decision-thinning sum."""
        params = _poi([0.25, 0.3, 0.2], 1.2)
        grid = _sim(params, 10, seed=77, burn=50)
        got = cml_loglik(params, grid)
        want = _brute_loglik(params, grid)
        assert got == pytest.approx(want, abs=1e-10)

    def test_brute_force_oracle_nb(self):
        params = CinarParams(
            ORDER11, np.array([0.2, 0.2, 0.5]),
            NbMarginalInnovation.from_targets(1.0, 2.0, 0.9),
        )
        grid = _sim(params, 10, seed=78, burn=50)
        assert cml_loglik(params, grid) == pytest.approx(
            _brute_loglik(params, grid), abs=1e-10
        )

    @pytest.mark.parametrize("theta, mu", [([0.3, 0.4, 0.1], 1.0),
                                           ([0.05, 0.1, 0.02], 6.0)])
    def test_nb_face_loglik_is_poisson(self, theta, mu):
        """At i_eps = 1 the NB likelihood is the Poisson one, within 1e-12
        relative."""
        grid = _sim(_poi(theta, mu), 40, seed=5)
        poisson = cml_loglik(_poi(theta, mu), grid)
        assert cml_loglik(_nb(theta, mu, 1.0), grid) == pytest.approx(
            poisson, rel=1e-12)

    def test_isolated_counts_reduce_to_innovation_loglik(self):
        """All lag neighbours zero: likelihood is the innovation PMF product.

        Only the bottom-right corner is no site's lag parent, so the
        all-zero-past situation is a zero grid with one corner count.
        """
        values = np.zeros((6, 6), dtype=int)
        values[5, 5] = 3
        grid = CountGrid(values)
        params = _poi([0.2, 0.2, 0.35], 0.8)
        x, lagged = lagged_stack(values, ORDER11)
        assert lagged.max() == 0  # construction: no occupied neighbours
        eps = params.innovation.pmf_table(int(x.max()))
        want = float(np.sum(np.log(eps[x])))
        assert cml_loglik(params, grid) == pytest.approx(want, abs=1e-10)

    def test_matches_conditional_pmf_sites(self):
        """Likelihood terms agree with the per-site conditional distributions."""
        from cinar import conditional_pmf

        params = _poi([0.3, 0.3, 0.2], 1.0)
        grid = _sim(params, 8, seed=5, burn=40)
        x, lagged = lagged_stack(grid.values, ORDER11)
        want = sum(
            np.log(conditional_pmf(params, lagged[s]).probs[x[s]])
            for s in range(x.size)
        )
        assert cml_loglik(params, grid) == pytest.approx(want, abs=1e-8)

    def test_reparametrization_invariance(self):
        """theta and (alpha, phi) describe the same model: same likelihood."""
        grid = _sim(_poi([0.3, 0.4, 0.1], 1.0), 15, seed=44)
        theta = np.array([0.25, 0.35, 0.15])
        direct = CinarParams(ORDER11, theta, PoissonInnovation(1.1))
        alpha, phi = theta.sum(), theta / theta.sum()
        rebuilt = CinarParams(ORDER11, alpha * phi, PoissonInnovation(1.1))
        assert cml_loglik(direct, grid) == pytest.approx(
            cml_loglik(rebuilt, grid), abs=1e-10
        )

    def test_zero_probability_sentinel_with_site_report(self):
        """A count of 2000 with an all-zero past has a Poisson(1) probability
        of e**-1 / 2000!, far below the float range: the log-form pass
        gives the finite per-site sum of 60-digit arithmetic, within 1e-12
        relative, and no warning."""
        values = np.zeros((5, 5), dtype=int)
        values[2, 3] = 2000
        params = _poi([0.2, 0.2, 0.3], 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = cml_loglik(params, CountGrid(values))
        assert value == pytest.approx(poisson_loglik_mp(params, values), rel=1e-12)
        assert value < -1e4

    @pytest.mark.parametrize("cells", [[(30, 30)], [(45, 5), (30, 30), (10, 40)]])
    def test_zero_probability_report_counts_sites_of_tuples(self, cells):
        """A 60x60 grid of 0/1 counts is read as tuples (its key space is
        0.02 of its sites), with 2s of all-zero past, whose probabilities
        (about 1e-400) underflow under mu_eps = 1e-200: the log-likelihood
        over the tuples, weighted by their counts, is the per-site sum of
        60-digit arithmetic within 1e-12 relative."""
        values = np.random.default_rng(8).integers(0, 2, (60, 60))
        for r, c in cells:
            values[r - 1:r + 1, c - 1:c + 1] = 0
            values[r, c] = 2
        likelihood = _CmlLikelihood(values, ORDER11)
        assert likelihood.sites.size < likelihood.n_sites / 40
        params = _poi([0.2, 0.2, 0.3], 1e-200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = cml_loglik(params, CountGrid(values))
        assert value == pytest.approx(poisson_loglik_mp(params, values), rel=1e-12)

    def test_rejects_invalid_params(self):
        grid = _sim(_poi([0.2, 0.2, 0.2], 1.0), 8, seed=1, burn=20)
        bad = CinarParams(ORDER11, np.array([0.5, 0.4, 0.3]), PoissonInnovation(1.0))
        with pytest.raises(ValidationError, match="invalid parameters"):
            cml_loglik(bad, grid)


# =============================================================================
# Conditional maximum likelihood
# =============================================================================


class TestCmlEstimate:
    def test_coefficient_fixed_twice_refused(self):
        """'theta11' and (1, 1) name one lag; pinning it twice is refused
        rather than counted as two fixed coefficients."""
        grid = _sim(_poi([0.3, 0.3, 0.1], 1.0), 12, seed=3)
        with pytest.raises(ValidationError, match="theta_11 is fixed twice"):
            cml_estimate(grid, ORDER11, fix_zero=("theta11", (1, 1)))

    @pytest.mark.parametrize("item, message", [
        ("a1b1", "cannot parse fixed coefficient 'a1b1'"),
        ("theta-11", "cannot parse fixed coefficient"),
        ("theta_111", "cannot parse fixed coefficient"),
        ((1.7, 1), r"fixed coefficient lag must be an integer, got 1\.7"),
        ((True, 1), "fixed coefficient lag must be an integer, got True"),
    ])
    def test_loose_fixed_coefficient_refused(self, item, message):
        """Only 'theta_ij' and 'thetaij' name a lag, and a pair of whole
        numbers: other strings with two digits, and pairs that int() would
        truncate, are refused rather than read as (1, 1)."""
        grid = _sim(_poi([0.3, 0.3, 0.1], 1.0), 12, seed=3)
        with pytest.raises(ValidationError, match=message):
            cml_estimate(grid, ORDER11, fix_zero=[item])

    def test_deterministic(self):
        grid = _sim(_poi([0.3, 0.4, 0.1], 1.0), 25, seed=101)
        a = cml_estimate(grid, ORDER11)
        b = cml_estimate(grid, ORDER11)
        assert np.array_equal(a.estimates, b.estimates)
        assert a.loglik == b.loglik

    def test_single_fit_recovers_truth(self):
        """50x50 NB fit lands near the generating parameters."""
        truth = CinarParams(
            ORDER11, np.array([0.2, 0.2, 0.5]),
            NbMarginalInnovation.from_targets(1.0, 2.0, 0.9),
        )
        grid = _sim(truth, 50, seed=202)
        fit = cml_estimate(grid, ORDER11, family="nb")
        assert fit.admissible and fit.diagnostics.converged
        np.testing.assert_allclose(
            fit.estimates, (0.2, 0.2, 0.5, 1.0, 2.0), atol=0.15
        )
        assert fit.std_errors is not None and np.all(fit.std_errors > 0)
        assert fit.aic is not None and fit.bic > fit.aic

    def test_gradient_criterion_at_optimum(self):
        grid = _sim(_poi([0.2, 0.2, 0.35], 1.5), 30, seed=55)
        fit = cml_estimate(grid, ORDER11)
        assert fit.diagnostics.converged
        assert fit.diagnostics.grad_norm <= 1e-5 * (1.0 + abs(fit.loglik))

    def test_loglik_at_estimate_beats_nearby_points(self):
        """Reported optimum dominates parameter perturbations."""
        grid = _sim(_poi([0.3, 0.4, 0.1], 1.0), 25, seed=70)
        fit = cml_estimate(grid, ORDER11)
        base = CinarParams(ORDER11, fit.theta, PoissonInnovation(fit.mu_eps))
        assert cml_loglik(base, grid) == pytest.approx(fit.loglik, abs=1e-9)
        rng = np.random.default_rng(1)
        for _ in range(8):
            theta = np.clip(fit.theta + rng.normal(0, 0.02, 3), 1e-4, None)
            mu = max(fit.mu_eps + rng.normal(0, 0.05), 1e-3)
            nearby = CinarParams(ORDER11, theta, PoissonInnovation(mu))
            assert cml_loglik(nearby, grid) <= fit.loglik + 1e-9

    def test_near_independence_recovers_sample_mean(self):
        """alpha ~ 0 data: mu_eps tracks the sample mean at the iid rate."""
        grid = _sim(_poi([1e-6, 1e-6, 1e-6], 1.0), 40, seed=12, burn=30)
        fit = cml_estimate(grid, ORDER11)
        xbar = float(grid.values.mean())
        # the boundary optimum has no observed-information SE; use the iid one
        se_mean = np.sqrt(xbar / grid.values.size)
        assert abs(fit.mu_eps - xbar) <= 2.0 * se_mean

    def test_custom_init_reaches_same_optimum(self):
        grid = _sim(_poi([0.2, 0.2, 0.35], 1.5), 25, seed=81)
        base = cml_estimate(grid, ORDER11)
        seeded = cml_estimate(grid, ORDER11, init=cls_estimate(grid, ORDER11))
        np.testing.assert_allclose(seeded.estimates, base.estimates, atol=1e-4)

    def test_fewer_sites_than_parameters_refused(self):
        """A 3x2 grid at order (2,1) has one interior site for six free
        parameters, a likelihood flat along directions that run to
        infinity: refused at once, naming both counts."""
        values = np.random.default_rng(0).integers(300, 501, size=(3, 2))
        start = time.perf_counter()
        with pytest.raises(ValidationError,
                           match=r"1 interior site\(s\) for 6 free parameters"):
            cml_estimate(CountGrid(values), ModelOrder(2, 1))
        assert time.perf_counter() - start < 1.0

    def test_init_order_mismatch_rejected(self):
        grid = _sim(_poi([0.2, 0.2, 0.35], 1.5), 20, seed=82)
        other = cls_estimate(grid, ModelOrder(1, 2))
        with pytest.raises(ValidationError, match="order"):
            cml_estimate(grid, ORDER11, init=other)

    def test_rejects_unknown_family(self):
        grid = _sim(_poi([0.2, 0.2, 0.35], 1.5), 15, seed=83)
        with pytest.raises(ValidationError, match="family"):
            cml_estimate(grid, ORDER11, family="geometric")

    def test_estimator_coherence_weak_dependence(self):
        """200x200: the three estimators agree to within 0.02 per coordinate."""
        grid = _sim(_poi([0.1, 0.1, 0.1], 1.0), 200, seed=9)
        yw = yw_estimate(grid, ORDER11)
        cls = cls_estimate(grid, ORDER11)
        cml = cml_estimate(grid, ORDER11)
        np.testing.assert_allclose(cml.estimates, cls.estimates, atol=0.02)
        np.testing.assert_allclose(cml.estimates, yw.estimates[:4], atol=0.02)

    @pytest.mark.slow
    def test_replication_study_poisson(self):
        """200 replications at 50x50: means and spreads near the targets."""
        params = _poi([0.3, 0.4, 0.1], 1.0)
        fits = []
        for r in range(200):
            fit = cml_estimate(_sim(params, 50, seed=5000 + r), ORDER11)
            fits.append(np.concatenate([[fit.mu_eps], fit.theta]))
        fits = np.asarray(fits)
        means, sds = fits.mean(axis=0), fits.std(axis=0, ddof=1)
        target_mean = np.array([1.002, 0.300, 0.399, 0.100])
        target_sd = np.array([0.045, 0.018, 0.018, 0.018])
        np.testing.assert_allclose(means, target_mean, atol=0.01)
        assert np.all(sds < 1.5 * target_sd) and np.all(sds > target_sd / 1.5)

    @pytest.mark.slow
    def test_replication_study_nb(self):
        """200 NB replications at 50x50: means near (1.005, 1.997, 0.2, 0.2, 0.499)."""
        truth = CinarParams(
            ORDER11, np.array([0.2, 0.2, 0.5]),
            NbMarginalInnovation.from_targets(1.0, 2.0, 0.9),
        )
        fits = []
        for r in range(200):
            fit = cml_estimate(_sim(truth, 50, seed=7000 + r), ORDER11, family="nb")
            fits.append(np.concatenate([[fit.mu_eps, fit.i_eps], fit.theta]))
        means = np.mean(fits, axis=0)
        np.testing.assert_allclose(
            means, (1.005, 1.997, 0.200, 0.200, 0.499), atol=0.015
        )

    @pytest.mark.slow
    def test_misspecified_family_biases_mean(self):
        """Poisson fits to NB data overstate mu_eps; NB fits stay centered."""
        truth = CinarParams(
            ORDER11, np.array([0.2, 0.2, 0.5]),
            NbMarginalInnovation.from_targets(1.0, 2.0, 0.9),
        )
        mu_p, mu_n = [], []
        for r in range(60):
            grid = _sim(truth, 50, seed=9000 + r)
            mu_p.append(cml_estimate(grid, ORDER11, family="poisson").mu_eps)
            mu_n.append(cml_estimate(grid, ORDER11, family="nb").mu_eps)
        assert 1.15 < np.mean(mu_p) < 1.5
        assert abs(np.mean(mu_n) - 1.005) < 0.05


# =============================================================================
# Exact score and the optimizer built on it
# =============================================================================


def _nb(theta, mu, i_eps):
    theta = np.asarray(theta, dtype=float)
    return CinarParams(ORDER11, theta,
                       NbMarginalInnovation.from_targets(mu, i_eps, theta.sum()))


def _central_diff(fn, vec, rel_step=1e-5):
    grad = np.empty(vec.size)
    for i in range(vec.size):
        h = rel_step * (1.0 + abs(vec[i]))
        up, down = vec.copy(), vec.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (fn(up) - fn(down)) / (2.0 * h)
    return grad


def _likelihood_case(case):
    """(grid, order, family name, free lag indices, parameter vector)."""
    if case == "poisson-11":
        grid = _sim(_poi([0.3, 0.4, 0.1], 1.0), 40, seed=1)
        return grid, ORDER11, "poisson", [0, 1, 2], np.array([0.25, 0.35, 0.12, 1.2])
    if case == "poisson-22-fixed":
        order = ModelOrder(2, 2)
        truth = CinarParams(order, np.full(8, 0.1), PoissonInnovation(1.0))
        grid = _sim(truth, 40, seed=2)
        free = [0, 1, 2, 4, 5, 6, 7]  # theta_11 (index 3) pinned to 0
        vec = np.array([0.12, 0.08, 0.1, 0.11, 0.09, 0.1, 0.13, 1.3])
        return grid, order, "poisson", free, vec
    if case == "nb-11":
        grid = _sim(_nb([0.2, 0.2, 0.5], 1.0, 2.0), 40, seed=3)
        return grid, ORDER11, "nb", [0, 1, 2], np.array([0.22, 0.18, 0.45, 1.1, 2.3])
    # an NB fit of Poisson data, at its estimate
    grid = _sim(_poi([0.3, 0.4, 0.1], 1.0), 40, seed=5)
    fit = cml_estimate(grid, ORDER11, family="nb")
    assert fit.diagnostics.se_error is None and fit.i_eps < 1.5
    return grid, ORDER11, "nb", [0, 1, 2], np.array(fit.estimates)


class TestCmlScore:
    @pytest.mark.parametrize("case", ["poisson-11", "poisson-22-fixed", "nb-11"])
    def test_score_matches_central_differences(self, case):
        """Analytic score equals central differences of cml_loglik (rtol 1e-6)."""
        grid, order, family, free, vec = _likelihood_case(case)
        m = len(free)

        def loglik(v):
            theta = np.zeros(order.n_lags)
            theta[free] = v[:m]
            innovation = (PoissonInnovation(v[m]) if family == "poisson"
                          else NbMarginalInnovation.from_targets(
                              v[m], v[m + 1], theta.sum()))
            return cml_loglik(CinarParams(order, theta, innovation), grid)

        likelihood = _CmlLikelihood(grid.values, order,
                                    innovation_family(family), lags=free)
        value, score, _ = likelihood.value_score_hessian(vec)
        assert value == pytest.approx(loglik(vec), rel=1e-12)
        np.testing.assert_allclose(score, _central_diff(loglik, vec), rtol=1e-6)

    def test_unconstrained_gradient_matches_central_differences(self):
        """The chain rule into the optimizer's box coordinates (w, log
        mu_eps, i_eps), curvature included: the score against differences
        of the log-likelihood, the Hessian against differences of the
        score, away from the optimum."""
        grid = _sim(_nb([0.2, 0.2, 0.5], 1.0, 2.0), 30, seed=4)
        likelihood = _CmlLikelihood(grid.values, ORDER11, NbMarginalInnovation)
        v = np.array([0.22, 0.18, 0.45, np.log(1.1), 2.3])

        def in_box(u):
            vec, one_minus = estimate_module._natural(u, 3)
            return estimate_module._box_point(likelihood.value_score_hessian(vec),
                                              vec, one_minus, 3)[:3]

        _, grad, hess = in_box(v)
        want = _central_diff(lambda u: in_box(u)[0], v)
        np.testing.assert_allclose(grad, want, rtol=1e-6)
        rows = [_central_diff(lambda u: in_box(u)[1][i], v) for i in range(v.size)]
        np.testing.assert_allclose(hess, rows, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("nu, pi, alpha", [
        (1.7, 0.45, 0.6), (0.6, 0.7, 0.3), (4.2, 0.3, 0.85),
    ])
    def test_nb_pmf_derivatives_match_mpmath(self, nu, pi, alpha):
        """d e / d(alpha, mu_eps, i_eps) = e * h against 50-digit
        differentiation."""
        import mpmath as mp

        kmax = 25
        innovation = NbMarginalInnovation(nu, pi, alpha)
        pmf = innovation.pmf_table(kmax)
        h, _ = innovation.derivative_series(kmax)
        got = np.array([np.convolve(pmf, row)[: kmax + 1] for row in h])
        with mp.workdps(50):
            point = nb_point_mp(innovation)
            want = np.array([
                [float(mp.diff(lambda *v: nb_pmf_mp(*nb_law_mp(*v), k), point,
                               tuple(int(j == i) for j in range(3))))
                 for k in range(kmax + 1)]
                for i in range(3)
            ])
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize("nu, pi, alpha", [
        (1.7, 0.45, 0.6), (0.6, 0.7, 0.3), (4.2, 0.3, 0.85),
    ])
    def test_nb_pmf_second_derivatives_match_mpmath(self, nu, pi, alpha):
        """d2 e / d(alpha, mu_eps, i_eps)2 = e * (h_r * h_q + h_rq) against
        50-digit differentiation, for each pair r <= q."""
        import mpmath as mp

        kmax = 10
        innovation = NbMarginalInnovation(nu, pi, alpha)
        pmf = innovation.pmf_table(kmax)
        h, hh = innovation.derivative_series(kmax)
        np.testing.assert_array_equal(hh, hh.transpose(1, 0, 2))
        pairs = [(r, q) for r in range(3) for q in range(r, 3)]
        got = np.array([
            np.convolve(pmf, np.convolve(h[r], h[q])[: kmax + 1] + hh[r, q])
            [: kmax + 1] for r, q in pairs
        ])
        with mp.workdps(50):
            point = nb_point_mp(innovation)
            want = np.array([
                [float(mp.diff(
                    lambda *v: nb_pmf_mp(*nb_law_mp(*v), k), point,
                    tuple(int(r == i) + int(q == i) for i in range(3))))
                 for k in range(kmax + 1)]
                for r, q in pairs
            ])
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize("case", [
        "poisson-11", "poisson-22-fixed", "nb-11", "nb-fit-of-poisson",
    ])
    def test_exact_hessian_matches_score_differences(self, case):
        """The closed-form Hessian equals central differences of the exact
        score (rtol 1e-6), one table build against 2p."""
        grid, order, family, free, vec = _likelihood_case(case)
        likelihood = _CmlLikelihood(grid.values, order,
                                    innovation_family(family), lags=free)
        exact = likelihood.value_score_hessian(vec)[2]
        assert likelihood.n_fev == 1
        np.testing.assert_allclose(
            exact, score_difference_hessian(likelihood, vec), rtol=1e-6)

    @pytest.mark.parametrize("family, rtol", [("poisson", 1e-4), ("nb", 1e-3)])
    def test_score_se_match_fd_hessian_se(self, family, rtol):
        """Exact observed-information SEs equal fd_hessian SEs.

        The oracle is the noisier side: at its fixed step, rounding in the
        log-likelihood moves the NB dispersion SE by about 2e-4 relative,
        and the gap closes as that step grows; the exact SEs take no step.
        """
        truth = (_poi([0.3, 0.4, 0.1], 1.0) if family == "poisson"
                 else _nb([0.2, 0.2, 0.5], 1.0, 2.0))
        grid = _sim(truth, 40, seed=33)
        fit = cml_estimate(grid, ORDER11, family=family)
        args = grid, ORDER11, innovation_family(family), fit.estimates

        def loglik(v):
            theta = v[:3]
            innovation = (PoissonInnovation(v[3]) if family == "poisson"
                          else NbMarginalInnovation.from_targets(
                              v[3], v[4], theta.sum()))
            return cml_loglik(CinarParams(ORDER11, theta, innovation), grid)

        via_fd = observed_information_se(*args, loglik_fn=loglik)
        np.testing.assert_allclose(observed_information_se(*args), via_fd,
                                   rtol=rtol)
        np.testing.assert_allclose(fit.std_errors, via_fd, rtol=rtol)

    @pytest.mark.parametrize("family", ["poisson", "nb"])
    def test_fit_uses_few_likelihood_evaluations(self, family, monkeypatch):
        """A 50x50 fit, standard errors included, builds <= 50 log tables.

        Finite-difference gradients would need several hundred.
        """
        truth = (_poi([0.3, 0.4, 0.1], 1.0) if family == "poisson"
                 else _nb([0.2, 0.2, 0.5], 1.0, 2.0))
        grid = _sim(truth, 50, seed=202)
        builds = []
        build = estimate_module.log_thinning_table

        def counting(*args, **kwargs):
            builds.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(estimate_module, "log_thinning_table", counting)
        fit = cml_estimate(grid, ORDER11, family=family)
        assert fit.diagnostics.converged and fit.std_errors is not None
        assert len(builds) <= 50
        assert fit.diagnostics.n_fev == len(builds)
        assert 0 < fit.diagnostics.n_grad <= fit.diagnostics.n_fev

    @pytest.mark.parametrize("family", ["poisson", "nb"])
    def test_newton_fit_builds_at_most_twelve_tables(self, family, monkeypatch):
        """A 50x50 fit builds one log table per likelihood pass, at most 12
        in all; the standard errors reuse the last Hessian and build none."""
        truth = (_poi([0.3, 0.4, 0.1], 1.0) if family == "poisson"
                 else _nb([0.2, 0.2, 0.5], 1.0, 2.0))
        grid = _sim(truth, 50, seed=202)
        builds, se_builds = [], []
        build = estimate_module.log_thinning_table
        se_from_loglik = estimate_module._se_from_loglik

        def counting(*args, **kwargs):
            builds.append(1)
            return build(*args, **kwargs)

        def watched_se(*args, **kwargs):
            before = len(builds)
            try:
                return se_from_loglik(*args, **kwargs)
            finally:
                se_builds.append(len(builds) - before)

        monkeypatch.setattr(estimate_module, "log_thinning_table", counting)
        monkeypatch.setattr(estimate_module, "_se_from_loglik", watched_se)
        fit = cml_estimate(grid, ORDER11, family=family)
        assert fit.diagnostics.converged and fit.std_errors is not None
        assert len(builds) <= 12
        assert fit.diagnostics.n_fev == len(builds)
        assert se_builds == [0]

    def test_line_search_across_the_wall_ends_without_warnings(self, monkeypatch):
        """Every trial point of the model is evaluated, however small a
        site's probability.

        A count of 200 with an all-zero past has a probability below the
        float range once mu_eps drops below about 1.8; started at mu_eps =
        100 with weak dependence, the search steps down across that range.
        No trial point is refused, none warns, and the fit converges.
        """
        values = np.array(_sim(_poi([0.3, 0.4, 0.1], 3.0), 30, seed=3).values)
        values[10, 9] = values[9, 10] = values[9, 9] = 0
        values[10, 10] = 200
        grid = CountGrid(values)
        init = FitResult(method="CML",
                         names=("theta_01", "theta_10", "theta_11", "mu_eps"),
                         estimates=np.array([0.1, 0.1, 0.1, 100.0]),
                         admissible=True, diagnostics=FitDiagnostics(0, True))
        trials = []
        box_point = estimate_module._box_point

        def watched(result, vec, one_minus, m):
            trials.append((vec[3], result[1] is not None
                           and bool(np.all(np.isfinite(result[2])))))
            return box_point(result, vec, one_minus, m)

        monkeypatch.setattr(estimate_module, "_box_point", watched)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = cml_estimate(grid, ORDER11, init=init)
        assert fit.diagnostics.converged and np.isfinite(fit.loglik)
        assert all(finite for _, finite in trials)
        assert min(mu for mu, _ in trials) < 1.8

    def test_every_start_on_the_wall_names_the_site(self):
        """A 400 with an all-zero past: its probability at the CLS start is
        below the float range, yet the start is evaluated and the fit
        converges, at the log-likelihood ``cml_loglik`` gives at its
        estimate."""
        values = np.ones((12, 12), dtype=int)
        values[5, 6] = values[6, 5] = values[5, 5] = 0
        values[6, 6] = 400
        fit = cml_estimate(CountGrid(values), ORDER11)
        assert fit.diagnostics.converged
        params = CinarParams(ORDER11, fit.theta, PoissonInnovation(fit.mu_eps))
        assert fit.loglik == pytest.approx(cml_loglik(params, CountGrid(values)),
                                           rel=1e-12)

    def test_start_on_the_wall_names_the_site_of_a_tuple(self):
        """A 400 in the last cell of a 60x60 0/1 grid is no site's past, so
        the grid is read as tuples; the site's probability at the start is
        below the float range, and the fit converges at the per-site
        log-likelihood of 60-digit arithmetic, within 1e-12 relative."""
        values = np.random.default_rng(8).integers(0, 2, (60, 60))
        values[58:, 58:] = 0
        values[59, 59] = 400
        assert _CmlLikelihood(values, ORDER11).sites.size < 3481 / 4
        fit = cml_estimate(CountGrid(values), ORDER11)
        assert fit.diagnostics.converged
        params = CinarParams(ORDER11, fit.theta, PoissonInnovation(fit.mu_eps))
        assert fit.loglik == pytest.approx(poisson_loglik_mp(params, values),
                                           rel=1e-12)


def _oracle_case(index):
    """(grid, order, family) of the 20 seeded 50x50 fits: Poisson and NB
    (1,1) data, each fitted with its own family and with the other, and
    Poisson (2,2)."""
    kind, k = divmod(index, 4)
    poisson, nb = _poi([0.3, 0.4, 0.1], 1.0), _nb([0.2, 0.2, 0.5], 1.0, 2.0)
    truth, family = [(poisson, "poisson"), (nb, "nb"), (poisson, "nb"),
                     (nb, "poisson"), (None, "poisson")][kind]
    order = ORDER11
    if truth is None:
        order = ModelOrder(2, 2)
        truth = CinarParams(order, np.full(8, 0.1), PoissonInnovation(1.0))
    return _sim(truth, 50, seed=100 * (kind + 1) + k), order, family


class TestTrustRegionAgainstBfgs:
    @pytest.mark.parametrize("index", range(20))
    def test_matches_bfgs(self, index):
        """Interior optima agree with BFGS on the exact score within 1e-5
        (estimates) and 1e-8 relative (log-likelihood); an NB fit of Poisson
        data that ends at the i_eps -> 1 boundary, where the likelihood
        flattens, gets at least as close to its supremum, within 1e-6."""
        grid, order, family = _oracle_case(index)
        fit = cml_estimate(grid, order, family=family)
        estimates, loglik, _ = bfgs_fit(grid, order, family)
        if family == "nb" and fit.i_eps < 1.0 + 1e-3:
            assert fit.loglik >= loglik - 1e-6
        else:
            np.testing.assert_allclose(fit.estimates, estimates, atol=1e-5)
            assert fit.loglik == pytest.approx(loglik, rel=1e-8)

    @pytest.mark.parametrize("seed", range(6))
    def test_boundary_stop_survives_table_rounding(self, seed, monkeypatch):
        """The NB fit of Poisson data that ends at i_eps -> 1 (case 8) gets
        within 1e-6 of the BFGS supremum when every entry of the log table,
        the weights and the ratio tables is moved by one ulp in a seeded
        random direction: where the boundary search stops does not hang on
        the tables' last bits."""
        grid, order, family = _oracle_case(8)
        _, loglik, _ = bfgs_fit(grid, order, family)
        rng = np.random.default_rng(seed)
        build, ratios = estimate_module.log_thinning_table, estimate_module._derivative_ratios

        def perturb(tables):
            towards = np.where(rng.random(tables.shape) < 0.5, -np.inf, np.inf)
            np.copyto(tables, np.nextafter(tables, towards), where=tables != 0.0)
            return tables

        def perturbed_ratios(table, *args):
            out = perturb(ratios(table, *args))
            perturb(table)  # the weights A
            return out

        monkeypatch.setattr(estimate_module, "log_thinning_table",
                            lambda *args: perturb(build(*args)))
        monkeypatch.setattr(estimate_module, "_derivative_ratios", perturbed_ratios)
        fit = cml_estimate(grid, order, family=family)
        assert fit.i_eps < 1.0 + 1e-3
        assert fit.loglik >= loglik - 1e-6


    def test_boundary_designs_take_few_passes(self):
        """The fits that choosing an order or a family by AIC/BIC runs into:
        Poisson (1,1) data fitted at order (2,2), and fitted as NB, over 10
        consecutive seeds each.  Their optima lie on faces theta_ij = 0 or
        i_eps = 1, which the search reaches by projection: a
        median of at most 8 likelihood passes, and no log-likelihood more
        than 1e-6 below the BFGS oracle's."""
        passes = []
        for seed in range(700, 710):
            grid = _sim(_poi([0.3, 0.4, 0.1], 1.0), 50, seed=seed)
            for order, family in [(ModelOrder(2, 2), "poisson"), (ORDER11, "nb")]:
                fit = cml_estimate(grid, order, family=family)
                passes.append(fit.diagnostics.n_fev)
                assert fit.loglik >= bfgs_fit(grid, order, family)[1] - 1e-6
        assert np.median(passes) <= 8, passes

    def test_face_saddle_is_left_inward(self):
        """A 9x8 grid of 124s with a 122 at (0, 0), fitted NB at order (2,1)
        from its CLS start, reaches the corner alpha = 0 with i_eps = 1,
        where every w's score is about 0 and the likelihood is convex along
        w with mu_eps following: the search stopped there at -163.16.  The
        flat w's are released and the step goes inward, towards the
        perfect fit at alpha -> 1 (measured -0.0034)."""
        values = np.full((9, 8), 124)
        values[0, 0] = 122
        fit = cml_estimate(CountGrid(values), ModelOrder(2, 1), family="nb")
        assert fit.loglik > -1.0, fit.diagnostics

    def test_rounding_does_not_release_a_face(self):
        """An 8x10 grid fitted Poisson at order (2,1): from about its 45th
        pass the smallest eigenvalue of the scaled -H over the free and flat
        coordinates is -1e-13, rounding and not curvature.  Releasing the
        flat theta there skipped both stop tests each pass, to the trial
        point limit (140 passes, loglik -55.1365486); a release needs an
        eigenvalue below sqrt(eps) of the scaled Hessian's largest."""
        values = np.array([[1, 0, 1, 0, 0, 0, 0, 2, 0, 1], [1, 0, 0, 0, 0, 1, 1, 0, 0, 1],
                           [1, 1, 0, 0, 0, 0, 2, 0, 2, 1], [2, 1, 1, 0, 2, 0, 2, 2, 2, 1],
                           [2, 1, 3, 0, 1, 2, 2, 0, 2, 1], [1, 1, 1, 0, 1, 1, 2, 2, 2, 2],
                           [2, 2, 1, 1, 2, 2, 2, 2, 2, 2], [2, 1, 1, 0, 2, 2, 1, 3, 2, 2]])
        fit = cml_estimate(CountGrid(values), ModelOrder(2, 1))
        assert fit.diagnostics.n_fev <= 44, fit.diagnostics
        assert fit.loglik >= -55.1365421
        assert fit.diagnostics.message == "projected score below tolerance"

    def test_iteration_limit_is_not_converged(self, monkeypatch):
        """A search cut at the trial point limit reads converged=False,
        though its scaled score, 1.4e-3 one point before the stop on the
        score, is under 1e-5 (1 + |loglik|)."""
        grid = _sim(_poi([0.3, 0.4, 0.1], 1.0), 30, seed=5)
        monkeypatch.setattr(estimate_module, "_MAX_ITER", 3)
        fit = cml_estimate(grid, ORDER11)
        assert fit.diagnostics.message == "iteration limit (3 trial points) reached"
        assert fit.diagnostics.grad_norm <= 1e-5 * (1.0 + abs(fit.loglik))
        assert not fit.diagnostics.converged

    @pytest.mark.parametrize("index", [8, 11])
    def test_nb_fit_of_poisson_data_ends_on_the_floor(self, index):
        """NB fits of Poisson data end with i_eps exactly 1, the face where
        the NB law is Poisson, held there and named as the reason for the
        missing SEs."""
        grid, order, family = _oracle_case(index)
        fit = cml_estimate(grid, order, family=family)
        assert fit.i_eps == 1.0
        assert fit.diagnostics.at_bounds == ("i_eps",)
        assert fit.std_errors is None
        assert "boundary (i_eps = 1)" in fit.diagnostics.se_error


    def test_nb_fits_nest_poisson_fits(self):
        """Poisson is the NB face i_eps = 1, so on Poisson (1,1) data (seeds
        700-709 and the oracle seeds 300-303) no NB fit ends more than
        2e-12 (1 + |loglik|) below the Poisson fit; fits held on the face
        end at i_eps exactly 1 and say so."""
        on_face = 0
        for seed in [*range(700, 710), *range(300, 304)]:
            grid = _sim(_poi([0.3, 0.4, 0.1], 1.0), 50, seed=seed)
            nb = cml_estimate(grid, ORDER11, family="nb")
            poisson = cml_estimate(grid, ORDER11)
            assert nb.loglik >= poisson.loglik - 2e-12 * (1 + abs(poisson.loglik))
            if nb.diagnostics.at_bounds:
                on_face += 1
                assert nb.diagnostics.at_bounds == ("i_eps",)
                assert nb.i_eps == 1.0
                assert "(i_eps = 1)" in nb.diagnostics.se_error
        assert on_face >= 7


def _tuple_case(case):
    """(grid, order, family name, free lag indices, parameter vector) on
    grids of counts capped at 4, which the likelihood reads as (x, past)
    tuples."""
    o21 = ModelOrder(2, 1)
    theta21 = np.array([0.05, 0.1, 0.05, 0.05, 0.05])
    grid, order, free = {
        "poisson-11": lambda: (_sim(_poi([0.2, 0.2, 0.2], 0.8), 60, seed=5),
                               ORDER11, [0, 1, 2]),
        "nb-11": lambda: (_sim(_nb([0.2, 0.2, 0.2], 0.5, 2.0), 80, seed=5),
                          ORDER11, [0, 1, 2]),
        "poisson-21": lambda: (_sim(CinarParams(o21, theta21, PoissonInnovation(0.5)),
                                    80, seed=5), o21, [0, 1, 2, 3, 4]),
        "nb-21": lambda: (_sim(CinarParams(o21, theta21, NbMarginalInnovation
                                           .from_targets(0.5, 2.0, 0.3)),
                               80, seed=5), o21, [0, 1, 2, 3, 4]),
        "poisson-21-fixed": lambda: (_sim(CinarParams(o21, theta21, PoissonInnovation(0.5)),
                                          80, seed=6), o21, [0, 1, 3, 4]),
    }[case]()
    grid = CountGrid(np.minimum(grid.values, 4))
    family = case.split("-")[0]
    extra = [0.7] + [1.8] * (family == "nb")
    return grid, order, family, free, np.concatenate([theta21[free] * 2.0, extra])


class TestTuplePass:
    """The pass over distinct (x, past) tuples, weighted by their counts,
    against the same pass read site by site (``_cml_oracle``)."""

    @pytest.mark.parametrize("case", ["poisson-11", "nb-11", "poisson-21", "nb-21",
                                      "poisson-21-fixed"])
    def test_pass_matches_per_site_reference(self, case):
        """Log-likelihood within 1e-12 relative; score and Hessian within
        1e-10 of their largest entry."""
        grid, order, family, free, vec = _tuple_case(case)
        fam = innovation_family(family)
        likelihood = _CmlLikelihood(grid.values, order, fam, lags=free)
        assert likelihood.n_sites == (grid.n1 - order.p1) * (grid.n2 - order.p2)
        assert likelihood.sites.size < likelihood.n_sites / 2
        value, score, hess = likelihood.value_score_hessian(vec)
        want_value, want_score, want_hess = per_site_pass(
            grid.values, order, fam, vec, lags=free)
        assert value == pytest.approx(want_value, rel=1e-12)
        assert np.max(np.abs(score - want_score)) <= 1e-10 * np.max(np.abs(want_score))
        assert np.max(np.abs(hess - want_hess)) <= 1e-10 * np.max(np.abs(want_hess))

    def test_fit_counts_interior_sites(self):
        """The information criteria re-scale over the interior sites, not the
        tuples, and the fit ends at the per-site pass's maximum."""
        grid, order, _, free, _ = _tuple_case("poisson-21-fixed")
        fit = cml_estimate(grid, order, fix_zero=("theta_11",))
        n_ell = (grid.n1 - order.p1) * (grid.n2 - order.p2)
        assert (fit.aic, fit.bic) == information_criteria(
            fit.loglik, 5, grid.n1, grid.n2, n_ell)
        vec = np.append(fit.estimates[free], fit.mu_eps)
        value, score, _ = per_site_pass(grid.values, order, PoissonInnovation, vec,
                                        lags=free)
        assert fit.loglik == pytest.approx(value, rel=1e-12)
        assert fit.diagnostics.converged and np.max(np.abs(score)) < 1e-4

    def test_refusal_counts_interior_sites(self):
        """A 3x3 all-zero grid is one tuple but four interior sites: refused
        for its four free parameters, naming the sites."""
        with pytest.raises(ValidationError, match=(
                r"the grid has 4 interior site\(s\) for 4 free parameters")):
            cml_estimate(CountGrid(np.zeros((3, 3), dtype=int)), ORDER11)


def _reference_point(index):
    """(grid, order, family, vec) of ``_oracle_case(index)``, or of the
    300x300 Poisson (2,2) grid of the fit-300 benchmark (index "fit-300"),
    at the data's parameters: the fits' scores are far from zero there."""
    if index == "fit-300":
        params = CinarParams(ModelOrder(2, 2), np.full(8, 0.1), PoissonInnovation(5.0))
        seed = int(np.random.SeedSequence([0, 2]).generate_state(1)[0])
        return (simulate_cinar(SimConfig(params, 300, 300, seed=seed)),
                params.order, "poisson", np.append(params.theta, 5.0))
    grid, order, family = _oracle_case(index)
    theta = {0: [0.3, 0.4, 0.1], 1: [0.2, 0.2, 0.5], 2: [0.3, 0.4, 0.1],
             3: [0.2, 0.2, 0.5], 4: [0.1] * 8}[index // 4]
    extra = [1.0, 2.0] if family == "nb" else [1.0]
    return grid, order, family, np.array(theta + extra)


class TestLogFormPass:
    """The pass in log and ratio form against independent references."""

    @pytest.mark.parametrize("index", [*range(20), "fit-300"])
    def test_pass_matches_probability_space_reference(self, index):
        """On the 20 oracle grids and fit-300's, where no probability
        underflows, the pass equals ``_cml_oracle``'s probability-space
        pass, site by site: log-likelihood within 1e-10 relative, score and
        Hessian within 1e-10 of their largest entry."""
        grid, order, family, vec = _reference_point(index)
        fam = innovation_family(family)
        value, score, hess = _CmlLikelihood(grid.values, order, fam).value_score_hessian(vec)
        want_value, want_score, want_hess = per_site_pass(grid.values, order, fam, vec)
        assert value == pytest.approx(want_value, rel=1e-10)
        assert np.max(np.abs(score - want_score)) <= 1e-10 * np.max(np.abs(want_score))
        assert np.max(np.abs(hess - want_hess)) <= 1e-10 * np.max(np.abs(want_hess))

    @pytest.mark.parametrize("family, vec", [("poisson", (0.6, 2.0)),
                                             ("nb", (0.6, 2.0, 3.0))])
    def test_tables_match_mpmath_at_a_count_of_1000(self, family, vec):
        """L = log C and every ratio table of a pass, on a table of 1001 x
        1001 cells, against 60-digit arithmetic at cells across it, where C
        lies far below the float range (log C down to -5221 and -917): L
        within 1e-13 relative and each ratio entry within 1e-10 relative
        (measured 1.3e-15 and 6.8e-12)."""
        import mpmath as mp

        cells = [(0, 0), (0, 1000), (1000, 0), (1000, 1000), (3, 997), (500, 200),
                 (700, 900), (999, 1)]
        law = innovation_family(family).from_params(vec[1:], vec[0])
        table = estimate_module.log_thinning_table(
            [vec[0]], law._log_pmf_table(1000)[None], 1000)
        at = tuple(np.array(cells).T)
        got = np.concatenate([table[0][at][None],
                              estimate_module._derivative_ratios(
                                  table, np.array([vec[0]]), [law], np.array([1000]))[0][
                                  (slice(None),) + at]])
        with mp.workdps(60):
            want = thinning_cells_mp(vec, cells, 1000)
        assert want[0].min() < -900
        np.testing.assert_allclose(got[0], want[0], rtol=1e-13, atol=0)
        np.testing.assert_allclose(got[1:], want[1:], rtol=1e-10, atol=0)

    @pytest.mark.parametrize("count", [200, 300, 500])
    def test_outlier_grid_fits_as_poisson(self, count):
        """The seeded 50x50 Poisson (1,1) grid with one cell set to 200, 300
        or 500: whose probability is far below the float range at every
        trial point: the Poisson fit converges, with finite standard errors
        or a stated reason, at the per-site log-likelihood of 60-digit
        arithmetic."""
        params = _poi([0.3, 0.3, 0.1], 1.0)
        values = np.array(simulate_cinar(SimConfig(params, 50, 50, seed=11)).values)
        values[25, 25] = count
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = cml_estimate(CountGrid(values), ORDER11)
        assert fit.diagnostics.converged and fit.diagnostics.n_fev <= 20
        if fit.std_errors is None:
            assert fit.diagnostics.se_error
        else:
            assert np.all(np.isfinite(fit.std_errors))
        fitted = CinarParams(ORDER11, fit.theta, PoissonInnovation(fit.mu_eps))
        assert fit.loglik == pytest.approx(poisson_loglik_mp(fitted, values), rel=1e-12)


class TestFitDiagnostics:
    def test_counts_and_stop_reason(self):
        grid = _sim(_poi([0.2, 0.2, 0.35], 1.5), 30, seed=55)
        diag = cml_estimate(grid, ORDER11).diagnostics
        assert diag.n_fev >= diag.n_grad > 0
        assert isinstance(diag.message, str) and diag.message
        assert diag.se_error is None

    def test_missing_standard_errors_carry_a_reason(self):
        grid = _sim(_poi([1e-6, 1e-6, 1e-6], 1.0), 40, seed=12, burn=30)
        fit = cml_estimate(grid, ORDER11)
        assert fit.std_errors is None
        assert "boundary" in fit.diagnostics.se_error

    def test_at_bounds_names_the_held_coefficients(self):
        """(1,1) data with theta_11 = 0: the fit ends on that face, with
        theta_11 exactly 0 and named; an interior fit holds nothing."""
        grid = _sim(_poi([0.3, 0.4, 0.0], 1.0), 50, seed=8001)
        fit = cml_estimate(grid, ORDER11)
        assert fit.diagnostics.at_bounds == ("theta_11",)
        assert fit.estimates[2] == 0.0
        assert fit.diagnostics.se_error == (
            "estimate on the constraint boundary (theta_11 = 0)")
        assert fit.diagnostics.converged
        interior = cml_estimate(_sim(_poi([0.3, 0.4, 0.1], 1.0), 50, seed=3),
                                ORDER11)
        assert interior.diagnostics.at_bounds == ()
        assert interior.diagnostics.message in (
            "Newton step gain below tolerance", "projected score below tolerance")

    def test_closed_form_estimators_report_no_optimizer_work(self):
        grid = _sim(_poi([0.2, 0.2, 0.35], 1.5), 20, seed=4)
        diag = cls_estimate(grid, ORDER11).diagnostics
        assert (diag.n_fev, diag.n_grad, diag.message, diag.se_error) == (
            0, 0, None, None)


# =============================================================================
# Observed-information standard errors
# =============================================================================


class TestObservedFisherSe:
    def test_matches_analytic_hessian_on_quadratic(self):
        """fd_hessian reproduces a known constant Hessian to high accuracy."""
        amat = np.array([[3.0, 0.4], [0.4, 2.0]])

        def f(v):
            return -0.5 * float(v @ amat @ v) + float(np.array([0.1, -0.2]) @ v)

        hess = fd_hessian(f, np.array([0.3, -0.7]))
        np.testing.assert_allclose(hess, -amat, atol=1e-6)

    def test_saddle_function_rejected(self):
        """A saddle in place of the likelihood triggers the maximum check."""
        def saddle(v):
            return float(v[0] ** 2 - np.sum(v[1:] ** 2))

        vec = np.array([0.2, 0.2, 0.3, 1.0])
        with pytest.raises(NumericalError, match="not at a maximum"):
            _se_from_loglik(fd_hessian(saddle, vec), vec, np.zeros(4))

    def test_se_at_cml_optimum_positive_and_finite(self):
        grid = _sim(_poi([0.3, 0.4, 0.1], 1.0), 40, seed=33)
        fit = cml_estimate(grid, ORDER11)
        se = observed_information_se(grid, ORDER11, PoissonInnovation,
                                     fit.estimates)
        assert se.shape == (4,)
        assert np.all(np.isfinite(se)) and np.all(se > 0)
        np.testing.assert_allclose(se, fit.std_errors, atol=1e-10)

    def test_peak_memory_on_a_large_grid(self):
        """On 300x300 at order (2,2), the standard errors peak below twice
        what the likelihood object holds (flat indices and site values)."""
        import tracemalloc

        params = CinarParams(ModelOrder(2, 2), np.full(8, 0.1),
                             PoissonInnovation(5.0))
        grid = _sim(params, 300, seed=7, burn=20)
        n_sites = 298 * 298
        vec = np.append(params.theta, 5.0)
        tracemalloc.start()
        try:
            likelihood = _CmlLikelihood(grid.values, params.order,
                                        PoissonInnovation)
            hess = likelihood.value_score_hessian(vec)[2]
            se = _se_from_loglik(hess, vec, np.zeros(9))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(se)) and np.all(se > 0)
        assert peak < 4 * 8 * n_sites * 8, peak

    def test_boundary_point_refused(self):
        grid = _sim(_poi([0.2, 0.2, 0.3], 1.0), 12, seed=3, burn=20)
        hugging = np.array([1e-9, 0.2, 0.2, 1.0])
        likelihood = _CmlLikelihood(grid.values, ORDER11, PoissonInnovation)
        hess = likelihood.value_score_hessian(hugging)[2]
        assert np.all(np.isfinite(hess))
        with pytest.raises(NumericalError, match="boundary"):
            _se_from_loglik(hess, hugging, np.zeros(4))

    def test_rate_across_grid_sizes(self):
        """SEs shrink roughly like 1/sqrt(n1*n2): 20x20 vs 80x80 in [3, 5]."""
        params = _poi([0.2, 0.2, 0.35], 1.5)
        se_small, se_large = [], []
        for r in range(3):
            f_small = cml_estimate(_sim(params, 20, seed=500 + r, burn=60), ORDER11)
            f_large = cml_estimate(_sim(params, 80, seed=600 + r, burn=60), ORDER11)
            se_small.append(f_small.std_errors)
            se_large.append(f_large.std_errors)
        ratio = np.mean(se_small, axis=0) / np.mean(se_large, axis=0)
        assert np.all(ratio > 3.0) and np.all(ratio < 5.0), ratio


@st.composite
def _edge_fit_case(draw):
    """A small grid simulated at an edge of the parameter space, counts
    capped at up to 500 (0 gives an all-zero grid), and the family to fit
    to it."""
    p1, p2 = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]))
    order = ModelOrder(p1, p2)
    n1, n2 = draw(st.one_of(
        st.just((p1 + 1, p2 + 1)),
        st.tuples(st.just(1), st.integers(1, 12)),
        st.tuples(st.integers(1, 12), st.integers(1, 12)),
    ))
    alpha = draw(st.floats(1e-3, 0.99))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=order.n_lags,
                                     max_size=order.n_lags)))
    theta = alpha * weights / weights.sum()
    mu_eps = draw(st.floats(1e-3, 1e3))
    i_eps = draw(st.one_of(st.none(), st.floats(1.05, 50.0)))
    innovation = (PoissonInnovation(mu_eps) if i_eps is None else
                  NbMarginalInnovation.from_targets(mu_eps, i_eps, theta.sum()))
    config = SimConfig(CinarParams(order, theta, innovation), n1=n1, n2=n2,
                       burn_in=20, seed=draw(st.integers(0, 2**31 - 1)))
    cap = draw(st.integers(0, 500))
    grid = CountGrid(np.minimum(simulate_cinar(config).values, cap))
    return grid, order, draw(st.sampled_from(["poisson", "nb"]))


def _assert_same_fit(got, want):
    """Two CML fits agree bit for bit, diagnostics included."""
    assert got.names == want.names and got.admissible == want.admissible
    assert got.estimates.tobytes() == want.estimates.tobytes()
    assert (got.std_errors is None) == (want.std_errors is None)
    if want.std_errors is not None:
        assert got.std_errors.tobytes() == want.std_errors.tobytes()
    assert np.array([got.loglik, got.aic, got.bic]).tobytes() == np.array(
        [want.loglik, want.aic, want.bic]).tobytes()
    assert got.diagnostics == want.diagnostics


class TestLockstepFits:
    """``_cml_fits`` runs the searches of several grids in lockstep, one
    stacked pass per round; each fit is the grid's ``cml_estimate``."""

    # (n, mu_eps, seed): grids of different n_max and x_max
    GRIDS = [(20, 0.5, 1), (25, 1.0, 2), (30, 2.0, 3), (18, 3.0, 4), (22, 1.5, 5)]

    @staticmethod
    def _grids(family, order, count):
        out = []
        for n, mu, seed in TestLockstepFits.GRIDS[:count]:
            theta = np.full(order.n_lags, 0.5 / order.n_lags)
            law = (PoissonInnovation(mu) if family == "poisson" else
                   NbMarginalInnovation.from_targets(mu, 2.0, theta.sum()))
            out.append(_sim(CinarParams(order, theta, law), n, seed))
        return out

    @pytest.mark.parametrize("count", [1, 2, 5])
    @pytest.mark.parametrize("family, order", [
        ("poisson", ORDER11), ("poisson", ModelOrder(2, 2)), ("nb", ORDER11)])
    def test_batch_fits_are_the_fits_alone(self, family, order, count):
        grids = self._grids(family, order, count)
        shapes = {(_CmlLikelihood(g.values, order).n_max,
                   _CmlLikelihood(g.values, order).x_max) for g in grids}
        assert len(shapes) == count
        fits = estimate_module._cml_fits(grids, order, family)
        for grid, fit in zip(grids, fits):
            _assert_same_fit(fit, cml_estimate(grid, order, family=family))

    @pytest.mark.parametrize("family", ["poisson", "nb"])
    def test_grids_of_both_ratio_rules_in_one_batch(self, family):
        """An NB grid whose counts end at 2 takes Horner's rule over every
        row, the others thin row 0: in one batch each keeps its own rule."""
        sparse = CountGrid(np.random.default_rng(3).integers(0, 3, (12, 12)))
        grids = self._grids(family, ORDER11, 2)
        grids.insert(1, sparse)
        fits = estimate_module._cml_fits(grids, ORDER11, family)
        for grid, fit in zip(grids, fits):
            _assert_same_fit(fit, cml_estimate(grid, ORDER11, family=family))

    def test_refused_and_long_fits_in_one_batch(self):
        """A 2x2 grid is refused with cml_estimate's reason, and a 6x6 grid
        of 5s takes 41 passes, the others dropping out of the rounds one by
        one; every other fit is still its fit alone."""
        grids = self._grids("poisson", ORDER11, 3)
        grids[1:1] = [CountGrid(np.array([[1, 2], [0, 3]])), CountGrid(np.full((6, 6), 5))]
        fits = estimate_module._cml_fits(grids, ORDER11)
        with pytest.raises(ValidationError) as refused:
            cml_estimate(grids[1], ORDER11)
        assert isinstance(fits[1], ValidationError)
        assert str(fits[1]) == str(refused.value)
        assert str(fits[1]).startswith("CML needs more interior sites")
        assert fits[2].diagnostics.n_fev == 41
        assert max(fits[k].diagnostics.n_fev for k in (0, 3, 4)) < 41
        for k in (0, 2, 3, 4):
            _assert_same_fit(fits[k], cml_estimate(grids[k], ORDER11))


    @staticmethod
    def _capped(count, seed, family):
        """A 12x12 grid whose largest count, at an interior site, is
        ``count``, so its n_max and x_max are ``count``."""
        rng = np.random.default_rng(seed)
        values = rng.poisson(3.0, (12, 12)) if family == "poisson" else (
            rng.negative_binomial(2, 0.4, (12, 12)))
        values = np.minimum(values, count - 1)
        values[5, 6] = count
        return CountGrid(values)

    @pytest.mark.parametrize("family, order", [
        ("poisson", ORDER11), ("poisson", ModelOrder(2, 2)), ("nb", ORDER11)])
    def test_grids_on_both_sides_of_a_padding_boundary(self, family, order):
        """Grids whose n_max and x_max are 15, 16 and 17 read their tables
        at 16 and 32 columns and rows: in one batch, on either side of the
        boundary and of both ratio rules (an NB grid of counts up to 2 takes
        Horner's rule over every row), each fit is its fit alone."""
        grids = [self._capped(count, seed, family)
                 for seed, count in enumerate([15, 16, 17, 15, 17])]
        grids.insert(2, CountGrid(np.random.default_rng(3).integers(0, 3, (12, 12))))
        shapes = {(estimate_module._padded(g.values.max() + 1)) for g in grids}
        assert shapes == {16, 32}
        fits = estimate_module._cml_fits(grids, order, family)
        for grid, fit in zip(grids, fits):
            _assert_same_fit(fit, cml_estimate(grid, order, family=family))

    @pytest.mark.parametrize("width", [1, 3, 16, 48])
    def test_poisson_series_equal_a_fresh_build(self, width):
        """Poisson's ratio series do not depend on mu: the fixed rows equal
        h_a and h_a * h_b + hh_ab, a <= b, of each law's derivative series."""
        laws = [PoissonInnovation(0.5), PoissonInnovation(7.0)]
        series = PoissonInnovation._ratio_series(laws, width)
        for law, rows in zip(laws, series):
            h, hh = law.derivative_series(width - 1)
            pairs = [np.convolve(h[a], h[b])[:width] + hh[a, b] for a, b in ((0, 0), (0, 1), (1, 1))]
            np.testing.assert_array_equal(rows, np.vstack([h] + pairs))

    def test_round_calls_do_not_grow_with_the_grids(self):
        """One round of a stacked pass over 8 grids of one padded shape
        makes at most 1.5 times the Python-level calls of a round over one:
        every table-side stage is one call for the stack."""
        import cProfile
        import pstats

        grids = [_sim(_poi([0.3, 0.3, 0.2], 0.5), 30, seed=seed) for seed in range(8)]
        vec = np.array([0.3, 0.3, 0.2, 0.5])

        def calls(stack):
            laws = [estimate_module._law_at(innovation_family("poisson"), vec, 3)] * len(
                stack.live)
            stack.value_score_hessian([vec] * len(stack.live), laws)
            profile = cProfile.Profile()
            profile.enable()
            stack.value_score_hessian([vec] * len(stack.live), laws)
            profile.disable()
            return sum(row[1] for row in pstats.Stats(profile).stats.values())

        stack = estimate_module._Stack(
            [_CmlLikelihood(g.values, ORDER11, innovation_family("poisson")) for g in grids])
        assert len(stack.groups) == 1
        many = calls(stack)
        stack.arrange([0])
        one = calls(stack)
        assert many <= 1.5 * one, (one, many)

    @pytest.mark.parametrize("room, sizes", [(0, [1, 1, 1, 1, 1]), (10**7, [5])])
    def test_batches_are_cut_at_the_budget_and_released(self, monkeypatch, room, sizes):
        """The budget counts the grids given: with no room past them each
        grid runs alone, with room for all one batch takes the five.  A
        batch's likelihoods are built just before its searches (at most the
        next batch's first besides them is alive) and every fit is its fit
        alone."""
        import weakref

        grids = self._grids("poisson", ORDER11, 5)
        alive, batches = weakref.WeakSet(), []
        init, lockstep = _CmlLikelihood.__init__, estimate_module._lockstep

        def tracked(self, *args, **kwargs):
            init(self, *args, **kwargs)
            alive.add(self)

        def watched(likelihoods, starts, lo, m):
            batches.append(len(likelihoods))
            assert len(alive) <= len(likelihoods) + 1
            return lockstep(likelihoods, starts, lo, m)

        monkeypatch.setattr(_CmlLikelihood, "__init__", tracked)
        monkeypatch.setattr(estimate_module, "_lockstep", watched)
        monkeypatch.setattr(estimate_module, "_STACK_CELLS",
                            sum(grid.values.size for grid in grids) + room)
        fits = estimate_module._cml_fits(grids, ORDER11)
        assert batches == sizes
        monkeypatch.undo()
        for grid, fit in zip(grids, fits):
            _assert_same_fit(fit, cml_estimate(grid, ORDER11))


    def test_pass_over_several_padded_shapes_holds_one_group_at_a_time(self):
        """One pass over NB grids of four padded shapes (16, 32, and sides
        of 46 and 60 kept), one grid each, peaks within the stack's table
        set and one group's padded copies, plus 3 m + q + 6 = 18 cells per
        tuple: every group's copies at once would take more."""
        import tracemalloc

        family = innovation_family("nb")
        likelihoods = [_CmlLikelihood(self._capped(count, seed, "nb").values, ORDER11, family)
                       for seed, count in enumerate([12, 20, 45, 59])]
        stack = estimate_module._Stack(likelihoods)
        assert len(stack.groups) == 4
        vec = np.array([0.2, 0.2, 0.2, 1.0, 2.0])
        laws = [estimate_module._law_at(family, vec, 3)] * 4
        stack.value_score_hessian([vec] * 4, laws)  # lazy set-up outside the trace
        tracemalloc.start()
        try:
            assert all(score is not None for _, score, _ in stack.value_score_hessian(
                [vec] * 4, laws))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tuples = sum(likelihood.sites.size for likelihood in likelihoods)
        assert peak <= 8 * (60 * 60 * likelihoods[0].tables * (4 + 1) + 18 * tuples), peak


class TestPassMemoryBudget:
    """One score-and-Hessian pass holds about 10-19 thinning tables; a fit
    whose pass would exceed 2**27 cells (1 GiB) is refused up front."""

    def test_refused_before_any_table_is_built(self):
        """One count of 3,500 (a 12 M-cell table) would take 1.3 GiB in an
        NB pass; the constructor refuses, naming the count and the size."""
        values = np.random.default_rng(0).poisson(3.0, (12, 12))
        values[6, 6] = 3500
        with pytest.raises(ValidationError, match=(
                r"^count 3500 is too large for a nb CML fit: a likelihood pass"
                r" would take 1\.3 GiB, above 1 GiB$")):
            _CmlLikelihood(values, ModelOrder(1, 1), innovation_family("nb"))

    def test_count_of_2500_is_admitted_for_nb(self):
        """One count of 2,500 takes 0.65 GiB in an NB (1,1) pass that holds
        each table once: admitted (no pass is run here)."""
        values = np.random.default_rng(0).poisson(3.0, (12, 12))
        values[6, 6] = 2500
        likelihood = _CmlLikelihood(values, ModelOrder(1, 1),
                                    innovation_family("nb"))
        assert likelihood.n_max == likelihood.x_max == 2500

    def test_large_count_that_is_only_a_past_is_admitted(self):
        """A count of 5,000 in the first row is never an outcome: the table
        has 5,001 rows of the outcomes' width, about 50k cells, so the
        log-likelihood, the PIT and the fit all take it."""
        values = np.random.default_rng(3).poisson(3.0, (10, 10))
        values[0, 4] = 5000
        grid = CountGrid(values)
        params = _poi([0.2, 0.2, 0.2], 2.0)
        assert np.isfinite(cml_loglik(params, grid))
        assert np.mean(pit_histogram(params, grid)) == pytest.approx(1.0)
        fit = cml_estimate(grid, ORDER11)
        assert np.isfinite(fit.loglik) and fit.diagnostics.converged

    def test_counts_up_to_1000_are_admitted(self):
        """A 12x12 grid of counts up to 1,000 (a 7.6 MiB table, 0.1 GiB
        passes) still fits; the one-table log-likelihood takes no budget."""
        values = np.random.default_rng(1).integers(0, 1001, (12, 12))
        values[6, 6] = 1000
        for family in ("poisson", "nb"):
            _CmlLikelihood(values, ModelOrder(1, 1), innovation_family(family))
        values[6, 6] = 3000
        assert _CmlLikelihood(values, ModelOrder(1, 1)).n_max == 3000

    @pytest.mark.parametrize("p1, p2", [(1, 1), (2, 2)])
    @pytest.mark.parametrize("family", ["poisson", "nb"])
    def test_pass_peak_is_the_estimate(self, p1, p2, family):
        """tracemalloc's peak over one pass is ``_pass_tables`` tables, to
        within 2% (the per-site arrays of a 12x12 grid are small)."""
        import tracemalloc

        order, fam = ModelOrder(p1, p2), innovation_family(family)
        values = np.random.default_rng(2).integers(0, 200, (12, 12))
        values[6, 6] = 200
        likelihood = _CmlLikelihood(values, order, fam)
        vec = np.concatenate([np.full(order.n_lags, 0.5 / order.n_lags), [50.0],
                              [2.0] * (len(fam.param_names) - 1)])
        likelihood.value_score_hessian(vec)  # lazy set-up outside the trace
        tracemalloc.start()
        try:
            assert likelihood.value_score_hessian(vec)[1] is not None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tables = _pass_tables(order.n_lags, 1 + len(fam.param_names))
        ratio = peak / (8 * 201 * 201 * tables)
        assert 0.98 < ratio <= 1.02, ratio


class TestStandardErrorEdges:
    def test_all_zero_grid_ends_without_warnings(self):
        """The dependence is flat on an all-zero grid: trust-region steps
        along it run until alpha rounds towards 0, and are refused there
        rather than differentiated."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = cml_estimate(CountGrid(np.zeros((3, 6), dtype=int)), ORDER11)
        assert np.isfinite(fit.loglik) and fit.diagnostics.converged

    @pytest.mark.parametrize("shape", [(3, 10), (6, 6)])
    @pytest.mark.parametrize("count", [1, 5, 50, 412])
    def test_constant_grid_converges(self, shape, count):
        """Constant grids fit perfectly in the limit alpha -> 1, mu_eps ->
        0; the search runs towards that corner and ends converged."""
        fit = cml_estimate(CountGrid(np.full(shape, count)), ORDER11)
        assert fit.diagnostics.converged
        assert fit.loglik >= -1e-5

    def test_constant_nb_grid_of_hundreds_converges(self):
        """A 7x8 grid of 487s fitted NB runs to the perfect-fit corner and
        ends converged on the score test, within 2e-6 of the supremum 0."""
        fit = cml_estimate(CountGrid(np.full((7, 8), 487)), ORDER11, family="nb")
        assert fit.diagnostics.converged
        assert fit.diagnostics.message == "projected score below tolerance"
        assert fit.loglik >= -2e-6

    @settings(max_examples=40, deadline=None)
    @given(case=_edge_fit_case())
    @example(case=(CountGrid(np.full((3, 10), 412)), ORDER11, "poisson"))
    def test_fit_ends_with_errors_or_a_reason(self, case):
        """Finite SEs or a reason for their absence, or a cinar error with a
        message; never a numpy warning."""
        grid, order, family = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                fit = cml_estimate(grid, order, family=family)
            except (ValidationError, NumericalError) as exc:
                assert str(exc)
                return
        if fit.std_errors is None:
            assert fit.diagnostics.se_error
        else:
            assert np.all(np.isfinite(fit.std_errors))
            assert fit.diagnostics.se_error is None


# =============================================================================
# FitResult container
# =============================================================================


class TestFitResult:
    def test_yw_carries_dispersion_cls_does_not(self):
        grid = _sim(_poi([0.2, 0.2, 0.35], 1.5), 20, seed=4)
        yw = yw_estimate(grid, ORDER11)
        cls = cls_estimate(grid, ORDER11)
        assert yw.i_eps is not None
        assert cls.i_eps is None
        assert yw.alpha == pytest.approx(float(yw.theta.sum()))
        assert yw.names[:3] == ("theta_01", "theta_10", "theta_11")

    def test_moment_methods_refuse_cml_only_fields(self):
        diag = FitDiagnostics(n_iter=0, converged=True)
        with pytest.raises(ValidationError, match="CML only"):
            FitResult(
                method="YW", names=("theta_01", "mu_eps"),
                estimates=np.array([0.2, 1.0]), admissible=True,
                diagnostics=diag, loglik=-10.0,
            )

    def test_rejects_unknown_method_and_shape_mismatch(self):
        diag = FitDiagnostics(n_iter=0, converged=True)
        with pytest.raises(ValidationError, match="method"):
            FitResult(
                method="MAP", names=("mu_eps",), estimates=np.array([1.0]),
                admissible=True, diagnostics=diag,
            )
        with pytest.raises(ValidationError, match="equal length"):
            FitResult(
                method="CLS", names=("a", "b"), estimates=np.array([1.0]),
                admissible=True, diagnostics=diag,
            )
