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
    innovation_family,
    sample_acf,
    simulate_cinar,
    yw_estimate,
)
import cinar.estimate as estimate_module
from cinar.estimate import (FitDiagnostics, FitResult, _CmlLikelihood,
                            _se_from_loglik, _solve_checked)

from _bfgs_oracle import bfgs_fit
from _hessian_oracle import (fd_hessian, observed_information_se,
                             score_difference_hessian)
from _stats_helpers import lagged_stack, nb_law_mp, nb_pmf_mp, nb_targets_mp

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
        that underflows to 0: -inf plus a warning naming the grid cell."""
        values = np.zeros((5, 5), dtype=int)
        values[2, 3] = 2000
        params = _poi([0.2, 0.2, 0.3], 1.0)
        with pytest.warns(UserWarning, match=r"zero conditional probability;"
                          r" first at grid cell \(2, 3\)"):
            value = cml_loglik(params, CountGrid(values))
        assert value == -np.inf

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
        """The chain rule into the optimizer's coordinates, curvature of the
        bijection included: the score against differences of the
        log-likelihood, the Hessian against differences of the score, away
        from the optimum."""
        grid = _sim(_nb([0.2, 0.2, 0.5], 1.0, 2.0), 30, seed=4)
        likelihood = _CmlLikelihood(grid.values, ORDER11, NbMarginalInnovation)
        lower = NbMarginalInnovation.lower_bounds
        z = estimate_module._pack(np.array([0.22, 0.18, 0.45]), [1.1, 2.3], lower)

        def in_z(v):
            vec = np.concatenate(estimate_module._unpack(v, 3, lower))
            loglik, score, hess = likelihood.value_score_hessian(vec)
            return (loglik,) + estimate_module._chain_to_z(v, 3, score, hess)

        _, grad, hess = in_z(z)
        want = _central_diff(lambda v: in_z(v)[0], z)
        np.testing.assert_allclose(grad, want, rtol=1e-6)
        rows = [_central_diff(lambda v: in_z(v)[1][i], z) for i in range(z.size)]
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
            point = nb_targets_mp(mp.mpf(nu), mp.mpf(pi), mp.mpf(alpha))
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
            point = nb_targets_mp(mp.mpf(nu), mp.mpf(pi), mp.mpf(alpha))
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
        """A 50x50 fit, standard errors included, builds <= 50 tables.

        Finite-difference gradients would need several hundred.
        """
        truth = (_poi([0.3, 0.4, 0.1], 1.0) if family == "poisson"
                 else _nb([0.2, 0.2, 0.5], 1.0, 2.0))
        grid = _sim(truth, 50, seed=202)
        builds = []
        build = estimate_module.thinning_convolution_table

        def counting(*args, **kwargs):
            builds.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(estimate_module, "thinning_convolution_table",
                            counting)
        fit = cml_estimate(grid, ORDER11, family=family)
        assert fit.diagnostics.converged and fit.std_errors is not None
        assert len(builds) <= 50
        assert fit.diagnostics.n_fev == len(builds)
        assert 0 < fit.diagnostics.n_grad <= fit.diagnostics.n_fev

    @pytest.mark.parametrize("family", ["poisson", "nb"])
    def test_newton_fit_builds_at_most_twelve_tables(self, family, monkeypatch):
        """A 50x50 fit takes one table build per likelihood pass, at most 12
        in all; the standard errors reuse the last Hessian and build none."""
        truth = (_poi([0.3, 0.4, 0.1], 1.0) if family == "poisson"
                 else _nb([0.2, 0.2, 0.5], 1.0, 2.0))
        grid = _sim(truth, 50, seed=202)
        builds, se_builds = [], []
        build = estimate_module.thinning_convolution_table
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

        monkeypatch.setattr(estimate_module, "thinning_convolution_table",
                            counting)
        monkeypatch.setattr(estimate_module, "_se_from_loglik", watched_se)
        fit = cml_estimate(grid, ORDER11, family=family)
        assert fit.diagnostics.converged and fit.std_errors is not None
        assert len(builds) <= 12
        assert fit.diagnostics.n_fev == len(builds)
        assert se_builds == [0]

    def test_line_search_across_the_wall_ends_without_warnings(self, monkeypatch):
        """Trial points of zero likelihood are refused, not differentiated.

        A count of 200 with an all-zero past has a probability that
        underflows to 0 once mu_eps drops below about 1.8; starting at
        mu_eps = 400, a trust-region step on the way down steps past that
        wall.
        """
        values = np.array(_sim(_poi([0.3, 0.4, 0.1], 3.0), 30, seed=3).values)
        values[10, 9] = values[9, 10] = values[9, 9] = 0
        values[10, 10] = 200
        grid = CountGrid(values)
        init = FitResult(method="CML",
                         names=("theta_01", "theta_10", "theta_11", "mu_eps"),
                         estimates=np.array([0.3, 0.4, 0.1, 400.0]),
                         admissible=True, diagnostics=FitDiagnostics(0, True))
        walls = []
        value_score_hessian = _CmlLikelihood.value_score_hessian

        def watched(self, vec):
            loglik, score, hess = value_score_hessian(self, vec)
            if score is None:
                walls.append(vec)
            return loglik, score, hess

        monkeypatch.setattr(_CmlLikelihood, "value_score_hessian", watched)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                fit = cml_estimate(grid, ORDER11, init=init)
            except NumericalError as exc:
                assert "grid cell" in str(exc)
            else:
                assert fit.diagnostics.converged
                assert np.isfinite(fit.loglik)
        assert walls, "no trial point reached the wall"

    def test_every_start_on_the_wall_names_the_site(self):
        """Zero likelihood at the start: a NumericalError locating the site."""
        values = np.ones((12, 12), dtype=int)
        values[5, 6] = values[6, 5] = values[5, 5] = 0
        values[6, 6] = 400
        with pytest.raises(NumericalError, match=r"grid cell \(6, 6\)"):
            cml_estimate(CountGrid(values), ORDER11)


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
        within 1e-6 of the BFGS supremum when every table entry is moved
        by one ulp in a seeded random direction: where the boundary
        search stops does not hang on the tables' last bits."""
        grid, order, family = _oracle_case(8)
        _, loglik, _ = bfgs_fit(grid, order, family)
        rng = np.random.default_rng(seed)
        build = estimate_module.thinning_convolution_table

        def perturbed(*args, **kwargs):
            tables = build(*args, **kwargs)
            towards = np.where(rng.random(tables.shape) < 0.5, -np.inf, np.inf)
            return np.where(tables == 0.0, 0.0, np.nextafter(tables, towards))

        monkeypatch.setattr(estimate_module, "thinning_convolution_table",
                            perturbed)
        fit = cml_estimate(grid, order, family=family)
        assert fit.i_eps < 1.0 + 1e-3
        assert fit.loglik >= loglik - 1e-6


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


class TestStandardErrorEdges:
    def test_all_zero_grid_ends_without_warnings(self):
        """The dependence is flat on an all-zero grid: trust-region steps
        along it run until alpha rounds towards 0, and are refused there
        rather than differentiated."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = cml_estimate(CountGrid(np.zeros((3, 6), dtype=int)), ORDER11)
        assert np.isfinite(fit.loglik) and fit.diagnostics.converged

    def test_failed_trust_region_step_is_a_numerical_error(self):
        """On a constant 3x10 grid of 412 the search runs to alpha -> 1 and
        mu_eps -> 0, where scipy's trust-exact subproblem meets non-finite
        iterates; that ends in a NumericalError naming the failed step."""
        with pytest.raises(NumericalError, match="trust-region step failed"):
            cml_estimate(CountGrid(np.full((3, 10), 412)), ORDER11)

    @pytest.mark.parametrize("shape", [(3, 10), (6, 6)])
    @pytest.mark.parametrize("count", [1, 5, 50])
    def test_constant_grid_converges(self, shape, count):
        """Constant grids that the trust-region search does finish on."""
        fit = cml_estimate(CountGrid(np.full(shape, count)), ORDER11)
        assert fit.diagnostics.converged

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
