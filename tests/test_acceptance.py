"""End-to-end acceptance gate.

Ten numbered criteria, each one test: replication-table reference values
for the three estimators (including misspecification biases), the marginal-law
and autocorrelation properties of the simulator, oracle equivalences for
the closed-form pieces, the conditional-law contract, the wheat-yields
case study (skipped unless the user has fetched the data), and
diagnostics calibration.  Every replication is seeded, so the whole gate
is deterministic.  Monte Carlo runs print their measured values; run
with -v for one pass/fail line per criterion.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize, stats

from cinar import (
    CinarParams,
    ModelOrder,
    NbMarginalInnovation,
    PoissonInnovation,
    SignPattern,
    SimConfig,
    acf_closed_form_11,
    cls_estimate,
    cml_estimate,
    conditional_pmf,
    pearson_residuals,
    pit_histogram,
    read_grid,
    sample_acf,
    simulate_cinar,
    theoretical_acf,
    tobit_conditional_pmf,
    yw_estimate,
)

from cinar.diagnose import conditional_moments

from _stats_helpers import chisq_gof

pytestmark = pytest.mark.acceptance

ORDER11 = ModelOrder(1, 1)
WHEAT_PATH = Path(__file__).resolve().parent.parent / "data" / "wheat_yields.csv"


def _cml_replications(params, order, reps, seed_base, family="poisson",
                      n=(50, 50)):
    estimates = []
    for r in range(reps):
        grid = simulate_cinar(SimConfig(params, n[0], n[1],
                                        seed=seed_base + r))
        estimates.append(cml_estimate(grid, order, family=family).estimates)
    return np.array(estimates)


# =============================================================================
# Criteria 1-4: replication-table reproduction
# =============================================================================


def test_criterion_01_weak_dependence_cml_replications():
    """CML on 200 weak-dependence grids matches the reference means and sds."""
    start = time.time()
    params = CinarParams(ORDER11, np.array([0.1, 0.1, 0.1]),
                         PoissonInnovation(1.0))
    ests = _cml_replications(params, ORDER11, reps=200, seed_base=11000)
    means = ests.mean(axis=0)          # theta01, theta10, theta11, mu_eps
    sds = ests.std(axis=0, ddof=1)
    elapsed = time.time() - start
    print(f"\ncriterion 1: means {np.round(means, 4)}"
          f" sds {np.round(sds, 4)} elapsed {elapsed:.0f}s")
    # reference row, (50,50): mu 1.000, thetas 0.100; sds 0.043/0.019/0.020/0.020
    np.testing.assert_allclose(means, [0.100, 0.100, 0.100, 1.000], atol=0.01)
    reference_sds = np.array([0.019, 0.020, 0.020, 0.043])
    ratio = sds / reference_sds
    assert np.all(ratio < 1.5) and np.all(ratio > 1 / 1.5), ratio
    assert elapsed < 600.0


def test_criterion_02_strong_dependence_yw_bias_vs_cml():
    """YW's moment bias in mu at strong dependence; CML stays centered."""
    params = CinarParams(ORDER11, np.array([0.3, 0.4, 0.1]),
                         PoissonInnovation(1.0))
    mu_yw, mu_cml = [], []
    for r in range(200):
        grid = simulate_cinar(SimConfig(params, 50, 50, seed=12000 + r))
        mu_yw.append(yw_estimate(grid, ORDER11).mu_eps)
        mu_cml.append(cml_estimate(grid, ORDER11).mu_eps)
    yw_mean, cml_mean = np.mean(mu_yw), np.mean(mu_cml)
    print(f"\ncriterion 2: YW mu mean {yw_mean:.4f} (vs 1.074),"
          f" CML {cml_mean:.4f} (vs 1.002)")
    assert yw_mean == pytest.approx(1.074, abs=0.03)
    assert cml_mean == pytest.approx(1.002, abs=0.01)


def test_criterion_03_nb_dgp_family_misspecification():
    """N-CML recovers the NB truth; P-CML inherits a stable mu bias."""
    innovation = NbMarginalInnovation.from_targets(1.0, 2.0, 0.9)
    params = CinarParams(ORDER11, np.array([0.2, 0.2, 0.5]), innovation)
    n_ests, p_mu = [], []
    for r in range(200):
        grid = simulate_cinar(SimConfig(params, 50, 50, seed=13000 + r))
        n_ests.append(cml_estimate(grid, ORDER11, family="nb").estimates)
        p_mu.append(cml_estimate(grid, ORDER11, family="poisson").mu_eps)
    n_means = np.array(n_ests).mean(axis=0)  # th01 th10 th11 mu i
    p_mean = np.mean(p_mu)
    print(f"\ncriterion 3: N-CML means {np.round(n_means, 4)},"
          f" P-CML mu mean {p_mean:.4f} (vs 1.328)")
    # reference row order (mu, I, th01, th10, th11) = (1.005, 1.997, 0.200,
    # 0.200, 0.499), tolerance 0.015
    np.testing.assert_allclose(
        n_means[[3, 4, 0, 1, 2]], [1.005, 1.997, 0.200, 0.200, 0.499],
        atol=0.015)
    assert p_mean == pytest.approx(1.328, abs=0.05)


def test_criterion_04_second_order_field_and_order_misspecification():
    """CML at order (2,2) hits the reference row; CML-1 shows the bias."""
    start = time.time()
    order2 = ModelOrder(2, 2)
    params = CinarParams(order2, np.full(8, 0.1), PoissonInnovation(1.0))
    e2, e1 = [], []
    for r in range(100):
        grid = simulate_cinar(SimConfig(params, 50, 50, seed=14000 + r))
        e2.append(cml_estimate(grid, order2).estimates)
        e1.append(cml_estimate(grid, ORDER11).estimates)
    means2 = np.array(e2).mean(axis=0)   # 8 thetas (lex), then mu
    mu1 = np.array(e1)[:, 3].mean()
    elapsed = time.time() - start
    print(f"\ncriterion 4: CML-2 means {np.round(means2, 4)},"
          f" CML-1 mu mean {mu1:.4f} (vs 2.292), elapsed {elapsed:.0f}s")
    # reference (50,50) row: mu 1.005; thetas (lex order th01 th02 th10 th11
    # th12 th20 th21 th22) = .100 .100 .100 .099 .101 .101 .100 .099
    reference = np.array([0.100, 0.100, 0.100, 0.099, 0.101, 0.101, 0.100,
                          0.099, 1.005])
    np.testing.assert_allclose(means2, reference, atol=0.02)
    assert mu1 == pytest.approx(2.29, abs=0.1)
    assert elapsed < 1800.0


# =============================================================================
# Criterion 5: marginal law of simulated fields
# =============================================================================


def test_criterion_05_marginal_law_gof():
    """500x500 fields pass chi-square GOF against their stationary law.

    The chi-square reference needs (near-)independent draws, so a
    stride-8 sublattice is tested (residual lag correlation ~ 0.004).
    """
    theta = np.array([0.2, 0.2, 0.5])
    poi = CinarParams(ORDER11, theta, PoissonInnovation(1.0))
    grid = simulate_cinar(SimConfig(poi, 500, 500, seed=16000))
    sub = grid.values[::8, ::8]
    stat, _, crit, p = chisq_gof(sub, lambda k: stats.poisson.pmf(k, 10.0),
                                 level=0.01)
    print(f"\ncriterion 5: Poisson GOF p={p:.3f}", end="")
    assert stat < crit, f"Poisson GOF stat {stat:.1f} >= crit {crit:.1f}"

    innovation = NbMarginalInnovation.from_targets(1.0, 2.0, 0.9)
    nb = CinarParams(ORDER11, theta, innovation)
    grid = simulate_cinar(SimConfig(nb, 500, 500, seed=16001))
    sub = grid.values[::8, ::8]
    stat, _, crit, p = chisq_gof(
        sub, lambda k: stats.nbinom.pmf(k, innovation.nu, innovation.pi),
        level=0.01)
    print(f", NB GOF p={p:.3f}")
    assert stat < crit, f"NB GOF stat {stat:.1f} >= crit {crit:.1f}"


# =============================================================================
# Criterion 6: autocorrelation triple agreement
# =============================================================================


def test_criterion_06_acf_closed_form_solver_sample_agreement():
    """Closed form == linear solve (1e-6); both within 0.02 of sample."""
    params = CinarParams(ORDER11, np.array([0.2, 0.2, 0.5]),
                         PoissonInnovation(1.0))
    solver = theoretical_acf(params, (5, 5))
    _, _, build = acf_closed_form_11(params)
    closed = build((5, 5))
    np.testing.assert_allclose(closed.values, solver.values, atol=1e-6)

    grid = simulate_cinar(SimConfig(params, 1000, 1000, seed=17000))
    sample = sample_acf(grid, (5, 5))
    gap_solver = np.max(np.abs(sample.values - solver.values))
    gap_closed = np.max(np.abs(sample.values - closed.values))
    print(f"\ncriterion 6: closed-vs-solver"
          f" {np.max(np.abs(closed.values - solver.values)):.2e},"
          f" sample gaps {gap_solver:.4f}/{gap_closed:.4f}")
    assert gap_solver < 0.02
    assert gap_closed < 0.02


# =============================================================================
# Criterion 7: CLS closed form vs direct minimization
# =============================================================================


def _lagged_design_11(values):
    """Interior responses and [lag(0,1), lag(1,0), lag(1,1), 1] design."""
    x = values[1:, 1:].ravel().astype(float)
    design = np.column_stack([
        values[1:, :-1].ravel(),
        values[:-1, 1:].ravel(),
        values[:-1, :-1].ravel(),
        np.ones(x.size),
    ]).astype(float)
    return x, design


def test_criterion_07_cls_equals_numerical_minimizer():
    """Normal-equation CLS == BFGS minimum of the squared loss, 20 grids."""
    rng = np.random.default_rng(18000)
    worst = 0.0
    for i in range(20):
        theta = rng.uniform(0.05, 0.25, size=3)
        mu = rng.uniform(0.5, 3.0)
        n1, n2 = rng.integers(12, 26, size=2)
        params = CinarParams(ORDER11, theta, PoissonInnovation(mu))
        grid = simulate_cinar(SimConfig(params, int(n1), int(n2),
                                        seed=18001 + i))
        fit = cls_estimate(grid, ORDER11)

        x, design = _lagged_design_11(grid.values)

        def loss(beta):
            resid = x - design @ beta
            return resid @ resid

        def grad(beta):
            return -2.0 * design.T @ (x - design @ beta)

        start = np.array([0.2, 0.2, 0.2, float(x.mean())])
        res = optimize.minimize(loss, start, jac=grad, method="BFGS",
                                options={"gtol": 1e-12, "maxiter": 1000})
        gap = np.max(np.abs(res.x - fit.estimates))
        worst = max(worst, gap)
        np.testing.assert_allclose(fit.estimates, res.x, atol=1e-6)
    print(f"\ncriterion 7: worst coordinate gap {worst:.2e} over 20 grids")


# =============================================================================
# Criterion 8: conditional-law oracles
# =============================================================================


def _brute_conditional(alpha, phi, innovation_pmf, past, support):
    """Mixture-of-convolutions by direct summation, independent of the lib."""
    probs = np.zeros(support + 1)
    for j, (weight, x_lag) in enumerate(zip(phi, past)):
        for y in range(support + 1):
            total = 0.0
            for z in range(0, min(y, x_lag) + 1):
                total += (stats.binom.pmf(z, x_lag, alpha)
                          * innovation_pmf(y - z))
            probs[y] += weight * total
    return probs


def test_criterion_08_conditional_law_contract():
    """PMF normalization, moment formulas, brute-force equality, censoring."""
    rng = np.random.default_rng(19000)
    poi = CinarParams(ORDER11, np.array([0.25, 0.35, 0.15]),
                      PoissonInnovation(1.3))
    nb = CinarParams(
        ORDER11, np.array([0.25, 0.35, 0.15]),
        NbMarginalInnovation.from_targets(1.1, 1.8, 0.75))

    for params in (poi, nb):
        mu_eps, sigma2_eps = params.innovation.moments()
        for _ in range(40):
            past = rng.integers(0, 30, size=3)
            pmf = conditional_pmf(params, past)
            assert abs(pmf.probs.sum() - 1.0) <= 1e-10
            # first two conditional moments from the model equations
            lagged_mean = float(params.phi @ past)
            lagged_sq = float(params.phi @ past.astype(float) ** 2)
            want_mean = mu_eps + params.alpha * lagged_mean
            want_var = (sigma2_eps
                        + params.alpha * (1 - params.alpha) * lagged_mean
                        + params.alpha ** 2 * (lagged_sq - lagged_mean ** 2))
            mean, var = conditional_moments(params, past)
            assert mean == pytest.approx(want_mean, abs=1e-8)
            assert var == pytest.approx(want_var, abs=1e-8)

        # exact equality with brute-force enumeration for small pasts
        for _ in range(10):
            past = rng.integers(0, 5, size=3)  # values <= 4
            pmf = conditional_pmf(params, past)
            brute = _brute_conditional(
                params.alpha, params.phi,
                lambda y: params.innovation.pmf_table(y)[-1] if y >= 0 else 0.0,
                past, pmf.support_max)
            np.testing.assert_allclose(pmf.probs, brute, atol=1e-12)

    # censored variant: all-plus signs reduce to the plain conditional law
    signs = SignPattern(ORDER11, (1, 1, 1))
    for _ in range(10):
        past = rng.integers(0, 12, size=3)
        censored = tobit_conditional_pmf(poi, signs, past)
        plain = conditional_pmf(poi, past)
        assert abs(censored.probs.sum() - 1.0) <= 1e-10
        k = min(censored.support_max, plain.support_max) + 1
        np.testing.assert_allclose(censored.probs[:k], plain.probs[:k],
                                    atol=1e-10)
    print("\ncriterion 8: conditional-law contract holds for"
          " Poisson and NB families")


# =============================================================================
# Criterion 9: wheat-yields case study (conditional on fetched data)
# =============================================================================


@pytest.mark.skipif(not WHEAT_PATH.exists(),
                    reason="wheat data not fetched; see scripts/")
def test_criterion_09_wheat_yields_reproduction():
    """Simplified first-order fit, SEs, ICs, residuals, BIC ordering."""
    grid = read_grid(WHEAT_PATH)
    assert grid.values.shape == (25, 80)
    assert grid.values.mean() == pytest.approx(33.8425, abs=5e-5)

    simplified = cml_estimate(grid, ORDER11, fix_zero=("theta_11",))
    by = dict(zip(simplified.names, simplified.estimates))
    se = dict(zip(simplified.names, simplified.std_errors))
    print(f"\ncriterion 9: simplified(1,1) mu {by['mu_eps']:.3f}"
          f" th01 {by['theta_01']:.3f} th10 {by['theta_10']:.3f}"
          f" AIC {simplified.aic:.1f} BIC {simplified.bic:.1f}")
    assert by["mu_eps"] == pytest.approx(11.428, abs=0.01)
    assert by["theta_01"] == pytest.approx(0.296, abs=0.01)
    assert by["theta_10"] == pytest.approx(0.365, abs=0.01)
    assert se["mu_eps"] == pytest.approx(0.439, abs=0.005)
    assert se["theta_01"] == pytest.approx(0.021, abs=0.005)
    assert se["theta_10"] == pytest.approx(0.021, abs=0.005)
    assert simplified.aic == pytest.approx(11932.2, abs=1.0)
    assert simplified.bic == pytest.approx(11949.0, abs=1.0)

    fitted = CinarParams(ORDER11, simplified.theta,
                         PoissonInnovation(by["mu_eps"]))
    residuals = pearson_residuals(fitted, grid)
    assert residuals.mean == pytest.approx(-0.004, abs=0.01)
    assert residuals.variance == pytest.approx(0.983, abs=0.01)

    full11 = cml_estimate(grid, ORDER11)
    simplified22 = cml_estimate(
        grid, ModelOrder(2, 2),
        fix_zero=("theta_11", "theta_12", "theta_21", "theta_22"))
    assert simplified22.bic < simplified.bic < full11.bic


# =============================================================================
# Criterion 10: diagnostics calibration under the true model class
# =============================================================================


def test_criterion_10_diagnostics_calibration_self_fit():
    """Self-fits on 200x200 grids give centered residuals and flat PITs."""
    params = CinarParams(ORDER11, np.array([0.2, 0.2, 0.1]),
                         PoissonInnovation(1.0))
    worst_mean, worst_pit = 0.0, 0.0
    var_lo, var_hi = np.inf, -np.inf
    for r in range(20):
        grid = simulate_cinar(SimConfig(params, 200, 200, seed=15000 + r))
        fit = cml_estimate(grid, ORDER11)
        fitted = CinarParams(ORDER11, fit.theta,
                             PoissonInnovation(fit.mu_eps))
        residuals = pearson_residuals(fitted, grid)
        pit = pit_histogram(fitted, grid, bins=10)
        assert abs(residuals.mean) < 0.05
        assert 0.9 <= residuals.variance <= 1.1
        assert np.max(np.abs(pit - 1.0)) <= 0.15
        worst_mean = max(worst_mean, abs(residuals.mean))
        worst_pit = max(worst_pit, float(np.max(np.abs(pit - 1.0))))
        var_lo = min(var_lo, residuals.variance)
        var_hi = max(var_hi, residuals.variance)
    print(f"\ncriterion 10: worst |mean| {worst_mean:.4f},"
          f" variance in [{var_lo:.3f}, {var_hi:.3f}],"
          f" worst PIT deviation {worst_pit:.3f} over 20 replications")
