"""Innovation laws: PMFs, moments, target inversion, sampling.

The NB-marginal innovation PMF is validated against an independent oracle:
binomially thinning an NB(nu, pi) variable and adding an innovation draw
must reproduce NB(nu, pi) exactly (that is the defining property of the
law).  The oracle builds both PMFs by brute-force summation/convolution
with scipy's reference distributions only.
"""

import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from cinar import (
    NbMarginalInnovation,
    PoissonInnovation,
    ValidationError,
)

from _stats_helpers import nb_log_pgf_mp, nb_law_mp, nb_pmf_mp, nb_point_mp


def _thinned_pmf(marginal_pmf, alpha, zmax):
    """Brute-force PMF of alpha o X for X with the given (truncated) PMF."""
    n = np.arange(len(marginal_pmf))
    z = np.arange(zmax + 1)
    # rows n, cols z: P(X=n) * Binom(n, alpha).pmf(z)
    table = marginal_pmf[:, None] * stats.binom.pmf(z[None, :], n[:, None], alpha)
    return table.sum(axis=0)


# =============================================================================
# Poisson
# =============================================================================


class TestPoisson:
    def test_pmf_at_zero(self):
        assert PoissonInnovation(1.0).pmf_table(0)[0] == pytest.approx(np.exp(-1), rel=1e-12)

    def test_moments(self):
        assert PoissonInnovation(1.0).moments() == (1.0, 1.0)

    def test_invalid_mu(self):
        with pytest.raises(ValidationError):
            PoissonInnovation(0.0)

    def test_sample_mean_clt(self):
        """1e6 draws: sample mean within 3 sigma of mu=1."""
        rng = np.random.default_rng(20250801)
        draws = PoissonInnovation(1.0).sample(rng, size=1_000_000)
        assert 0.997 <= draws.mean() <= 1.003

    def test_quantile_matches_cdf(self):
        inn = PoissonInnovation(2.0)
        q = inn.quantile(1 - 1e-12)
        assert stats.poisson.cdf(q, 2.0) >= 1 - 1e-12
        assert stats.poisson.cdf(q - 1, 2.0) < 1 - 1e-12

    @pytest.mark.parametrize("mu", [1e-3, 0.7, 37.5, 1e3])
    def test_pmf_table_matches_mpmath(self, mu):
        """The table equals the 40-digit Poisson PMF to rtol 1e-13, entries
        below the float range included (exp(-1000) is 0 in floats);
        scipy.stats.poisson.pmf is itself 2.7e-12 off at mu = 1e3."""
        import mpmath as mp

        kmax = int(mu + 12 * np.sqrt(mu)) + 20
        with mp.workdps(40):
            m = mp.mpf(mu)
            want = np.array([float(mp.exp(k * mp.log(m) - m - mp.loggamma(k + 1)))
                             for k in range(kmax + 1)])
        np.testing.assert_allclose(PoissonInnovation(mu).pmf_table(kmax), want,
                                   rtol=1e-13, atol=0)

    @pytest.mark.parametrize("mu", [2.0**53, 1e19, 1e300])
    def test_pmf_table_of_a_huge_mean_is_zero(self, mu):
        """Far beyond any count a table can hold, every entry underflows,
        for the Poisson law and for an NB law of that mean."""
        for law in (PoissonInnovation(mu),
                    NbMarginalInnovation.from_targets(mu, 2.0, 0.5)):
            np.testing.assert_array_equal(law.pmf_table(3), 0.0)


# =============================================================================
# NB-marginal innovation law
# =============================================================================


class TestNbMarginalPmf:
    def test_pmf_at_zero_closed_form(self):
        """P(eps=0) = (1 - (1-pi)(1-alpha))**nu."""
        inn = NbMarginalInnovation(nu=1.7, pi=0.4, alpha=0.35)
        expected = (1 - (1 - 0.4) * (1 - 0.35)) ** 1.7
        assert inn.pmf_table(0)[0] == pytest.approx(expected, rel=1e-13)

    def test_normalization(self):
        """nu=1, pi=0.5, alpha=0.5: mass over k <= 200 sums to 1 within 1e-10."""
        inn = NbMarginalInnovation(nu=1.0, pi=0.5, alpha=0.5)
        total = inn.pmf_table(200).sum()
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "nu,pi,alpha",
        [
            (1.0, 0.5, 0.5),
            (13 / 7, 13 / 23, 0.3),  # the (mu=1, I=2, alpha=0.3) target
            (19.0, 19 / 29, 0.9),  # the (mu=1, I=2, alpha=0.9) target
            (2.5, 0.3, 0.15),
            (0.7, 0.8, 0.6),
        ],
    )
    def test_thinning_convolution_identity(self, nu, pi, alpha):
        """Oracle: thinned NB(nu,pi) + innovation = NB(nu,pi), rebuilt brute force.

        The innovation law is *defined* as the remainder that closes this
        identity, so convolving the brute-force thinned PMF with the
        implemented innovation PMF must reproduce scipy's nbinom PMF.
        """
        kmax = int(stats.nbinom.ppf(1 - 1e-13, nu, pi)) + 5
        marg = stats.nbinom.pmf(np.arange(3 * kmax + 1), nu, pi)
        thinned = _thinned_pmf(marg, alpha, kmax)
        eps = NbMarginalInnovation(nu, pi, alpha).pmf_table(kmax)
        recon = np.convolve(thinned, eps)[: kmax + 1]
        target = stats.nbinom.pmf(np.arange(kmax + 1), nu, pi)
        assert np.max(np.abs(recon - target)) < 1e-9

    def test_shorter_tables_are_prefixes(self):
        """The table up to k is the first k+1 entries of a longer one."""
        inn = NbMarginalInnovation(nu=3.3, pi=0.45, alpha=0.7)
        table = inn.pmf_table(60)
        lasts = np.array([inn.pmf_table(k)[k] for k in range(61)])
        assert np.max(np.abs(table - lasts)) < 1e-14

    def test_log_space_robust_large_nu_large_k(self):
        """nu=1e3 and k up to 1e4 stay finite and nonnegative."""
        inn = NbMarginalInnovation(nu=1000.0, pi=0.6, alpha=0.4)
        # a tail that underflows to zero is fine; overflow/invalid is not
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            values = inn.pmf_table(10_000)[[0, 1, 10, 100, 1000, 10_000]]
        assert np.all(np.isfinite(values))
        assert np.all(values >= 0.0)

    @pytest.mark.parametrize("mu_eps, i_eps, alpha", [
        (0.1, 50.0, 0.3), (0.3, 1.05, 0.05), (1.5, 2.2, 0.5),
    ])
    def test_recurrence_matches_mpmath(self, mu_eps, i_eps, alpha):
        """Up to k=400, entries >= 1e-280 match the 60-digit two-branch sum
        to rtol 1e-11; in double precision that alternating sum loses up to
        40 digits in these tails."""
        import mpmath as mp

        inn = NbMarginalInnovation.from_targets(mu_eps, i_eps, alpha)
        table = inn.pmf_table(400)
        ks = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 400]
        with mp.workdps(60):
            point = (mp.mpf(inn.nu), mp.mpf(inn.pi), mp.mpf(alpha))
            want = np.array([float(nb_pmf_mp(*point, k)) for k in ks])
        kept = want >= 1e-280
        assert kept.sum() >= 10
        np.testing.assert_allclose(table[ks][kept], want[kept], rtol=1e-11,
                                   atol=0)

    @pytest.mark.parametrize("mu_eps, i_eps, alpha", [
        (5.0, 1e17, 1e-90), (2.0, 1e6, 1e-3), (1.0, 40.0, 0.02),
    ])
    def test_pmf_where_y_nears_one_matches_mpmath(self, mu_eps, i_eps, alpha):
        """Where y = (1 - alpha) r / (1 + r) nears 1 (at (5, 1e17, 1e-90) it
        rounds to 1), P(eps=0) = A**nu still comes out: the table is within
        1e-13 relative of the 60-digit two-branch sum at the held law."""
        import mpmath as mp

        inn = NbMarginalInnovation.from_targets(mu_eps, i_eps, alpha)
        table = inn.pmf_table(3)
        with mp.workdps(60):
            law = nb_law_mp(*nb_point_mp(inn))
            want = np.array([float(nb_pmf_mp(*law, k)) for k in range(4)])
        np.testing.assert_allclose(table, want, rtol=1e-13, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(mu_eps=st.floats(1e-3, 1e3), i_eps=st.floats(1.0, 50.0),
           alpha=st.floats(0.0, 0.999, exclude_min=True))
    @example(mu_eps=1e3, i_eps=1.01, alpha=0.5)
    @example(mu_eps=1e3, i_eps=1.0, alpha=0.5)
    @example(mu_eps=2.0, i_eps=1.0 + 1e-12, alpha=0.9)
    def test_tables_are_probability_vectors(self, mu_eps, i_eps, alpha):
        """Finite, nonnegative, and the grown CDF reaches 1 within 1e-9,
        down to and on the Poisson face i_eps = 1.

        (1e3, 1.01, 0.5) has nu = 3e5 and P(eps=0) = A**nu = exp(-995),
        below the float range.
        """
        inn = NbMarginalInnovation.from_targets(mu_eps, i_eps, alpha)
        kmax = inn.quantile(1.0)
        table = inn.pmf_table(kmax)
        assert np.all(np.isfinite(table)) and np.all(table >= 0.0)
        assert abs(table.sum() - 1.0) <= 1e-9

    @pytest.mark.parametrize("make", [
        lambda: NbMarginalInnovation.from_targets(3e4, 1.01, 0.5),
        lambda: NbMarginalInnovation.from_targets(3e4, 20.0, 0.9),
        lambda: PoissonInnovation(3e4),
    ], ids=["nb-1.01", "nb-20", "poisson"])
    def test_large_mean_table_answers_in_a_second(self, make):
        """At mu_eps = 3e4 rounding leaves the table's mass a few 1e-12
        from 1; the CDF still stops growing, and quantile and sample
        answer in under 1 s."""
        start = time.perf_counter()
        inn = make()
        kmax = inn.quantile(1.0)
        draws = inn.sample(np.random.default_rng(0), size=1000)
        assert time.perf_counter() - start < 1.0
        mu, s2 = inn.moments()
        assert mu + 5.0 * np.sqrt(s2) < kmax < 2.0 * mu
        assert abs(inn.pmf_table(kmax).sum() - 1.0) <= 1e-9
        assert abs(draws.mean() - mu) < 5.0 * np.sqrt(s2 / draws.size)


class TestNbMoments:
    def test_target_dgp_moments(self):
        """from_targets(1, 2, 0.3) has innovation moments (1, 2) within 1e-8."""
        inn = NbMarginalInnovation.from_targets(1.0, 2.0, alpha=0.3)
        mu, s2 = inn.moments()
        assert mu == pytest.approx(1.0, abs=1e-8)
        assert s2 == pytest.approx(2.0, abs=1e-8)

    @pytest.mark.parametrize("alpha", [0.3, 0.8, 0.9])
    def test_moments_match_truncated_sums(self, alpha):
        """Closed-form moments equal sums of k*pmf truncated at mass 1-1e-12."""
        inn = NbMarginalInnovation.from_targets(1.0, 2.0, alpha=alpha)
        kmax = inn.quantile(1 - 1e-13) + 40
        table = inn.pmf_table(kmax)
        k = np.arange(kmax + 1, dtype=float)
        mean = float(table @ k)
        var = float(table @ k**2) - mean**2
        mu, s2 = inn.moments()
        assert mean == pytest.approx(mu, abs=1e-8)
        assert var == pytest.approx(s2, abs=1e-7)

    def test_params_from_targets_closed_form(self):
        """(mu,I,alpha)=(1,2,0.3) -> nu=13/7, pi=13/23 (hand-derived rationals)."""
        inn = NbMarginalInnovation.from_targets(1.0, 2.0, 0.3)
        assert inn.nu == pytest.approx(13 / 7, rel=1e-14)
        assert inn.pi == pytest.approx(13 / 23, rel=1e-14)

    def test_params_from_targets_strong_dependence(self):
        """(1, 2, 0.8) round-trips through the innovation moments."""
        inn = NbMarginalInnovation.from_targets(1.0, 2.0, 0.8)
        assert (inn.nu, inn.pi) == pytest.approx((9.0, 9 / 14), rel=1e-14)
        mu, s2 = inn.moments()
        assert (mu, s2) == pytest.approx((1.0, 2.0), abs=1e-8)

    def test_equidispersion_boundary_rejected(self):
        """Below the Poisson face i_eps = 1 there is no NB law."""
        for i_eps in (1.0 - 1e-12, 0.99, 0.5, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="overdispersion"):
                NbMarginalInnovation.from_targets(1.0, i_eps, 0.5)


class TestDerivativeSeries:
    @pytest.mark.parametrize("kmax", [0, 3])
    def test_poisson(self, kmax):
        """log G(u) = mu (u-1): d/dmu is u - 1, nothing moves with alpha,
        and every second derivative is 0."""
        h, hh = PoissonInnovation(2.5).derivative_series(kmax)
        want = np.zeros((2, kmax + 1))
        want[1, :2] = [-1.0, 1.0][: kmax + 1]
        np.testing.assert_array_equal(h, want)
        np.testing.assert_array_equal(hh, np.zeros((2, 2, kmax + 1)))

    @pytest.mark.parametrize("excess", [1e-6, 1.2e-8, 1e-12])
    @pytest.mark.parametrize("alpha", [0.3, 0.8])
    def test_nb_near_poisson_limit_matches_mpmath(self, excess, alpha):
        """Near the Poisson face (i_eps - 1 down to 1e-12) the first and
        second log-PGF derivatives over (alpha, mu_eps, i_eps) stay within
        1e-10 of each array's largest entry of 60-digit differentiation at
        the law's exact (mu_eps, r, alpha)."""
        import mpmath as mp

        kmax = 8
        innovation = NbMarginalInnovation.from_targets(2.0, 1.0 + excess, alpha)
        h, hh = innovation.derivative_series(kmax)
        with mp.workdps(60):
            point = nb_point_mp(innovation)

            def diff(orders):
                return [float(mp.diff(
                    lambda *v: nb_log_pgf_mp(*nb_law_mp(*v), k), point, orders))
                    for k in range(kmax + 1)]

            unit = np.eye(3, dtype=int)
            want_h = np.array([diff(tuple(unit[a])) for a in range(3)])
            want_hh = np.array([[diff(tuple(unit[a] + unit[b])) for b in range(3)]
                                for a in range(3)])
        for got, want in ((h, want_h), (hh, want_hh)):
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("mu_eps, i_eps, alpha", [(20.0, 30.0, 0.95),
                                                      (5.0, 3.0, 0.99)])
    def test_nb_alpha_row_at_large_alpha_matches_mpmath(self, mu_eps, i_eps, alpha):
        """At alpha near 1, where P(r) - alpha P(alpha r) cancels by 1 -
        alpha, h is within 2e-15 and hh within 1e-13 of each array's largest
        entry of 60-digit differentiation: the first derivatives of
        Q[alpha r, r] are taken from second divided differences (measured
        1.2e-15 and 1.8e-16 for h, 3.1e-14 and 5.8e-14 for hh; with the
        quotients by 1 - alpha they were 5.8e-14 and 5.0e-14, 6.7e-13 and
        1.3e-11)."""
        import mpmath as mp

        kmax = 8
        innovation = NbMarginalInnovation.from_targets(mu_eps, i_eps, alpha)
        h, hh = innovation.derivative_series(kmax)
        with mp.workdps(60):
            point = nb_point_mp(innovation)

            def diff(orders):
                return [float(mp.diff(
                    lambda *v: nb_log_pgf_mp(*nb_law_mp(*v), k), point, orders))
                    for k in range(kmax + 1)]

            unit = np.eye(3, dtype=int)
            want_h = np.array([diff(tuple(unit[a])) for a in range(3)])
            want_hh = np.array([[diff(tuple(unit[a] + unit[b])) for b in range(3)]
                                for a in range(3)])
        assert np.abs(h - want_h).max() <= 2e-15 * np.abs(want_h).max()
        assert np.abs(hh - want_hh).max() <= 1e-13 * np.abs(want_hh).max()

    @pytest.mark.parametrize("law", [
        PoissonInnovation(1.0), NbMarginalInnovation.from_targets(1.0, 2.0, 0.5)],
        ids=["poisson", "nb"])
    @pytest.mark.parametrize("series", ["pmf_table", "derivative_series"])
    def test_kmax_is_checked_not_truncated(self, law, series):
        """int() would take kmax 2.7 as 2 (a 3-term table); refused instead,
        and an integral kmax of any number type is taken."""
        make = getattr(law, series)
        with pytest.raises(ValidationError, match=r"^kmax must be an integer, got 2\.7$"):
            make(2.7)
        with pytest.raises(ValidationError, match=r"^kmax must be an integer, got True$"):
            make(True)
        with pytest.raises(ValidationError, match=r"^kmax must be >= 0, got -1$"):
            make(-1)
        want = make(3)
        np.testing.assert_equal(make(3.0), want)
        np.testing.assert_equal(make(np.int64(3)), want)
        assert np.shape(want[0] if isinstance(want, tuple) else want)[-1] == 4

    @pytest.mark.parametrize("mu_eps, i_eps, alpha", [
        (1.0, 1e250, 0.5), (1.0, 1e300, 0.9), (1e12, 1e300, 0.999999),
        (1e12, 1.0 + 2e-8, 0.999), (1e-3, 50.0, 1e-3), (5.0, 1.0 + 2e-8, 1e-90),
        (5.0, 1.0, 0.5), (1e12, 1.0 + 1e-300, 0.999),
    ])
    def test_nb_finite_at_extreme_points(self, mu_eps, i_eps, alpha):
        """Far-out trial points of a fit give finite series, without a
        floating-point warning."""
        innovation = NbMarginalInnovation.from_targets(mu_eps, i_eps, alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h, hh = innovation.derivative_series(40)
        assert np.all(np.isfinite(h)) and np.all(np.isfinite(hh))


class TestNbPoissonFace:
    """i_eps = 1, the face of the NB family where its law is Poisson."""

    def test_face_is_a_member(self):
        """The bound is closed at 1, and there nu = inf, pi = 1 and the
        moments are Poisson's."""
        assert NbMarginalInnovation.lower_bounds == (0.0, 1.0)
        inn = NbMarginalInnovation.from_targets(3.0, 1.0, 0.4)
        assert (inn.nu, inn.pi) == (np.inf, 1.0)
        assert inn.moments() == (3.0, 3.0)

    @pytest.mark.parametrize("mu", [0.01, 1.0, 50.0, 1e3])
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.95])
    def test_face_pmf_is_poisson(self, mu, alpha):
        """Entries above 1e-300, up to k = mu + 12 sqrt(mu) + 60, are within
        1e-14 relative of the 40-digit Poisson PMF and of PoissonInnovation's
        table."""
        import mpmath as mp

        kmax = int(mu + 12 * np.sqrt(mu)) + 60
        table = NbMarginalInnovation.from_targets(mu, 1.0, alpha).pmf_table(kmax)
        with mp.workdps(40):
            want = np.array([float(mp.exp(-mp.mpf(mu)) * mp.mpf(mu) ** k
                                   / mp.factorial(k)) for k in range(kmax + 1)])
        kept = want > 1e-300
        np.testing.assert_allclose(table[kept], want[kept], rtol=1e-14, atol=0)
        poisson = PoissonInnovation(mu).pmf_table(kmax)
        np.testing.assert_allclose(table[kept], poisson[kept], rtol=1e-14, atol=0)

    @pytest.mark.parametrize("mu", [0.01, 1.0, 50.0, 1e3])
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.95])
    def test_face_table_is_the_poisson_table(self, mu, alpha):
        """On the face the NB table is PoissonInnovation's, bit for bit."""
        kmax = int(mu + 12 * np.sqrt(mu)) + 60
        np.testing.assert_array_equal(
            NbMarginalInnovation.from_targets(mu, 1.0, alpha).pmf_table(kmax),
            PoissonInnovation(mu).pmf_table(kmax))

    def test_near_face_pmf_matches_mpmath(self):
        """At (2, 1 + 1.2e-8, 0.8), where nu = 1.5e9, the table is within
        1e-14 relative of the 90-digit two-branch sum at the held law."""
        import mpmath as mp

        inn = NbMarginalInnovation.from_targets(2.0, 1.0 + 1.2e-8, 0.8)
        table = inn.pmf_table(12)
        with mp.workdps(90):
            law = nb_law_mp(*nb_point_mp(inn))
            want = np.array([float(nb_pmf_mp(*law, k)) for k in range(13)])
        np.testing.assert_allclose(table, want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("alpha", [0.3, 0.8])
    def test_face_derivative_series_closed_forms(self, alpha):
        """At i_eps = 1 the rows (alpha, mu_eps, i_eps) are h = (0, u - 1,
        mu_eps (1-u)**2 / 2), and hh is 0 but for hh[mu, i] = (1-u)**2 / 2
        and hh[i, i] = -2/3 mu_eps (1 + a + a**2) / (1 + a)**2 (1-u)**3, to
        rounding; at i_eps - 1 = 1e-6 the series are within 1e-5 of these."""
        mu, kmax = 2.5, 6
        want_h, want_hh = np.zeros((3, kmax + 1)), np.zeros((3, 3, kmax + 1))
        want_h[1, :2] = -1.0, 1.0
        want_h[2, :3] = mu * np.array([0.5, -1.0, 0.5])
        want_hh[1, 2, :3] = want_hh[2, 1, :3] = 0.5, -1.0, 0.5
        want_hh[2, 2, :4] = (-2.0 / 3.0 * mu * (1 + alpha + alpha**2)
                             / (1 + alpha) ** 2 * np.array([1, -3, 3, -1]))
        h, hh = NbMarginalInnovation.from_targets(mu, 1.0, alpha).derivative_series(kmax)
        for got, want in ((h, want_h), (hh, want_hh)):
            np.testing.assert_allclose(got, want, rtol=1e-14,
                                       atol=1e-15 * np.abs(want).max())
        near = NbMarginalInnovation.from_targets(mu, 1.0 + 1e-6, alpha)
        for got, want in zip(near.derivative_series(kmax), (want_h, want_hh)):
            assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


class TestCdfTableLimit:
    @pytest.mark.parametrize("make", [
        lambda: NbMarginalInnovation.from_targets(1e7, 2.0, 0.5),
        lambda: PoissonInnovation(1e9),
    ], ids=["nb", "poisson"])
    def test_mean_beyond_the_largest_table_is_refused_at_once(self, make):
        """A mean past the largest CDF table, k = 63 * 2**17, is refused
        before any table is built, by a message that names the mean."""
        inn = make()
        start = time.perf_counter()
        with pytest.raises(ValidationError,
                           match=r"innovation mean 1e\+0[79] lies beyond"):
            inn.quantile(0.5)
        assert time.perf_counter() - start < 0.5

    def test_mean_within_the_table_still_answers(self):
        """mu_eps = 1e6 fits in the table of 63 * 2**14 + 1 entries."""
        inn = NbMarginalInnovation.from_targets(1e6, 2.0, 0.5)
        assert abs(inn.quantile(0.5) - 1e6) < 5.0 * np.sqrt(2e6)


class TestNbSampling:
    def test_sample_variance_clt(self):
        """1e6 draws from the (1, 2, 0.3) law: sample variance near 2."""
        rng = np.random.default_rng(991)
        inn = NbMarginalInnovation.from_targets(1.0, 2.0, alpha=0.3)
        draws = inn.sample(rng, size=1_000_000)
        assert 1.97 <= draws.var() <= 2.03
        assert 0.995 <= draws.mean() <= 1.005

    def test_scalar_draw(self):
        rng = np.random.default_rng(3)
        value = NbMarginalInnovation(1.0, 0.5, 0.5).sample(rng)
        assert isinstance(value, int) and value >= 0

    def test_cdf_cache_idempotent(self):
        """Two instances and repeated calls give identical tables and draws."""
        a = NbMarginalInnovation(1.3, 0.4, 0.6)
        b = NbMarginalInnovation(1.3, 0.4, 0.6)
        assert np.array_equal(a.pmf_table(50), b.pmf_table(50))
        d1 = a.sample(np.random.default_rng(7), size=100)
        d2 = b.sample(np.random.default_rng(7), size=100)
        assert np.array_equal(d1, d2)
        d3 = a.sample(np.random.default_rng(7), size=100)
        assert np.array_equal(d1, d3)
