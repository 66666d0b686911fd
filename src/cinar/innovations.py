"""Innovation (noise) distributions for count autoregressions.

Three families are provided:

* ``PoissonInnovation`` -- Poisson(mu) innovations; the induced stationary
  marginal of the field is again Poisson.
* ``NbMarginalInnovation`` -- the innovation law that makes the stationary
  marginal of the field exactly NB(nu, pi) under total thinning probability
  alpha.  Its PMF mixes generalized binomial coefficients (which alternate
  in sign for non-integer nu) with geometric tails, so it is evaluated in
  log space with a signed log-sum-exp.
* ``TabulatedInnovation`` -- arbitrary finite PMF on {0, ..., K}, mostly for
  tests and degenerate edge cases.

All distributions are immutable after construction; the cumulative table
used for inverse-CDF sampling is a lazily grown cache and is the only
mutable state (idempotent to rebuild, so concurrent use is safe).
"""

import numpy as np
from scipy import stats
from scipy.special import gammaln, gammasgn, logsumexp

from .errors import NumericalError, ValidationError

# Truncation rule for infinite-support summations: stop once the cumulative
# mass is >= 1 - TAIL_MASS and at least TAIL_RUN consecutive terms fell
# below TAIL_TERM.
TAIL_MASS = 1e-12
TAIL_TERM = 1e-16
TAIL_RUN = 10


class _InverseCdfMixin:
    """Shared lazily-extended CDF table, sampling, and quantiles."""

    _cdf = None  # grown on demand; None until first use

    def _ensure_cdf(self, upto=None, target=None):
        """Grow the cached CDF until it covers ``upto`` and/or mass ``target``."""
        cdf = self._cdf
        k_hi = 63 if cdf is None else len(cdf) - 1
        if upto is not None:
            k_hi = max(k_hi, int(upto))
        while True:
            table = self.pmf_table(k_hi)
            if not np.all(np.isfinite(table)):
                raise NumericalError(
                    "innovation PMF evaluated to a non-finite value while"
                    f" building the CDF up to k={k_hi}"
                )
            cdf = np.cumsum(table)
            tail_ok = (
                cdf[-1] >= 1.0 - TAIL_MASS
                and len(table) > TAIL_RUN
                and np.all(table[-TAIL_RUN:] < TAIL_TERM)
            )
            mass_ok = target is None or cdf[-1] >= min(target, 1.0 - TAIL_MASS)
            span_ok = upto is None or k_hi >= upto
            if (tail_ok or self._finite_support(k_hi)) and mass_ok and span_ok:
                break
            k_hi *= 2
            if k_hi > 10_000_000:
                raise ValidationError("innovation PMF mass does not accumulate to 1")
        object.__setattr__(self, "_cdf", cdf)
        return cdf

    def _finite_support(self, k_hi):
        return False

    def quantile(self, q):
        """Smallest k with P(eps <= k) >= q."""
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"quantile level must be in [0,1], got {q}")
        cdf = self._ensure_cdf(target=q)
        return int(np.searchsorted(cdf, min(q, cdf[-1]), side="left"))

    def sample(self, rng, size=None):
        """Inverse-CDF draw(s) using the cached table."""
        u = rng.random(size)
        cdf = self._ensure_cdf(target=float(np.max(u)) if np.size(u) else None)
        out = np.searchsorted(cdf, u, side="left")
        return out if size is not None else int(out)


class PoissonInnovation:
    """Poisson(mu) innovations; equidispersed, full support on {0, 1, ...}."""

    def __init__(self, mu):
        mu = float(mu)
        if not np.isfinite(mu) or mu <= 0:
            raise ValidationError(f"Poisson innovation needs mu > 0, got {mu}")
        self.mu = mu

    def __repr__(self):
        return f"PoissonInnovation(mu={self.mu:g})"

    def pmf(self, k):
        return stats.poisson.pmf(k, self.mu)

    def pmf_table(self, kmax):
        if kmax < 0:
            raise ValidationError("kmax must be >= 0")
        return stats.poisson.pmf(np.arange(kmax + 1), self.mu)

    def score_series(self, kmax):
        """Series of d log G(u) / d(alpha, mu) for the PGF G(u) = exp(mu (u-1)).

        Row r holds the first kmax+1 coefficients h_r, so that the PMF
        derivative is the truncated convolution ``pmf_table(kmax) * h_r``.
        The law does not depend on the thinning probability alpha.
        """
        h = np.zeros((2, int(kmax) + 1))
        h[1, 0] = -1.0
        if kmax >= 1:
            h[1, 1] = 1.0
        return h

    def moments(self):
        return self.mu, self.mu

    def quantile(self, q):
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"quantile level must be in [0,1], got {q}")
        return int(stats.poisson.ppf(q, self.mu)) if q > 0 else 0

    def sample(self, rng, size=None):
        out = rng.poisson(self.mu, size)
        return out if size is not None else int(out)


class NbMarginalInnovation(_InverseCdfMixin):
    """Innovation law inducing an NB(nu, pi) stationary marginal.

    With total thinning probability alpha, the innovation PMF is determined
    by the probability-generating-function ratio pgf_X(u)/pgf_X(1-alpha+
    alpha*u) for X ~ NB(nu, pi).  Writing A = 1-(1-pi)(1-alpha) and
    B = 1-A, inversion gives the two-branch formula

        P(eps=0) = A**nu
        P(eps=k) = sum_{j=1..k} C(nu, j) A**(nu-j) B**j
                          * C(k-1, j-1) (1-pi)**(k-j) pi**j ,  k >= 1,

    with the generalized binomial coefficient C(nu, j) = Gamma(nu+1) /
    (Gamma(nu-j+1) j!).  For non-integer nu the C(nu, j) alternate in sign
    once j > nu, so the inner sum is evaluated with a signed log-sum-exp.
    """

    def __init__(self, nu, pi, alpha):
        nu, pi, alpha = float(nu), float(pi), float(alpha)
        if not np.isfinite(nu) or nu <= 0:
            raise ValidationError(f"nu must be > 0, got {nu}")
        if not 0.0 < pi < 1.0:
            raise ValidationError(f"pi must be in (0,1), got {pi}")
        if not 0.0 < alpha < 1.0:
            raise ValidationError(f"alpha must be in (0,1), got {alpha}")
        self.nu = nu
        self.pi = pi
        self.alpha = alpha
        # A = pi + (1-pi)*alpha in (0,1); logs reused by every pmf call
        self._log_a = np.log1p(-(1.0 - pi) * (1.0 - alpha))
        self._log_b = np.log1p(-pi) + np.log1p(-alpha)

    def __repr__(self):
        return (
            f"NbMarginalInnovation(nu={self.nu:g}, pi={self.pi:g}, "
            f"alpha={self.alpha:g})"
        )

    @classmethod
    def from_targets(cls, mu_eps, i_eps, alpha):
        """Construct from innovation mean and dispersion (see nb_params_from_targets)."""
        nu, pi = nb_params_from_targets(mu_eps, i_eps, alpha)
        return cls(nu, pi, alpha)

    # -- marginal-law helpers -------------------------------------------------

    def marginal_moments(self):
        """(mean, variance) of the induced NB(nu, pi) field marginal."""
        mu_x = self.nu * (1.0 - self.pi) / self.pi
        return mu_x, mu_x / self.pi

    def moments(self):
        """(mean, variance) of the innovation itself.

        Inverts the stationary-moment relations: mu_eps = (1-alpha) mu_X and
        sigma2_eps = (1-alpha**2) sigma2_X - alpha mu_eps.
        """
        mu_x, sigma2_x = self.marginal_moments()
        mu_eps = (1.0 - self.alpha) * mu_x
        sigma2_eps = (1.0 - self.alpha**2) * sigma2_x - self.alpha * mu_eps
        return mu_eps, sigma2_eps

    # -- score series ---------------------------------------------------------

    def _log_pgf_series(self, kmax):
        """Series of d log G(u) / d(nu, pi, alpha), one row per parameter.

        With d = 1-pi and c = d*alpha/A the PGF factors as
        G(u) = A**nu (1-cu)**nu (1-du)**(-nu), so log G has the series
        nu log A + nu sum_k (d**k - c**k) u**k / k, differentiated here term
        by term (A and c move with d and alpha).
        """
        nu, alpha = self.nu, self.alpha
        d = 1.0 - self.pi
        a = np.exp(self._log_a)
        c = d * alpha / a
        k = np.arange(1.0, kmax + 1.0)
        d_pow, c_pow = d ** (k - 1.0), c ** (k - 1.0)
        h = np.empty((3, int(kmax) + 1))
        h[0, 0] = self._log_a
        h[0, 1:] = (d * d_pow - c * c_pow) / k
        # d/dpi = -d/dd, with dA/dd = -(1-alpha) and dc/dd = alpha/A**2
        h[1, 0] = nu * (1.0 - alpha) / a
        h[1, 1:] = -nu * (d_pow - alpha / a**2 * c_pow)
        # dA/dalpha = d and dc/dalpha = d(1-d)/A**2
        h[2, 0] = nu * d / a
        h[2, 1:] = -nu * d * (1.0 - d) / a**2 * c_pow
        return h

    def score_series(self, kmax):
        """Series of d log G(u) / d(alpha, mu_eps, i_eps) at fixed targets.

        The innovation mean mu_eps and dispersion i_eps are the parameters
        of ``from_targets``; the alpha row moves (nu, pi) with alpha so the
        targets stay fixed.  Row r holds the first kmax+1 coefficients h_r,
        so that the PMF derivative is the truncated convolution
        ``pmf_table(kmax) * h_r``.
        """
        nu, pi, alpha = self.nu, self.pi, self.alpha
        d = 1.0 - pi
        h_nu, h_pi, h_alpha = self._log_pgf_series(kmax)
        # nu = mu (1+alpha) / ((1-alpha)(i-1)) and pi = (1+alpha)/(alpha+i),
        # written through i - 1 = (1+alpha) d / pi and mu = nu (1-alpha) d / pi
        return np.stack([
            h_alpha + 2.0 * nu / (1.0 - alpha**2) * h_nu
            + d * pi / (1.0 + alpha) * h_pi,
            pi / ((1.0 - alpha) * d) * h_nu,
            -nu * pi / ((1.0 + alpha) * d) * h_nu - pi**2 / (1.0 + alpha) * h_pi,
        ])

    # -- pmf ------------------------------------------------------------------

    def _log_terms(self, k, j):
        """Signed log magnitude of the j-th summand of P(eps=k), j >= 1."""
        nu, pi = self.nu, self.pi
        log_c_nu = gammaln(nu + 1.0) - gammaln(nu - j + 1.0) - gammaln(j + 1.0)
        # At Gamma poles (nu - j + 1 a non-positive integer) the coefficient
        # is exactly 0: gammaln already gives -inf magnitude, but gammasgn is
        # NaN there and would poison the signed log-sum-exp.
        sign = gammasgn(nu - j + 1.0)
        sign = np.where(np.isnan(sign), 1.0, sign)
        log_c_k = gammaln(k) - gammaln(j) - gammaln(k - j + 1.0)
        mag = (
            log_c_nu
            + (nu - j) * self._log_a
            + j * self._log_b
            + log_c_k
            + (k - j) * np.log1p(-pi)
            + j * np.log(pi)
        )
        return mag, sign

    def _pmf_scalar(self, k):
        if k < 0:
            return 0.0
        if k == 0:
            return float(np.exp(self.nu * self._log_a))
        j = np.arange(1, k + 1, dtype=float)
        mag, sign = self._log_terms(float(k), j)
        total, total_sign = logsumexp(mag, b=sign, return_sign=True)
        return float(max(total_sign * np.exp(total), 0.0))

    def pmf(self, k):
        k_arr = np.asarray(k)
        out = np.array(
            [self._pmf_scalar(int(kk)) for kk in np.atleast_1d(k_arr).ravel()]
        ).reshape(np.atleast_1d(k_arr).shape)
        return out.reshape(k_arr.shape) if k_arr.ndim else float(out[0])

    def pmf_table(self, kmax):
        """P(eps=k) for k = 0..kmax, built in one triangular pass."""
        if kmax < 0:
            raise ValidationError("kmax must be >= 0")
        kmax = int(kmax)
        table = np.empty(kmax + 1)
        table[0] = np.exp(self.nu * self._log_a)
        if kmax == 0:
            return table
        if kmax > 2048:  # avoid a (kmax x kmax) temporary; per-k fallback
            table[1:] = [self._pmf_scalar(k) for k in range(1, kmax + 1)]
            return table
        k = np.arange(1.0, kmax + 1.0)[:, None]
        j = np.arange(1.0, kmax + 1.0)[None, :]
        mag, sign = self._log_terms(k, j)
        mag = np.where(j <= k, mag, -np.inf)
        total, total_sign = logsumexp(mag, b=sign, axis=1, return_sign=True)
        table[1:] = np.maximum(total_sign * np.exp(total), 0.0)
        return table


class TabulatedInnovation(_InverseCdfMixin):
    """Arbitrary finite-support PMF on {0, ..., K}."""

    def __init__(self, probs):
        probs = np.asarray(probs, dtype=float).copy()
        if probs.ndim != 1 or probs.size == 0:
            raise ValidationError("tabulated PMF must be a non-empty 1-D vector")
        if np.any(probs < 0):
            raise ValidationError("tabulated PMF entries must be >= 0")
        if abs(float(probs.sum()) - 1.0) > 1e-10:
            raise ValidationError(
                f"tabulated PMF must sum to 1 within 1e-10, got {probs.sum():.12g}"
            )
        probs.setflags(write=False)
        self.probs = probs

    def __repr__(self):
        return f"TabulatedInnovation(support=0..{len(self.probs) - 1})"

    @property
    def support_max(self):
        return len(self.probs) - 1

    def _finite_support(self, k_hi):
        return k_hi >= self.support_max

    def pmf(self, k):
        k_arr = np.asarray(k)
        inside = (k_arr >= 0) & (k_arr <= self.support_max)
        out = np.where(inside, self.probs[np.clip(k_arr, 0, self.support_max)], 0.0)
        return out if k_arr.ndim else float(out)

    def pmf_table(self, kmax):
        if kmax < 0:
            raise ValidationError("kmax must be >= 0")
        table = np.zeros(int(kmax) + 1)
        hi = min(int(kmax), self.support_max)
        table[: hi + 1] = self.probs[: hi + 1]
        return table

    def moments(self):
        k = np.arange(len(self.probs), dtype=float)
        mean = float(self.probs @ k)
        var = float(self.probs @ k**2) - mean**2
        return mean, var


def nb_params_from_targets(mu_eps, i_eps, alpha):
    """Solve for (nu, pi) so the innovation law hits given mean and dispersion.

    Given a target innovation mean mu_eps and dispersion ratio
    i_eps = sigma2_eps / mu_eps > 1 under total thinning probability alpha,
    the induced field marginal NB(nu, pi) must satisfy

        pi = (1 + alpha) / (alpha + i_eps)
        nu = mu_eps * (1 + alpha) / ((1 - alpha) * (i_eps - 1))

    (both follow from the stationary-moment identities; the field dispersion
    is 1/pi = (alpha + i_eps)/(1 + alpha)).  Closed form; no root finding.
    """
    mu_eps, i_eps, alpha = float(mu_eps), float(i_eps), float(alpha)
    if mu_eps <= 0:
        raise ValidationError(f"mu_eps must be > 0, got {mu_eps}")
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0,1), got {alpha}")
    if i_eps - 1.0 <= 1e-8:
        raise ValidationError(
            "NB construction requires overdispersion: dispersion ratio must"
            f" exceed 1, got {i_eps!r}"
        )
    pi = (1.0 + alpha) / (alpha + i_eps)
    nu = mu_eps * (1.0 + alpha) / ((1.0 - alpha) * (i_eps - 1.0))
    return nu, pi
