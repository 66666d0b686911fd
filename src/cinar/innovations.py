"""Innovation (noise) distributions for count autoregressions.

A CINAR field is defined by its innovation family, and each family
declares itself once, here: its ``name`` and ``aliases``, the names of its
innovation parameters and their open lower bounds, ``from_params`` to
build the law at a thinning probability, and ``params`` to read them back.

* ``PoissonInnovation`` -- Poisson(mu) innovations; the induced stationary
  marginal of the field is again Poisson.
* ``NbMarginalInnovation`` -- the innovation law that makes the stationary
  marginal of the field exactly NB(nu, pi) under total thinning probability
  alpha.  Its PMF follows a three-term recurrence read off its PGF.

``innovation_family`` looks a family up by name, and
``innovation_from_estimates`` finds the law a fit describes.

All distributions are immutable after construction; the cumulative table
used for inverse-CDF sampling is a lazily grown cache and is the only
mutable state (idempotent to rebuild, so concurrent use is safe).
"""

import math

import numpy as np
from scipy.special import gammaln, xlogy

from .errors import NumericalError, ValidationError

__all__ = [
    "PoissonInnovation",
    "NbMarginalInnovation",
    "innovation_family",
    "innovation_from_estimates",
]

# Truncation rule for infinite-support summations: stop once the cumulative
# mass is >= 1 - TAIL_MASS and at least TAIL_RUN consecutive terms fell
# below TAIL_TERM.
TAIL_MASS = 1e-12
TAIL_TERM = 1e-16
TAIL_RUN = 10


class _InverseCdfMixin:
    """Shared point PMF, lazily-extended CDF table, sampling, and quantiles."""

    _cdf = None  # grown on demand; None until first use

    def _ensure_cdf(self):
        """The cached CDF table; built on first use, doubling its length
        until the tail is negligible."""
        if self._cdf is not None:
            return self._cdf
        k_hi = 63
        # rounding moves a table's mass by about mu_eps ulps (A**nu and the
        # NB recurrence, Poisson's log-space terms); allow 16 times that
        floor = 1.0 - TAIL_MASS - 16.0 * np.finfo(float).eps * self.moments()[0]
        while True:
            table = self.pmf_table(k_hi)
            if not np.all(np.isfinite(table)):
                raise NumericalError(
                    "innovation PMF evaluated to a non-finite value while"
                    f" building the CDF up to k={k_hi}"
                )
            cdf = np.cumsum(table)
            if cdf[-1] >= floor and np.all(table[-TAIL_RUN:] < TAIL_TERM):
                break
            k_hi *= 2
            if k_hi > 10_000_000:
                raise ValidationError("innovation PMF mass does not accumulate to 1")
        object.__setattr__(self, "_cdf", cdf)
        return cdf

    def pmf(self, k):
        """P(eps = k), elementwise over ``k``; 0 at negative k."""
        k = np.asarray(k)
        table = self.pmf_table(max(int(k.max()), 0))
        out = np.where(k >= 0, table[np.clip(k, 0, None)], 0.0)
        return out if k.ndim else float(out)

    def quantile(self, q):
        """Smallest k with P(eps <= k) >= q."""
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"quantile level must be in [0,1], got {q}")
        cdf = self._ensure_cdf()
        return int(np.searchsorted(cdf, min(q, cdf[-1]), side="left"))

    def sample(self, rng, size=None):
        """Inverse-CDF draw(s) using the cached table."""
        u = rng.random(size)
        cdf = self._ensure_cdf()
        out = np.searchsorted(cdf, u, side="left")
        return out if size is not None else int(out)


class PoissonInnovation(_InverseCdfMixin):
    """Poisson(mu) innovations; equidispersed, full support on {0, 1, ...}."""

    name = "poisson"
    aliases = ("poisson", "poi", "p")
    param_names = ("mu_eps",)
    lower_bounds = (0.0,)

    def __init__(self, mu):
        mu = float(mu)
        if not np.isfinite(mu) or mu <= 0:
            raise ValidationError(f"Poisson innovation needs mu > 0, got {mu}")
        self.mu = mu

    def __repr__(self):
        return f"PoissonInnovation(mu={self.mu:g})"

    @classmethod
    def from_params(cls, values, alpha):
        """The law with parameters ``values`` (see ``param_names``); it does
        not depend on the thinning probability alpha."""
        return cls(*values)

    def params(self):
        """Parameter values in ``param_names`` order."""
        return (self.mu,)

    def pmf_table(self, kmax):
        """P(eps=k) for k = 0..kmax, each term taken in log space."""
        if kmax < 0:
            raise ValidationError("kmax must be >= 0")
        k = np.arange(int(kmax) + 1)
        return np.exp(xlogy(k, self.mu) - gammaln(k + 1) - self.mu)

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

    def hessian_series(self, kmax):
        """Series of the second derivatives of log G over (alpha, mu): zero,
        since log G is linear in mu.  Entry [r, q] pairs rows r and q of
        ``score_series``."""
        return np.zeros((2, 2, int(kmax) + 1))

    def moments(self):
        return self.mu, self.mu

    def sample(self, rng, size=None):
        out = rng.poisson(self.mu, size)
        return out if size is not None else int(out)


class NbMarginalInnovation(_InverseCdfMixin):
    """Innovation law inducing an NB(nu, pi) stationary marginal.

    With total thinning probability alpha, the innovation PGF is the ratio
    pgf_X(u)/pgf_X(1-alpha+alpha*u) for X ~ NB(nu, pi).  Writing d = 1-pi,
    A = 1-d(1-alpha) and c = d*alpha/A, it factors as

        G(u) = A**nu (1-cu)**nu (1-du)**(-nu),

    so P(eps=0) = A**nu and the PMF follows the recurrence of
    ``pmf_table``.  The parameters a fit reports are the innovation mean
    mu_eps and dispersion i_eps (see ``from_targets``).
    """

    name = "nb"
    aliases = ("nb", "nbmarginal", "negbin", "negativebinomial", "n")
    param_names = ("mu_eps", "i_eps")
    lower_bounds = (0.0, 1.0)

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
        # log A, A = pi + (1-pi)*alpha in (0,1)
        self._log_a = float(np.log1p(-(1.0 - pi) * (1.0 - alpha)))

    def __repr__(self):
        return (
            f"NbMarginalInnovation(nu={self.nu:g}, pi={self.pi:g}, "
            f"alpha={self.alpha:g})"
        )

    @classmethod
    def from_targets(cls, mu_eps, i_eps, alpha):
        """The law with innovation mean mu_eps and dispersion ratio i_eps > 1
        at thinning probability alpha.  By the stationary-moment identities
        the field marginal NB(nu, pi) has pi = (1 + alpha) / (alpha + i_eps)
        and nu = mu_eps (1 + alpha) / ((1 - alpha) (i_eps - 1))."""
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
        return cls(nu, pi, alpha)

    @classmethod
    def from_params(cls, values, alpha):
        """The law with parameters ``values`` (see ``param_names``) at
        thinning probability alpha."""
        return cls.from_targets(*values, alpha)

    def params(self):
        """Parameter values in ``param_names`` order."""
        mu_eps, sigma2_eps = self.moments()
        return (mu_eps, sigma2_eps / mu_eps)

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

        log G has the series nu log A + nu sum_k (d**k - c**k) u**k / k,
        differentiated here term by term (A and c move with d and alpha).
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

    def _log_pgf_hessian(self, kmax):
        """Series of the second derivatives of log G(u) over (nu, pi, alpha).

        Entry [r, q] pairs rows r and q of ``_log_pgf_series``.  log G is
        linear in nu; the (pi, alpha) block differentiates log A and the
        terms (d**k - c**k) / k once more.
        """
        nu, alpha = self.nu, self.alpha
        d = 1.0 - self.pi
        a = np.exp(self._log_a)
        c = d * alpha / a
        # derivatives of c in d and alpha (A moves with both)
        c_d, c_alpha = alpha / a**2, d * (1.0 - d) / a**2
        c_dd = 2.0 * alpha * (1.0 - alpha) / a**3
        c_alphaalpha = -2.0 * d**2 * (1.0 - d) / a**3
        c_dalpha = (1.0 - d - alpha * d) / a**3
        k = np.arange(1.0, kmax + 1.0)
        c_pow = c ** (k - 1.0)
        # (k-1) x**(k-2), zero at k = 1
        d_pow2, c_pow2 = np.zeros(k.size), np.zeros(k.size)
        d_pow2[1:] = (k[1:] - 1.0) * d ** (k[1:] - 2.0)
        c_pow2[1:] = (k[1:] - 1.0) * c ** (k[1:] - 2.0)
        h = np.zeros((3, 3, int(kmax) + 1))
        first = self._log_pgf_series(kmax)
        h[0, 1] = h[1, 0] = first[1] / nu
        h[0, 2] = h[2, 0] = first[2] / nu
        # pi = 1 - d, so d/dpi = -d/dd
        h[1, 1, 0] = -nu * ((1.0 - alpha) / a) ** 2
        h[1, 1, 1:] = nu * (d_pow2 - c_pow2 * c_d**2 - c_pow * c_dd)
        h[1, 2, 0] = -nu / a**2
        h[1, 2, 1:] = nu * (c_pow2 * c_d * c_alpha + c_pow * c_dalpha)
        h[2, 1] = h[1, 2]
        h[2, 2, 0] = -nu * (d / a) ** 2
        h[2, 2, 1:] = -nu * (c_pow2 * c_alpha**2 + c_pow * c_alphaalpha)
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

    def hessian_series(self, kmax):
        """Series of the second derivatives of log G over (alpha, mu_eps,
        i_eps) at fixed targets.

        Entry [r, q] pairs rows r and q of ``score_series``, so that the
        second PMF derivative is ``pmf_table(kmax) * (h_r * h_q + h_rq)``.
        The chain rule through (nu, pi) takes the Jacobian of the map
        (alpha, mu_eps, i_eps) -> (nu, pi, alpha) of ``score_series`` and
        its second derivatives.
        """
        nu, pi, alpha = self.nu, self.pi, self.alpha
        d = 1.0 - pi
        plus, minus = 1.0 + alpha, 1.0 - alpha
        # d(nu, pi, alpha) / d(alpha, mu_eps, i_eps)
        jac = np.array([
            [2.0 * nu / (minus * plus), pi / (minus * d), -nu * pi / (plus * d)],
            [d * pi / plus, 0.0, -pi**2 / plus],
            [1.0, 0.0, 0.0],
        ])
        # second derivatives of nu and of pi over (alpha, mu_eps, i_eps)
        nu_a_i = -2.0 * nu * pi / (minus * plus**2 * d)
        nu_m_i = -pi**2 / (minus * plus * d**2)
        nu_a_m = 2.0 * pi / (minus**2 * plus * d)
        nu_second = np.array([
            [4.0 * nu / (minus**2 * plus), nu_a_m, nu_a_i],
            [nu_a_m, 0.0, nu_m_i],
            [nu_a_i, nu_m_i, 2.0 * nu * pi**2 / (plus * d) ** 2],
        ])
        pi_a_i = (pi - d) * pi**2 / plus**2
        pi_second = np.array([
            [-2.0 * d * pi**2 / plus**2, 0.0, pi_a_i],
            [0.0, 0.0, 0.0],
            [pi_a_i, 0.0, 2.0 * pi**3 / plus**2],
        ])
        h_nu, h_pi, _ = self._log_pgf_series(kmax)
        return (np.einsum("ra,sb,rsk->abk", jac, jac, self._log_pgf_hessian(kmax))
                + nu_second[:, :, None] * h_nu + pi_second[:, :, None] * h_pi)

    # -- pmf ------------------------------------------------------------------

    def pmf_table(self, kmax):
        """P(eps=k) for k = 0..kmax by the PGF's three-term recurrence.

        G'/G = nu (d-c) / ((1-cu)(1-du)) is rational, so g[k] = P(eps=k)
        satisfies (Panjer 1981; Sundt 1992)

            (k+1) g[k+1] = ((c+d) k + nu (d-c)) g[k] - c d (k-1) g[k-1]

        from g[0] = A**nu.  It runs as the equivalent pair with w = G/(1-cu),

            (k+1) g[k+1] = d k g[k] + nu (d-c) w[k],   w[k+1] = c w[k] + g[k+1],

        whose terms are all positive: the PMF keeps its relative accuracy,
        and its total mass stays 1 to within about 1e-13 even when c is
        close to d.  Values are scaled by powers of two that keep them near
        1, so an A**nu below the float range cannot zero the table.
        """
        if kmax < 0:
            raise ValidationError("kmax must be >= 0")
        kmax = int(kmax)
        pi, alpha, a = self.pi, self.alpha, math.exp(self._log_a)
        d = 1.0 - pi
        c = d * alpha / a
        # nu (d-c), with d-c = d pi (1-alpha) / A free of cancellation
        drift = self.nu * d * pi * (1.0 - alpha) / a
        # g[0] = 2**(exponent + frac) with frac in [0, 1)
        log2_g0 = self.nu * self._log_a / math.log(2.0)
        exponent = math.floor(log2_g0)
        g = w = 2.0 ** (log2_g0 - exponent)
        scaled = np.empty(kmax + 1)
        exponents = np.empty(kmax + 1, dtype=np.int64)
        for k in range(kmax + 1):
            scaled[k], exponents[k] = g, exponent
            g = (d * k * g + drift * w) / (k + 1)
            w = c * w + g
            shift = math.frexp(w)[1]
            if not -500 <= shift <= 500:
                g, w = math.ldexp(g, -shift), math.ldexp(w, -shift)
                exponent += shift
        return np.ldexp(scaled, exponents)


# every family, the one with the most parameters first
_FAMILIES = (NbMarginalInnovation, PoissonInnovation)


def innovation_family(name):
    """The innovation family class called ``name`` or one of its aliases.

    Case, '-' and '_' are ignored, so 'NB', 'neg-bin' and 'nb_marginal'
    all name the NB-marginal family.
    """
    tag = str(name).lower().replace("-", "").replace("_", "")
    for family in _FAMILIES:
        if tag in family.aliases:
            return family
    raise ValidationError(
        f"unknown innovation family {name!r}: use 'poisson' or 'nb'"
    )


def innovation_from_estimates(estimates, alpha):
    """The innovation law that a fit's estimates describe.

    ``estimates`` maps parameter names to values.  The law is that of the
    family with the most parameters that all appear there above their
    lower bounds, so a moment fit whose dispersion estimate is 1 or less
    reads as Poisson.
    """
    for family in _FAMILIES:
        values = [estimates.get(name, np.nan) for name in family.param_names]
        if all(value > bound for value, bound in zip(values, family.lower_bounds)):
            return family.from_params(values, alpha)
    raise ValidationError(
        f"no innovation family has parameters in bounds among {estimates}"
    )
