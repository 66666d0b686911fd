"""Innovation (noise) distributions for count autoregressions.

A CINAR field is defined by its innovation family, and each family
declares itself once, here: its ``name`` and ``aliases``, the names of its
innovation parameters and their ``lower_bounds`` (open for the mean
mu_eps, closed for the NB dispersion i_eps at 1), ``from_params`` to
build the law at a thinning probability, and ``derivative_series``, the
first and second derivatives of its log-PGF over (alpha, *param_names),
which the CML score and Hessian are built from.

* ``PoissonInnovation`` -- Poisson(mu) innovations; the induced stationary
  marginal of the field is again Poisson.
* ``NbMarginalInnovation`` -- the innovation law that makes the stationary
  marginal of the field exactly NB(nu, pi) under total thinning probability
  alpha.  Both families take their PMFs from its recurrence, ``_pmf_table``;
  on its face i_eps = 1 it is Poisson(mu_eps).

``innovation_family`` looks a family up by name, and
``innovation_from_estimates`` finds the law a fit describes.

All distributions are immutable after construction; the cumulative table
used for inverse-CDF sampling is a lazily grown cache and is the only
mutable state (idempotent to rebuild, so concurrent use is safe).
"""

import math

import numpy as np

from .errors import NumericalError, ValidationError
from .model import _whole

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

_K_LAST = 63 * 2**17  # the CDF table doubles from k = 63 up to this k

# ln 2 split so that n * _LN2_HI is exact for |n| < 2**21 (Cody & Waite 1980)
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


def _pmf_table(mu, r, alpha, kmax, log=False):
    """P(eps=k) for k = 0..kmax of the NB-marginal law (mu_eps = mu, r,
    alpha), which is Poisson(mu) at r = 0, or with ``log`` log P(eps=k).

    With d = r/(1+r) and c = alpha r/(1 + alpha r), G'/G = nu (d-c) /
    ((1-cu)(1-du)), so g[k] = P(eps=k) satisfies (Panjer 1981; Sundt 1992)

        (k+1) g[k+1] = ((c+d) k + nu (d-c)) g[k] - c d (k-1) g[k-1].

    It runs as the equivalent pair with w = G/(1-cu),

        (k+1) g[k+1] = d k g[k] + nu (d-c) w[k],   w[k+1] = c w[k] + g[k+1],

    whose terms are all positive: the PMF keeps its relative accuracy, and
    its total mass stays 1 to within about 1e-13 even when c is close to
    d.  Here nu (d-c) = mu/((1+r)(1 + alpha r)) and log g[0] = mu/(1+r)
    log1p(-y)/y with y = (1-alpha) d, -mu at r = 0: Poisson's P(k) =
    P(k-1) mu / k.  g[0] = exp(t) 2**n with |t| <= ln(2)/2 exact to
    rounding, and values are carried scaled by powers of two near 1, so a
    g[0] below the float range cannot zero the table; the log table runs
    from g[0] = 1 and adds log g[0] back.
    """
    kmax = _whole(kmax, "kmax", 0)
    d, c = r / (1.0 + r), alpha * r / (1.0 + alpha * r)
    drift = mu / (1.0 + r) / (1.0 + alpha * r)
    y = (1.0 - alpha) * d
    # log A = log1p(-y) = log((1 + alpha r)/(1 + r)); once 1 - y < 0.1
    # log1p(-y) loses the digits y's rounding leaves, and fails where y
    # rounds to 1
    log_a = math.log1p(-y) if y < 0.9 else math.log1p(alpha * r) - math.log1p(r)
    log_g0 = mu / (1.0 + r) * (log_a / y if y else -1.0)
    if log_g0 <= -2.0**53 and not log:
        return np.zeros(kmax + 1)  # P(k) underflows at every k a table can hold
    exponent = 0 if log else round(log_g0 / math.log(2.0))
    g = w = 1.0 if log else math.exp((log_g0 - exponent * _LN2_HI) - exponent * _LN2_LO)
    scaled = np.empty(kmax + 1)
    exponents = np.empty(kmax + 1, dtype=np.int64)
    for k in range(kmax + 1):
        scaled[k], exponents[k] = g, exponent
        g = (d * k * g + drift * w) / (k + 1)
        w = c * w + g
        if not 2.0**-501 <= w < 2.0**500:  # frexp's exponent outside [-500, 500]
            shift = math.frexp(w)[1]
            g, w = math.ldexp(g, -shift), math.ldexp(w, -shift)
            exponent += shift
    if log:
        return np.log(scaled) + exponents * math.log(2.0) + log_g0
    return np.ldexp(scaled, exponents)


class _InverseCdfMixin:
    """Shared lazily-extended CDF table, sampling and quantiles over ``pmf_table``."""

    _cdf = None  # grown on demand; None until first use

    def _ensure_cdf(self):
        """The cached CDF table; built on first use, doubling its length
        until the tail is negligible."""
        if self._cdf is not None:
            return self._cdf
        mean, variance = self.moments()
        # at most half the mass lies a standard deviation short of the mean
        if mean - math.sqrt(variance) > _K_LAST:
            raise ValidationError(f"innovation mean {mean:g} lies beyond the"
                                  f" largest CDF table, k = {_K_LAST}")
        k_hi = 63
        # the recurrence's rounding moves a table's mass by about mu_eps
        # ulps; allow 16 times that
        floor = 1.0 - TAIL_MASS - 16.0 * np.finfo(float).eps * mean
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
            if k_hi == _K_LAST:
                raise ValidationError("innovation PMF mass does not accumulate"
                                      f" to 1 by k = {_K_LAST}")
            k_hi *= 2
        object.__setattr__(self, "_cdf", cdf)
        return cdf

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

    def pmf_table(self, kmax):
        """P(eps=k) for k = 0..kmax: ``_pmf_table`` at r = 0."""
        return _pmf_table(self.mu, 0.0, 0.0, kmax)

    def _log_pmf_table(self, kmax):
        return _pmf_table(self.mu, 0.0, 0.0, kmax, log=True)

    def derivative_series(self, kmax):
        """Series of the first and second derivatives of log G(u) = mu (u-1)
        over (alpha, mu): the law does not move with alpha, and log G is
        linear in mu.  Returns (h, hh) as ``NbMarginalInnovation`` does."""
        h = np.zeros((2, _whole(kmax, "kmax", 0) + 1))
        h[1, :2] = [-1.0, 1.0][: h.shape[1]]
        return h, np.zeros((2,) + h.shape)

    @staticmethod
    def _ratio_series(laws, width):
        """``NbMarginalInnovation._ratio_series`` for ``laws``, which do not
        depend on mu: h_mu = [-1, 1] and h_mu * h_mu = [1, -2, 1]."""
        rows = np.zeros((len(laws), 5, width))
        rows[:, 1, :2] = [-1.0, 1.0][:width]
        rows[:, 4, :3] = [1.0, -2.0, 1.0][:width]
        return rows

    def moments(self):
        return self.mu, self.mu

    def sample(self, rng, size=None):
        out = rng.poisson(self.mu, size)
        return out if size is not None else int(out)


# Taylor coefficients, power j in column j, of P_0'(x), P_0''(x) (P_0(x) =
# -log(1+x)/x), (t - log1p(t))/t**2 and (log1p(t)/t - 1/(1+t))/t: below 0.5
# their closed forms cancel, and 64 terms reach 1e-16 relative there.
_J = np.arange(64.0)
_TAYLOR = (-1.0) ** _J * np.array([(_J + 1) / (_J + 2), -(_J + 1) * (_J + 2) / (_J + 3),
                                    1 / (_J + 2), (_J + 1) / (_J + 2)])


def _p_series(x, kmax):
    """Series in u of P'(x) and P''(x), P(x) = -log(1 + x (1-u)) / x.

    P_0 = -log(1+x)/x, and for k >= 1, P_k = y**(k-1) z / k with y = x/(1+x)
    and z = 1/(1+x), so that P_k' = z**2 ((k-1) z y**(k-2) - y**(k-1)) / k
    and P_k'' = z**3 ((k-1)(k-2) z**2 y**(k-3) - 4 (k-1) z y**(k-2) + 2
    y**(k-1)) / k, all finite at x = 0.  Returns, per point of ``x``, two
    rows of kmax+1 coefficients.
    """
    k = np.arange(1.0, int(kmax) + 1.0)
    out = np.empty((len(x), 2, k.size + 1))
    scalars = []
    for row, point in zip(out, x):
        y, z = point / (1.0 + point), 1.0 / (1.0 + point)
        if point < 0.5:
            row[:, 0] = _TAYLOR[:2] @ point**_J
        else:
            ell = math.log1p(point) / point
            row[:, 0] = (ell - z) / point, (z * z - 2.0 * (ell - z) / point) / point
        scalars.append((y, z, z**2, z**3))
    y, z, z2, z3 = np.array(scalars).T[..., None]
    # y**(k-1), y**(k-2) and y**(k-3), 1 where their factor k-1 or k-2 is 0
    powers = np.ones((len(x), k.size + 2))
    powers[:, 2:] = y ** (k - 1.0)
    y1, y2, y3 = powers[:, 2:], powers[:, 1:-1], powers[:, :-2]
    out[:, 0, 1:] = ((k - 1.0) * z * y2 - y1) * z2 / k
    out[:, 1, 1:] = ((k - 1.0) * (k - 2.0) * z2 * y3 - 4.0 * (k - 1.0) * z * y2
                     + 2.0 * y1) * z3 / k
    return out


def _q_divided_differences(alpha, r, kmax):
    """Series in u of Q[a, r] = P(r) + a P[a, r], Q[a, a, r] and Q[a, r, r],
    the divided differences of Q(x) = x P(x) at a = alpha r and r, per pair
    of ``alpha`` and ``r``.  With y = x/(1+x), z = 1/(1+x) and rho = y_a/y_r
    = alpha (1+r) z_a, Q_k = y**k/k gives, for k >= 2, Q[a, r] = z_a z_r
    y_r**(k-1) S_{k-1} / k, Q[a, a, r] = z_a**2 z_r (z_r y_r**(k-2) T_{k-2}
    / k - y_a**(k-1)) and Q[a, r, r] = z_a z_r**2 y_r**(k-2) (z_r U_{k-2} -
    y_r S_{k-1}) / k, over the positive sums S_n, T_n and U_n of rho**j,
    (j+1) rho**j and S_j, j <= n; Q_0 = -log(1+x) gives -z_a log1p(t)/t,
    z_a**2 (t - log1p(t))/t**2 and z_a**2 (log1p(t)/t - 1/(1+t))/t, t =
    (r-a) z_a.  No difference of nearby values is taken."""
    n = np.arange(float(kmax))
    out = np.empty((len(r), 3, kmax + 1))
    scalars = []
    for rows, a, x in zip(out, alpha, r):
        z_a, z_r = 1.0 / (1.0 + a * x), 1.0 / (1.0 + x)
        y, t = x * z_r, (1.0 - a) * x * z_a
        rows[0, 0] = -z_a * (math.log1p(t) / t if t else 1.0)
        if t < 0.5:
            first, second = _TAYLOR[2:] @ t**_J
        else:
            ell = math.log1p(t) / t
            first, second = (1.0 - ell) / t, (ell - 1.0 / (1.0 + t)) / t
        rows[1:, 0] = z_a**2 * first, z_a**2 * second
        if kmax:
            rows[1:, 1] = -z_a**2 * z_r, -z_a * z_r**2
        scalars.append((a * (1.0 + x) * z_a, y, z_r, z_a * z_r, z_a**2 * z_r, z_a * z_r**2))
    rho, y, z_r, z_ar, z_aar, z_arr = np.array(scalars).T[..., None]
    powers = rho ** n
    sums = np.cumsum(powers, axis=-1)
    out[:, 0, 1:] = z_ar * y ** n * sums / (n + 1.0)
    k, scale = n[1:] + 1.0, y ** n[:-1]
    out[:, 1, 2:] = z_aar * (z_r * scale * np.cumsum(n[1:] * powers[:, :-1], axis=-1) / k
                             - scale * y * powers[:, 1:])
    out[:, 2, 2:] = (z_arr * scale
                     * (z_r * np.cumsum(sums[:, :-1], axis=-1) - y * sums[:, 1:]) / k)
    return out


def _nb_series(laws, kmax):
    """``NbMarginalInnovation.derivative_series`` of each of ``laws``,
    stacked: with P of ``_p_series``, log G(u) = mu_eps / (1 - alpha) [P(r)
    - alpha P(alpha r)], differentiated through r = (i_eps - 1)/(1 +
    alpha), so dr/di_eps = 1/(1 + alpha) and dr/dalpha = -r/(1 + alpha);
    nothing is divided by r, so the series are exact at r = 0."""
    alpha, r = [law.alpha for law in laws], [law.r for law in laws]
    (q_r, w_r), (q_x, w_x) = _p_series(r + [a * x for a, x in zip(alpha, r)], kmax).reshape(
        2, len(r), 2, -1).swapaxes(1, 2)
    # log G = m F with F = P(r) - alpha P(alpha r), whose r-derivatives are
    # f_r and f_rr; at fixed r, c = 2 P'(alpha r) + alpha r P''(alpha r)
    # gives d2F/dalpha2 = -r c and d2F/dalpha dr = -alpha c; f_aa and f_ai
    # differentiate F twice.  F = (1 - alpha) f_om, f_om = Q[alpha r, r],
    # cancels by 1 - alpha, and so do its first derivatives: log G = mu_eps
    # f_om, differentiated by Q's second divided differences.
    f_om, q_aar, q_arr = _q_divided_differences(alpha, r, kmax).swapaxes(0, 1)
    scalars = []
    for mu, a, x in ((law.mu_eps, law.alpha, law.r) for law in laws):
        m, s = mu / (1.0 - a), 1.0 / (1.0 + a)
        scalars.append((mu, a, x, s, 1.0 - a, m, a**2, a**3, a * x, x * s, m * s * s))
    mu_eps, alpha, r, s, om, m, a2, a3, ar, rs, mss = np.array(scalars).T[..., None]
    f_r, f_rr = q_r - a2 * q_x, w_r - a3 * w_x
    c = 2.0 * q_x + ar * w_x
    f_aa = rs * (s * (r * f_rr + 2.0 * f_r) - om * c)
    f_ai = -s * (alpha * c + s * (f_r + r * f_rr))
    # dm/dmu_eps = 1 / (1 - alpha) and dm/dalpha = m / (1 - alpha)
    f_om_a, f_om_i = rs * (q_aar - q_arr), s * (alpha * q_aar + q_arr)
    h = np.stack([mu_eps * f_om_a, f_om, mu_eps * f_om_i], axis=1)
    hh = np.zeros((len(laws), 3, 3, kmax + 1))
    hh[:, 0, 0] = m * (2.0 * f_om_a + f_aa)
    hh[:, 0, 1] = hh[:, 1, 0] = f_om_a
    hh[:, 0, 2] = hh[:, 2, 0] = m * (f_om_i + f_ai)
    hh[:, 1, 2] = hh[:, 2, 1] = f_om_i
    hh[:, 2, 2] = mss * f_rr
    return h, hh


class NbMarginalInnovation(_InverseCdfMixin):
    """Innovation law inducing an NB(nu, pi) stationary marginal.

    With total thinning probability alpha, the innovation PGF is the ratio
    pgf_X(u)/pgf_X(1-alpha+alpha*u) for X ~ NB(nu, pi).  Writing d = 1-pi,
    A = 1-d(1-alpha) and c = d*alpha/A, it factors as

        G(u) = A**nu (1-cu)**nu (1-du)**(-nu),

    so P(eps=0) = A**nu and the PMF follows the recurrence of
    ``_pmf_table``.  The law is held by the innovation mean ``mu_eps`` and
    ``r`` = (1-pi)/pi = (i_eps - 1)/(1 + alpha), the coordinates a fit
    reports and differentiates (see ``from_targets``); at r = 0, where nu
    = inf and pi = 1, it is Poisson(mu_eps).
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
        self.r, self.alpha = (1.0 - pi) / pi, alpha
        self.mu_eps = nu * (1.0 - alpha) * self.r

    @property
    def nu(self):
        return self.mu_eps / ((1.0 - self.alpha) * self.r) if self.r else math.inf

    @property
    def pi(self):
        return 1.0 / (1.0 + self.r)

    def __repr__(self):
        return (f"NbMarginalInnovation(nu={self.nu:g}, pi={self.pi:g}, "
                f"alpha={self.alpha:g})")

    @classmethod
    def from_targets(cls, mu_eps, i_eps, alpha):
        """The law with innovation mean mu_eps and dispersion ratio i_eps >= 1
        at thinning probability alpha; i_eps = 1 is Poisson(mu_eps).  The
        field marginal NB(nu, pi) has pi = (1 + alpha) / (alpha + i_eps) and
        nu = mu_eps (1 + alpha) / ((1 - alpha) (i_eps - 1)), by the
        stationary moments."""
        mu_eps, i_eps, alpha = float(mu_eps), float(i_eps), float(alpha)
        if not 0.0 < mu_eps < math.inf:
            raise ValidationError(f"mu_eps must be finite and > 0, got {mu_eps}")
        if not 0.0 < alpha < 1.0:
            raise ValidationError(f"alpha must be in (0,1), got {alpha}")
        if not 1.0 <= i_eps < math.inf:
            raise ValidationError("NB construction requires overdispersion: dispersion"
                                  f" ratio must be finite and >= 1, got {i_eps!r}")
        law = cls.__new__(cls)
        law.mu_eps, law.r, law.alpha = mu_eps, (i_eps - 1.0) / (1.0 + alpha), alpha
        return law

    @classmethod
    def from_params(cls, values, alpha):
        """The law with parameters ``values`` (see ``param_names``) at
        thinning probability alpha."""
        return cls.from_targets(*values, alpha)

    def moments(self):
        """(mean, variance) of the innovation itself, (mu_eps, mu_eps i_eps)."""
        return self.mu_eps, self.mu_eps * (1.0 + (1.0 + self.alpha) * self.r)

    def derivative_series(self, kmax):
        """Series of the first and second derivatives of log G(u) over
        (alpha, mu_eps, i_eps), the parameters of ``from_targets``, by
        ``_nb_series``.

        Returns (h, hh): row a of h holds the first kmax+1 coefficients h_a,
        and hh[a, b] those of the second derivative over a and b, so that the
        PMF moves as ``pmf_table(kmax) * h_a`` and its second derivative is
        ``pmf_table(kmax) * (h_a * h_b + hh_ab)``.
        """
        h, hh = _nb_series([self], _whole(kmax, "kmax", 0))
        return h[0], hh[0]

    @staticmethod
    def _ratio_series(laws, width):
        """Per law of ``laws``, the series of the ratios e_a / e and e_ab / e
        of its PMF e's first and second derivatives to e at ``width``
        columns, from its (h, hh): rows h_a, then h_a * h_b + hh_ab for a <=
        b, each product truncated."""
        h, hh = _nb_series(laws, width - 1)
        return np.array([np.vstack([rows] + [np.convolve(rows[a], rows[b])[:width] + second[a, b]
                                             for a in range(3) for b in range(a, 3)])
                         for rows, second in zip(h, hh)])

    def pmf_table(self, kmax):
        """P(eps=k) for k = 0..kmax by ``_pmf_table``."""
        return _pmf_table(self.mu_eps, self.r, self.alpha, kmax)

    def _log_pmf_table(self, kmax):
        return _pmf_table(self.mu_eps, self.r, self.alpha, kmax, log=True)


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
    family with the most parameters that all appear there within their
    lower bounds (mu_eps above 0, the others at or above theirs): a moment
    fit's dispersion estimate of 1 gives the NB law on its Poisson face,
    and one below 1 the Poisson law.
    """
    for family in _FAMILIES:
        values = [estimates.get(name, np.nan) for name in family.param_names]
        mu_eps, rest = values[0], zip(values[1:], family.lower_bounds[1:])
        if mu_eps > 0.0 and all(value >= bound for value, bound in rest):
            return family.from_params(values, alpha)
    raise ValidationError(
        f"no innovation family has parameters in bounds among {estimates}"
    )
