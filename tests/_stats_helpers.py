"""Shared statistical helpers for the test suite."""

import numpy as np
from scipy import stats

from cinar.model import lag_views


def lagged_stack(values, order):
    """Interior counts and, per lag, their past counts, copied site by site.

    Returns x, the interior counts in row-major order, and lagged, of shape
    (len(x), n_lags), whose column m holds the counts at lag S[m] aligned
    with x: the row-major flattening of ``lag_views``.
    """
    x, pasts = lag_views(values, order)
    return x.reshape(-1), np.stack([past.reshape(-1) for past in pasts], axis=1)


def chisq_gof(values, pmf, level=0.01):
    """Pearson chi-square GOF of integer draws against a fully known PMF.

    Bins are the integers 0..max plus an upper tail bin; bins with expected
    count below 5 are pooled inward from both ends.  Returns
    ``(stat, dof, crit, pvalue)`` with ``crit`` the level-``level`` critical
    value.  The draws must be (approximately) independent for the chi-square
    reference distribution to apply — subsample correlated grids first.
    """
    values = np.asarray(values).ravel()
    n = values.size
    kmax = int(values.max())
    p = pmf(np.arange(kmax + 1))
    p = np.append(p, max(1.0 - p.sum(), 0.0))
    obs = np.append(np.bincount(values, minlength=kmax + 1).astype(float), 0.0)
    exp = n * p
    while len(exp) > 2 and exp[-1] < 5.0:
        exp[-2] += exp[-1]
        obs[-2] += obs[-1]
        exp, obs = exp[:-1], obs[:-1]
    while len(exp) > 2 and exp[0] < 5.0:
        exp[1] += exp[0]
        obs[1] += obs[0]
        exp, obs = exp[1:], obs[1:]
    stat = float(((obs - exp) ** 2 / exp).sum())
    dof = len(exp) - 1
    crit = float(stats.chi2.ppf(1.0 - level, dof))
    return stat, dof, crit, float(stats.chi2.sf(stat, dof))


def nb_pmf_mp(nu, pi, alpha, k):
    """P(eps = k) of the NB-marginal innovation from its two-branch formula.

    With d = 1-pi and A = 1-d(1-alpha), P(eps=0) = A**nu and, for k >= 1,

        P(eps=k) = sum_{j=1..k} C(nu, j) A**(nu-j) (1-A)**j
                       * C(k-1, j-1) d**(k-j) pi**j,

    an alternating sum for non-integer nu, so it is evaluated in mpmath at
    the caller's working precision.
    """
    import mpmath as mp

    d = 1 - pi
    a = 1 - d * (1 - alpha)
    if k == 0:
        return a**nu
    return mp.fsum(
        mp.binomial(nu, j) * a ** (nu - j) * (1 - a) ** j
        * mp.binomial(k - 1, j - 1) * d ** (k - j) * pi**j
        for j in range(1, k + 1)
    )


def nb_targets_mp(nu, pi, alpha):
    """[alpha, mu_eps, i_eps] of the NB-marginal law (nu, pi, alpha), the
    coordinates of ``NbMarginalInnovation.from_targets``, in mpmath."""
    r = (1 - pi) / pi
    return [alpha, nu * (1 - alpha) * r, 1 + (1 + alpha) * r]


def nb_law_mp(alpha, mu_eps, i_eps):
    """(nu, pi, alpha) of ``from_targets(mu_eps, i_eps, alpha)``, in mpmath."""
    nu = mu_eps * (1 + alpha) / ((1 - alpha) * (i_eps - 1))
    return nu, (1 + alpha) / (alpha + i_eps), alpha


def nb_log_pgf_mp(nu, pi, alpha, k):
    """Coefficient k of the NB-marginal innovation's log-PGF: nu log A at
    k = 0 and nu (d**k - c**k) / k above, with d = 1-pi, A = 1-d(1-alpha)
    and c = d alpha / A; in mpmath at the caller's working precision."""
    import mpmath as mp

    d = 1 - pi
    a = 1 - d * (1 - alpha)
    if k == 0:
        return nu * mp.log(a)
    return nu * (d**k - (d * alpha / a) ** k) / k
