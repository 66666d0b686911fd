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


def nb_point_mp(innovation):
    """[alpha, mu_eps, i_eps] of an ``NbMarginalInnovation``, the
    coordinates of ``from_targets``, in mpmath and exact from the law's
    held (mu_eps, r = (i_eps - 1)/(1 + alpha), alpha)."""
    import mpmath as mp

    alpha, mu_eps, r = (mp.mpf(v) for v in
                        (innovation.alpha, innovation.mu_eps, innovation.r))
    return [alpha, mu_eps, 1 + (1 + alpha) * r]


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


def poisson_loglik_mp(params, values):
    """Conditional log-likelihood of the interior sites of ``values`` under
    ``params``, whose innovations are Poisson, summed site by site in
    60-digit mpmath: each site's probability is sum_j phi_j sum_z C(n_j, z)
    alpha**z (1-alpha)**(n_j-z) P(eps = x-z), with alpha and phi the floats
    the likelihood reads."""
    import mpmath as mp

    x, lagged = lagged_stack(values, params.order)
    sites = {}
    for key in zip(x.tolist(), map(tuple, lagged.tolist())):
        sites[key] = sites.get(key, 0) + 1
    with mp.workdps(60):
        alpha, mu = mp.mpf(params.alpha), mp.mpf(params.innovation.mu)
        phi = [mp.mpf(p) for p in params.phi]
        cells = {}

        def cell(n, count):  # P(Binomial(n, alpha) + eps = count)
            if (n, count) not in cells:
                cells[n, count] = mp.fsum(
                    mp.binomial(n, z) * alpha**z * (1 - alpha) ** (n - z)
                    * mp.exp(-mu) * mu ** (count - z) / mp.factorial(count - z)
                    for z in range(min(n, count) + 1))
            return cells[n, count]

        return float(mp.fsum(
            times * mp.log(mp.fsum(f * cell(n, count) for f, n in zip(phi, pasts)))
            for (count, pasts), times in sites.items()))


def _pmf_mp(vec, kmax):
    """P(eps = k), k = 0..kmax, at (alpha, mu_eps) for Poisson or (alpha,
    mu_eps, i_eps) for the NB-marginal law, in mpmath: the latter by its
    three-term recurrence (k+1) g[k+1] = ((c+d) k + nu (d-c)) g[k] - c d
    (k-1) g[k-1] from g[0] = A**nu."""
    import mpmath as mp

    if len(vec) == 2:
        out = [mp.exp(-vec[1])]
        for k in range(kmax):
            out.append(out[-1] * vec[1] / (k + 1))
        return out
    alpha = vec[0]
    nu, pi, _ = nb_law_mp(*vec)
    d = 1 - pi
    a = 1 - d * (1 - alpha)
    c = d * alpha / a
    g = [a**nu, nu * (d - c) * a**nu]
    for k in range(1, kmax):
        g.append((((c + d) * k + nu * (d - c)) * g[k] - c * d * (k - 1) * g[k - 1])
                 / (k + 1))
    return g[: kmax + 1]


def thinning_cells_mp(vec, cells, kmax):
    """log C and the ratio tables of a likelihood pass at ``cells``, pairs
    (n, x), for the innovation law at ``vec`` = (alpha, innovation
    parameters), in mpmath at the caller's working precision.

    C[n, x] = sum_z Bin(z; n, alpha) e[x-z].  Rows: log C; dC/da / C for
    each a of ``vec``, alpha moving the binomial too; then, for each pair a
    <= b, sum_z Bin(z; n, alpha) d2e[x-z]/da db / C.  The derivatives of e
    are central differences of step 1e-15, whose error is about 1e-30.
    """
    import mpmath as mp

    q, h = len(vec), mp.mpf("1e-15")
    vec = [mp.mpf(v) for v in vec]
    unit = np.eye(q, dtype=int)

    def pmf(*steps):
        return _pmf_mp([v + h * sum(step[i] for step in steps)
                        for i, v in enumerate(vec)], kmax)

    base = pmf()
    plus, minus = [pmf(u) for u in unit], [pmf(-u) for u in unit]
    first = [[(p - m) / (2 * h) for p, m in zip(plus[a], minus[a])] for a in range(q)]
    second = []
    for a in range(q):
        for b in range(a, q):
            if a == b:
                second.append([(p - 2 * e + m) / h**2
                               for p, e, m in zip(plus[a], base, minus[a])])
            else:
                corners = [pmf(sa * unit[a], sb * unit[b])
                           for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
                second.append([(pp - pm - mp_ + mm) / (4 * h**2)
                               for pp, pm, mp_, mm in zip(*corners)])
    alpha, out = vec[0], []
    for n, x in cells:
        zs = range(min(n, x) + 1)
        weights = [mp.binomial(n, z) * alpha**z * (1 - alpha) ** (n - z) for z in zs]

        def thin(series):
            return mp.fsum(w * series[x - z] for z, w in zip(zs, weights))

        c = thin(base)
        step = mp.fsum(w * (z / alpha - (n - z) / (1 - alpha)) * base[x - z]
                       for z, w in zip(zs, weights))
        rows = [mp.log(c), (thin(first[0]) + step) / c]
        rows += [thin(series) / c for series in first[1:] + second]
        out.append([float(row) for row in rows])
    return np.array(out).T
