"""The CML pass in probability space, read site by site: the reference for
the log-form pass over distinct (x, past) tuples weighted by their counts.

Every interior site is gathered and summed on its own, with no tuple
index, from probability-space tables C, dC/da and d2C/da da' thinned by
``thinning_convolution_table``: the value, exact score and Hessian of
``_CmlLikelihood.value_score_hessian``.  Sums linear in 1/p_s are taken
over s / p_s, with s an exact power of two, and divided by s at the end,
so that they hold while 1/p_s is finite.
"""

import numpy as np

from cinar._kernels import thinning_convolution_table
from cinar.model import lag_views


def _step(table, adjoint=False):
    """d table / d alpha through thinning, over (n, x): n (T[n-1, x-1] -
    T[n-1, x]); or its adjoint, (n+1) (T[n+1, x+1] - T[n+1, x])."""
    into, src = (slice(-1), slice(1, None)) if adjoint else (slice(1, None), slice(-1))
    out = np.zeros_like(table)
    np.negative(table[src], out=out[into])
    out[into, into] += table[src, src]
    out *= np.arange(adjoint, table.shape[0] + adjoint)[:, None]
    return out


def _series(innovation, x_max):
    """Row-0 series: e, each e * h_a and each e * (h_a * h_b + hh_ab)."""
    e = innovation.pmf_table(x_max)
    h, hh = innovation.derivative_series(x_max)
    q, width = h.shape
    inner = list(h) + [np.convolve(h[a], h[b])[:width] + hh[a, b]
                       for a in range(q) for b in range(a, q)]
    return np.vstack([e] + [np.convolve(e, s)[:width] for s in inner])


def per_site_pass(values, order, family, vec, lags=None):
    """(loglik, score, Hessian) at ``vec`` = (theta at ``lags``, default all
    lags, then the innovation parameters of ``family``), summed over the
    interior sites; None where a site's probability is 0 in floating point."""
    x, pasts = lag_views(values, order)
    if lags is not None:
        pasts = [pasts[k] for k in lags]
    x_max, n_max = int(x.max()), max(int(past.max()) for past in pasts)
    flat = np.stack([(past * (x_max + 1) + x).ravel() for past in pasts])
    m = len(pasts)
    theta, extra = vec[:m], vec[m:]
    alpha = float(theta.sum())
    phi = theta / alpha
    tables = thinning_convolution_table(
        alpha, _series(family.from_params(extra, alpha), x_max), n_max)
    table = tables[0]
    values = table.ravel()[flat]
    p_site = phi @ values
    if not np.all(p_site > 0.0):
        return None
    loglik = float(np.sum(np.log(p_site)))
    exponent = int(np.frexp(p_site.min())[1])
    scale = float(np.ldexp(1.0, exponent + 500)) if exponent < -500 else 1.0
    inv_p = scale / p_site
    q = 1 + extra.size
    d1, pairs = tables[1:q + 1], tables[q + 1:]
    d1[0] += _step(table)
    lag_weights = np.stack([np.bincount(rows, inv_p, minlength=table.size)
                            for rows in flat])

    g = lag_weights @ table.ravel()
    big_g = d1.reshape(q, -1) @ lag_weights.T
    d_a = big_g @ phi
    w = phi @ lag_weights
    pair_w = iter(pairs.reshape(len(pairs), -1) @ w)
    u = _step(w.reshape(table.shape), adjoint=True)
    d1_u = d1.reshape(q, -1) @ u.ravel()
    second = np.empty((q, q))
    for a in range(q):
        for b in range(a, q):
            second[a, b] = second[b, a] = next(pair_w)
    second[0] += d1_u
    second[:, 0] += d1_u
    second[0, 0] -= table.ravel() @ _step(u, adjoint=True).ravel()
    g_phi, big_g_phi = g - phi @ g, big_g - d_a[:, None]
    score = np.concatenate([d_a[0] + g_phi / alpha, d_a[1:]]) / scale
    hess = np.empty((vec.size, vec.size))
    hess[:m, :m] = (second[0, 0] + (big_g_phi[0][:, None] + big_g_phi[0])
                    / alpha - (g_phi[:, None] + g_phi) / alpha**2)
    hess[:m, m:] = big_g_phi[1:].T / alpha + second[0, 1:]
    hess[m:, :m] = hess[:m, m:].T
    hess[m:, m:] = second[1:, 1:]
    hess /= scale

    # the Gram of the per-site score, site by site
    site_d1 = np.stack([phi @ d_table.ravel()[flat] for d_table in d1]) / p_site
    dlog_theta = (values - p_site) / p_site + alpha * site_d1[0]
    d_psi = site_d1[1:]
    hess[:m, :m] -= dlog_theta @ dlog_theta.T / alpha**2
    cross = dlog_theta @ d_psi.T / alpha
    hess[:m, m:] -= cross
    hess[m:, :m] -= cross.T
    hess[m:, m:] -= d_psi @ d_psi.T
    return loglik, score, hess
