"""The CML pass read site by site: the reference for the pass over distinct
(x, past) tuples weighted by their counts.

Every interior site is gathered and summed on its own, with no tuple
index: the value, exact score and Hessian of
``_CmlLikelihood.value_score_hessian``, from the same tables.
"""

import numpy as np

from cinar._kernels import thinning_convolution_table
from cinar.estimate import _innovation_series, _inverse_scale, _thinning_step
from cinar.model import lag_views


def per_site_pass(values, order, family, vec, lags=None):
    """(loglik, score, Hessian) at ``vec`` = (theta at ``lags``, default all
    lags, then the innovation parameters of ``family``), summed over the
    interior sites; None where a site has zero probability."""
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
        alpha, _innovation_series(family.from_params(extra, alpha), x_max), n_max)
    table = tables[0]
    values = table.ravel()[flat]
    p_site = phi @ values
    if not np.all(p_site > 0.0):
        return None
    loglik = float(np.sum(np.log(p_site)))
    scale = _inverse_scale(p_site)
    inv_p = scale / p_site
    q = 1 + extra.size
    d1, pairs = tables[1:q + 1], tables[q + 1:]
    d1[0] += _thinning_step(table)
    lag_weights = np.stack([np.bincount(rows, inv_p, minlength=table.size)
                            for rows in flat])

    g = lag_weights @ table.ravel()
    big_g = d1.reshape(q, -1) @ lag_weights.T
    d_a = big_g @ phi
    w = phi @ lag_weights
    pair_w = iter(pairs.reshape(len(pairs), -1) @ w)
    u = _thinning_step(w.reshape(table.shape), adjoint=True)
    d1_u = d1.reshape(q, -1) @ u.ravel()
    second = np.empty((q, q))
    for a in range(q):
        for b in range(a, q):
            second[a, b] = second[b, a] = next(pair_w)
    second[0] += d1_u
    second[:, 0] += d1_u
    second[0, 0] -= table.ravel() @ _thinning_step(u, adjoint=True).ravel()
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
