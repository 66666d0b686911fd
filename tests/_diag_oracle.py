"""Grid-level diagnostics as first written, kept as test oracles.

Both read every site's past through the ``lagged_stack`` copy.  The PIT
builds its cell overlaps as (sites x bins) arrays, and reads the
cumulative table per lag with 2-D fancy indexing; ``pit_histogram`` and
``pearson_residuals`` must agree with them to rounding.
"""

import numpy as np

from cinar._kernels import thinning_convolution_table

from _stats_helpers import lagged_stack


def _mixture(table, lagged, phi, x_idx):
    out = np.zeros(lagged.shape[0])
    for j in range(lagged.shape[1]):
        out += phi[j] * table[lagged[:, j], x_idx]
    return out


def pit_oracle(params, grid, bins=10):
    """(heights, number of sites whose F(x-1) equals F(x) in floating point)."""
    x, lagged = lagged_stack(grid.values, params.order)
    phi = params.phi
    table = thinning_convolution_table(
        params.alpha, np.cumsum(params.innovation.pmf_table(int(x.max()))),
        int(lagged.max()),
    )
    f_hi = np.clip(_mixture(table, lagged, phi, x), 0.0, 1.0)
    x_lo = np.maximum(x - 1, 0)
    f_lo = np.where(x >= 1, _mixture(table, lagged, phi, x_lo), 0.0)
    f_lo = np.clip(f_lo, 0.0, None)
    f_lo = np.minimum(f_lo, f_hi)
    collapsed = (f_hi - f_lo <= 0.0) & (f_hi > 0.0)
    f_lo = np.where(collapsed, np.nextafter(f_hi, -np.inf), f_lo)
    denom = np.maximum(f_hi - f_lo, 1e-300)

    edges = np.linspace(0.0, 1.0, bins + 1)
    seg_lo = np.maximum(f_lo[:, None], edges[None, :-1])
    seg_hi = np.minimum(f_hi[:, None], edges[None, 1:])
    overlap = np.clip(seg_hi - seg_lo, 0.0, None) / denom[:, None]
    return bins * overlap.mean(axis=0), int(collapsed.sum())


def pearson_oracle(params, grid):
    """Pearson residuals over the interior, shaped like the interior block."""
    order = params.order
    x, lagged = lagged_stack(grid.values, order)
    alpha, phi = params.alpha, params.phi
    mu_eps, sigma2_eps = params.innovation.moments()
    lag = lagged.astype(float)
    w1 = lag @ phi
    w2 = lag**2 @ phi
    mean = mu_eps + alpha * w1
    var = sigma2_eps + alpha * (1.0 - alpha) * w1 + alpha**2 * (w2 - w1**2)
    res = (x - mean) / np.sqrt(var)
    return res.reshape(grid.n1 - order.p1, grid.n2 - order.p2)
