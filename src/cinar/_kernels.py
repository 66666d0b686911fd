"""Internal vectorized building blocks shared by likelihood and diagnostics.

The conditional law of a site given its past is a phi-mixture over lags of
(thinned past) + innovation.  Everything downstream (conditional PMFs, the
conditional log-likelihood, PIT) reduces to lookups into the table

    C[n, x] = P( Binomial(n, alpha) + eps == x )        (or <= x),

built once per parameter value for all needed past counts n and outcomes x.
A fit reads the table through flat indices n * (x_max+1) + x computed once
per grid, since the table shape is fixed by the grid's largest counts.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import betaln, xlog1py, xlogy

from .errors import ValidationError

# the most cells (128 MiB of float64) a table may take; larger ones are
# refused before they are allocated
_MAX_CELLS = 2**24


def _check_cells(n_max, width):
    """Refuse an (n_max+1) x (width+1) table larger than _MAX_CELLS."""
    if (n_max + 1) * (width + 1) > _MAX_CELLS:
        raise ValidationError(
            f"count {max(n_max, width)} is too large: its probability table"
            f" would exceed {_MAX_CELLS} cells")


def binomial_rows(n_max, alpha):
    """b[n, z] = P(Binomial(n, alpha) = z) for 0 <= n, z <= n_max.

    Each entry is taken in log space, C(n, z) through ``betaln``; entries
    with z > n are 0.
    """
    _check_cells(int(n_max), int(n_max))
    n = np.arange(int(n_max) + 1.0)
    z = n[None, :]
    n = n[:, None]
    upper = z > n
    gap = np.where(upper, 0.0, n - z)
    log_b = (xlogy(z, alpha) + xlog1py(gap, -alpha)
             - np.log1p(n) - betaln(gap + 1.0, z + 1.0))
    return np.where(upper, 0.0, np.exp(log_b))


def thinning_convolution_table(alpha, innovation, n_max, x_max, cumulative=False):
    """Table C of shape (n_max+1, x_max+1); see module docstring.

    ``C[n, x]`` is the PMF (CDF when ``cumulative``) at x of a Binomial(n,
    alpha)-thinned count plus an independent innovation draw.
    """
    n_max, x_max = int(n_max), int(x_max)
    _check_cells(n_max, max(n_max, x_max))
    b = binomial_rows(n_max, alpha)
    e = innovation.pmf_table(x_max)
    if cumulative:
        e = np.cumsum(e)
    return b @ upper_toeplitz(e, n_max + 1)


def upper_toeplitz(series, rows):
    """t[..., y, x] = series[..., x - y] for x >= y, else 0, over ``rows``
    rows: a row vector times t is its convolution with the series,
    truncated to the series' length.  C-contiguous."""
    padded = np.concatenate(
        [np.zeros(series.shape[:-1] + (rows - 1,)), series], axis=-1)
    # reversed, window y of the padded series has y zeros before series[0]
    windows = sliding_window_view(padded, series.shape[-1], axis=-1)
    return np.ascontiguousarray(windows[..., ::-1, :])


def flat_site_index(x_idx, pasts, x_max):
    """Indices into a raveled table of row width x_max+1, one row per lag.

    ``x_idx`` holds each site's outcome index and ``pasts`` one same-shape
    array of past counts per lag; returns the (len(pasts), x_idx.size)
    block past * (x_max+1) + x_idx, each row in row-major site order.
    """
    flat = np.empty((len(pasts), x_idx.size), dtype=np.intp)
    for row, past in zip(flat, pasts):
        row = row.reshape(x_idx.shape)
        np.multiply(past, int(x_max) + 1, out=row)
        row += x_idx
    return flat


def lag_site_values(table, flat, out=None):
    """Per-lag table values table.flat[flat[j, s]] for a flat_site_index block.

    The indices are in range by construction, so no bounds check is paid.
    """
    return np.take(table.ravel(), flat, out=out, mode="clip")
