"""Internal vectorized building blocks shared by likelihood and diagnostics.

The conditional law of a site given its past is a phi-mixture over lags of
(thinned past) + innovation, so every table here thins a series s by the
Pascal rule: row 0 is s, and

    C[n, x] = (1 - alpha) C[n-1, x] + alpha C[n-1, x-1],

so row n is s convolved with Binomial(n, alpha), truncated at its width.
Row-0 series: the innovation PMF e, giving C[n, x] = P(Binomial(n, alpha)
+ eps = x) (likelihood, conditional PMFs); its running sum, the CDF (PIT);
the unit row, giving Binomial(n, alpha) itself (censored PMF); and e * h_a
and e * (h_a * h_b + hh_ab), with the innovation's score and Hessian
series (the likelihood's score and Hessian).  Each step is a convex
combination, so a nonnegative series keeps its relative accuracy.  A fit
reads a table through flat indices n * (x_max+1) + x computed once per grid.
"""

import numpy as np

from .errors import ValidationError

# the most cells (128 MiB of float64) a table may take; larger ones are
# refused before their series are allocated
_MAX_CELLS = 2**24


def _check_cells(n_max, width):
    """Refuse an (n_max+1) x (width+1) table larger than _MAX_CELLS."""
    if (n_max + 1) * (width + 1) > _MAX_CELLS:
        raise ValidationError(
            f"count {max(n_max, width)} is too large: its probability table"
            f" would exceed {_MAX_CELLS} cells")


def thinning_convolution_table(alpha, series, n_max):
    """Tables C of shape series.shape[:-1] + (n_max+1, width), one per
    series of the stack ``series``: row 0 is the series, row n its
    Binomial(n, alpha) thinning (see module docstring).  Callers size the
    table with ``_check_cells`` first.
    """
    series = np.asarray(series, dtype=float)
    table = np.empty(series.shape[:-1] + (int(n_max) + 1, series.shape[-1]))
    table[..., 0, :] = series
    for n in range(1, int(n_max) + 1):
        prev, row = table[..., n - 1, :], table[..., n, :]
        np.multiply(prev, 1.0 - alpha, out=row)
        row[..., 1:] += alpha * prev[..., :-1]
    return table


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
