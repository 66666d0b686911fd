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

Reductions that depend on a site only through its tuple (x, past at each
lag) can run over the distinct tuples instead, weighted by their counts;
``distinct_sites`` finds them by counting mixed-radix keys.
"""

import math

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


def distinct_sites(columns, index=False):
    """The distinct rows of the site columns and their counts.

    ``columns`` holds same-shape arrays of nonnegative counts, one value per
    site each.  Each site's tuple is keyed into one intp by mixed radix over
    the columns' maxima.  When that dense key space is at most 4 times the
    number of sites (so its counts take at most 4 int64 per site), one
    ``bincount`` of the keys gives the distinct tuples, in key order, with
    their counts.  Otherwise the sites themselves are returned with unit
    counts.

    Returns ``(tuples, counts, site_index)``: one array per column holding
    the tuples, and a 1-D array of their counts, so that a reduction over
    sites weights each tuple by its count.  With ``index=True``,
    ``site_index`` is an intp array shaped like the columns holding each
    site's position in the raveled tuples, so that per-site values are
    ``np.take(per_tuple_values, site_index)``; otherwise it is None.
    """
    shape = np.shape(columns[0])
    n_sites = math.prod(shape)
    radices = [int(column.max()) + 1 for column in columns]
    if math.prod(radices) > 4 * n_sites:
        return (list(columns), np.broadcast_to(np.intp(1), (n_sites,)),
                np.arange(n_sites).reshape(shape) if index else None)
    key = np.empty(shape, dtype=np.intp)
    np.copyto(key, columns[0])
    for column, radix in zip(columns[1:], radices[1:]):
        key *= radix
        key += column
    table = np.bincount(key.ravel())
    keys = np.flatnonzero(table)
    counts = table[keys]
    site_index = None
    if index:
        # the key counts are read; the table now maps a key to its tuple.
        # In place: take reads each site's key before writing its slot.
        table[keys] = np.arange(keys.size)
        site_index = np.take(table, key, out=key, mode="clip")
    return list(np.unravel_index(keys, radices)), counts, site_index
