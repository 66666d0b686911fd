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
combination, so a nonnegative series keeps its relative accuracy.

The likelihood and the PIT gather their tables through one ``SiteTuples``:
a grid's distinct (x, past) tuples and their counts, or its sites.
"""

import math

import numpy as np

from .errors import ValidationError
from .model import lag_views

# the most cells (128 MiB of float64) a table may take; larger ones are
# refused before their series are allocated
_MAX_CELLS = 2**24


def _check_cells(n_max, x_max, extra_columns=0):
    """Refuse an (n_max+1) x (x_max+1+extra_columns) table over _MAX_CELLS."""
    if (n_max + 1) * (x_max + 1 + extra_columns) > _MAX_CELLS:
        raise ValidationError(
            f"count {max(n_max, x_max)} is too large: its probability table"
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


def lag_site_values(table, flat, out=None):
    """Per-lag values table.flat[flat[j, s]] of a ``SiteTuples.flat`` block,
    in range by construction, so no bounds check is paid."""
    return np.take(table.ravel(), flat, out=out, mode="clip")


class SiteTuples:
    """The interior sites of one grid, as (x, past at each lag) tuples.

    Built once per (grid ``values``, ``order``, ``lags``), ``lags`` indexing
    the order's lag set (default all).  Each site's tuple is keyed into one
    intp by mixed radix over the columns' maxima.  When that key space is
    at most 4 times the number of interior sites (its counts take at most 4
    int64 per site), one ``bincount`` gives the distinct tuples, in key
    order, with their ``counts``; otherwise the tuples are the sites, as
    views of the grid, with unit counts.  ``x`` and ``pasts`` hold the
    ``size`` tuples, ``n_sites`` counts the interior sites, and ``n_max``
    (largest past) and ``x_max`` size the tables gathered through ``flat``.
    """

    def __init__(self, values, order, lags=None):
        x, pasts = lag_views(values, order)
        if lags is not None:
            pasts = [pasts[k] for k in lags]
        self.shape, self.n_sites, self._corner = x.shape, x.size, (order.p1, order.p2)
        self._columns = [x, *pasts]
        self._radices = [int(column.max()) + 1 for column in self._columns]
        self.x_max, self.n_max = self._radices[0] - 1, max(self._radices[1:]) - 1
        self._keys, self.x, self.pasts = None, x, pasts
        self.counts = np.broadcast_to(np.intp(1), (self.n_sites,))
        if math.prod(self._radices) <= 4 * self.n_sites:
            table = np.bincount(self._site_keys().ravel())
            # a bool mask: nonzero is about 3x faster on it than on int64
            self._keys = np.flatnonzero(table != 0)
            self.counts = table[self._keys]
            self.x, *self.pasts = np.unravel_index(self._keys, self._radices)
        self.size = self.counts.size

    def _site_keys(self):
        key = np.empty(self.shape, dtype=np.intp)
        np.copyto(key, self._columns[0])
        for column, radix in zip(self._columns[1:], self._radices[1:]):
            key *= radix
            key += column
        return key

    def flat(self, width, lags=None):
        """Indices past * width + x into a raveled table of row ``width``, one
        row per lag (``lags`` indexes ``pasts``, default all) and one column
        per tuple."""
        pasts = self.pasts if lags is None else [self.pasts[j] for j in lags]
        flat = np.empty((len(pasts), self.size), dtype=np.intp)
        for row, past in zip(flat, pasts):
            row = row.reshape(np.shape(self.x))
            np.add(np.multiply(past, width, out=row), self.x, out=row)
        return flat

    def cells(self, mask):
        """Grid cells (row, column) of the sites whose tuples ``mask`` selects."""
        if self._keys is not None:  # a bool table over the selected keys
            mask = np.isin(self._site_keys(), self._keys[mask], kind="table")
        return np.argwhere(np.reshape(mask, self.shape)) + self._corner
