"""Internal vectorized building blocks shared by likelihood and diagnostics.

The conditional law of a site given its past is a phi-mixture over lags of
(thinned past) + innovation, so every table here thins a series s by the
Pascal rule, C[n, x] = (1 - alpha) C[n-1, x] + alpha C[n-1, x-1] from row
0 = s: row n is s convolved with Binomial(n, alpha), truncated at its
width.  Row-0 series: the innovation PMF e, giving C[n, x] = P(Binomial(n,
alpha) + eps = x) (conditional PMFs); its running sum, the CDF (PIT); and
the unit row, giving Binomial(n, alpha) itself (censored PMF).  Each step
is a convex combination, so a nonnegative series keeps its relative
accuracy.  The likelihood reads no probability, which could underflow:
it takes L = log C by the rule in log form, and a table thinned from e *
h_a or e * (h_a * h_b + hh_ab) as its ratio R to C, thinned by R[n, x] = A
R[n-1, x] + (1 - A) R[n-1, x-1], A = (1 - alpha) C[n-1, x] / C[n, x].

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

# the largest key space whose site-tuple keys are uint32
_KEYS_32 = 2**32

# the sites (or tuples) per block of a site-sized pass: the simulator's
# decisions, the Pearson moments and the PIT keep their temporaries to a
# few blocks, not a few site vectors
_BLOCK = 2**16


def _blocks(shape):
    """Slices of the first axis of an array of ``shape``, each of about
    ``_BLOCK`` elements (at least one row), that cover it in order."""
    step = max(1, _BLOCK // math.prod(shape[1:]))
    return (slice(lo, lo + step) for lo in range(0, shape[0], step))


def _check_cells(n_max, x_max, extra_columns=0, support=False):
    """Refuse an (n_max+1) x (x_max+1+extra_columns) table over _MAX_CELLS,
    naming its largest count, or the past n_max and the ``support``'s end."""
    if (n_max + 1) * (x_max + 1 + extra_columns) > _MAX_CELLS:
        end = f" up to the support's end {x_max}" if support else ""
        raise ValidationError(
            f"count {n_max if support else max(n_max, x_max)} is too large: its"
            f" probability table{end} would exceed {_MAX_CELLS} cells")


def thinning_convolution_table(alpha, series, n_max, weights=None):
    """Tables C of shape series.shape[:-1] + (n_max+1, width), one per
    series of the stack ``series``: row 0 is the series, row n its
    Binomial(n, alpha) thinning (see module docstring); with ``weights``,
    tables A and 1 - A (less its column 0), the ratio form's thinning.
    Callers size the table with ``_check_cells`` first.
    """
    series = np.asarray(series, dtype=float)
    rows = int(n_max) + 1
    table = np.empty(series.shape[:-1] + (rows, series.shape[-1]))
    table[..., 0, :] = series
    keep, move = weights or ((1.0 - alpha,) * rows, (alpha,) * rows)
    by_row = np.moveaxis(table, -2, 0)
    buffer = np.empty(by_row.shape[1:-1] + (by_row.shape[-1] - 1,))
    views = zip(by_row[:-1], by_row[1:], by_row[:-1, ..., :-1], by_row[1:, ..., 1:])
    for (prev, row, shift, into), a, b in zip(views, keep[1:], move[1:]):
        np.multiply(prev, a, out=row)
        into += np.multiply(shift, b, out=buffer)
    return table


def log_thinning_table(alphas, log_series, n_max):
    """The stack of tables L = log C, one per thinning probability in
    ``alphas``, with row 0 exp(``log_series[r]``), to row n_max, by the
    Pascal rule in log form: L[n, x] = logaddexp(log(1 - alpha) + L[n-1,
    x], log(alpha) + L[n-1, x-1]), run as M[n, x] = logaddexp(M[n-1, x],
    M[n-1, x-1]) on M = L - n log(1 - alpha) - x log(alpha / (1 - alpha)).
    Each table is computed as alone."""
    keep = np.array([math.log1p(-alpha) for alpha in alphas])
    columns = ((np.array([math.log(alpha) for alpha in alphas]) - keep)[:, None]
               * np.arange(log_series.shape[-1]))
    # M row by row, each row of the stack contiguous
    by_row = np.empty((int(n_max) + 1,) + log_series.shape)
    np.subtract(log_series, columns, out=by_row[0])
    by_row[:, :, 0] = by_row[:1, :, 0]
    for stay, move, row in zip(by_row[:-1, :, 1:], by_row[:-1, :, :-1], by_row[1:, :, 1:]):
        np.logaddexp(stay, move, out=row)
    table = np.empty((len(keep),) + by_row.shape[::2])
    return np.add(by_row.swapaxes(0, 1), keep[:, None, None] * np.arange(int(n_max) + 1)[:, None]
                  + columns[:, None], out=table)


def lag_site_values(table, flat, out=None):
    """Per-lag values table.flat[flat[j, s]] of a ``SiteTuples.flat`` block,
    in range by construction, so no bounds check is paid."""
    return table.take(flat, out=out, mode="clip")


class SiteTuples:
    """The interior sites of one grid, as (x, past at each lag) tuples.

    Built once per (grid ``values``, ``order``, ``lags``), ``lags`` indexing
    the order's lag set (default all).  Each site's tuple is keyed into one
    integer by mixed radix over the columns' maxima: uint32 when the key
    space fits in ``_KEYS_32``, as on any grid under 2**30 sites, else intp.
    When that key space is at most 4 times the number of interior sites,
    the keys (half an int64 per site) are sorted in place, and the distinct
    tuples, in key order, and their ``counts`` are read off the sorted keys
    with one bool mask; the keys are freed before the tuples are unravelled.
    Otherwise the tuples are the sites, as views of the grid, with unit
    counts.  ``x`` and ``pasts`` hold the ``size`` tuples, ``n_sites``
    counts the interior sites, and ``n_max`` (largest past) and ``x_max``
    size the tables gathered through ``flat``.
    """

    def __init__(self, values, order, lags=None):
        x, pasts = lag_views(values, order)
        if lags is not None:
            pasts = [pasts[k] for k in lags]
        self.n_sites, self.x, self.pasts = x.size, x, pasts
        radices = [int(column.max()) + 1 for column in (x, *pasts)]
        self.x_max, self.n_max = radices[0] - 1, max(radices[1:]) - 1
        self.counts = np.broadcast_to(np.intp(1), (self.n_sites,))
        space = math.prod(radices)
        if space <= 4 * self.n_sites:
            key = x.astype(np.uint32 if space <= _KEYS_32 else np.intp)
            for column, radix in zip(pasts, radices[1:]):
                key *= radix
                np.add(key, column, out=key, casting="unsafe")
            key = key.reshape(-1)
            key.sort()
            first = np.empty(key.size, dtype=bool)
            first[0] = True
            np.not_equal(key[1:], key[:-1], out=first[1:])
            keys = key[first]
            del key
            self.counts = np.diff(np.flatnonzero(first), append=self.n_sites)
            self.x, *self.pasts = np.unravel_index(keys, radices)
        self.size = self.counts.size

    def blocks(self):
        """(rows, tuples) slice pairs that cut the tuples into blocks of about
        ``_BLOCK``: ``rows`` slices ``x`` and ``pasts`` (as ``flat`` takes
        it), and ``tuples`` the per-tuple vectors such as ``counts``."""
        per_row = self.size // len(self.x)
        for rows in _blocks(np.shape(self.x)):
            yield rows, slice(rows.start * per_row, rows.stop * per_row)

    def flat(self, width, lags=None, out=None, rows=slice(None)):
        """Indices past * width + x into a raveled table of row ``width``, one
        row per lag (``lags`` indexes ``pasts``, default all) and one column
        per tuple of the block ``rows`` (default all, see ``blocks``),
        written to ``out`` if given."""
        x = self.x[rows]
        pasts = self.pasts if lags is None else [self.pasts[j] for j in lags]
        flat = np.empty((len(pasts), x.size), dtype=np.intp) if out is None else out
        for row, past in zip(flat, pasts):
            row = row.reshape(x.shape)
            np.add(np.multiply(past[rows], width, out=row), x, out=row)
        return flat
