"""Conditional laws and model diagnostics.

One-site conditional PMFs (plain and censored), grid-level
Pearson residuals, non-randomized mean-PIT histograms, and the re-scaled
information criteria.  The conditional law of a site given its past is the
phi-mixture over lags of (binomially thinned past) + innovation; every
routine here is a different reduction of that mixture.

The PIT depends on a site only through its tuple (x, past at each lag), so
it gathers its CDF table over ``_kernels.SiteTuples``; the Pearson
residuals take the mixture's closed-form moments site by site.  Both run
in blocks of ``_kernels._BLOCK`` sites or tuples, so their temporaries
stay a few blocks on any grid.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import (SiteTuples, _blocks, _check_cells, lag_site_values,
                       thinning_convolution_table)
from .acf import AcfTable, _row_sums, sample_acf
from .errors import ValidationError
from .model import _validated, _whole, lag_views

__all__ = [
    "ConditionalPmf",
    "PearsonResiduals",
    "DiagnosticsReport",
    "conditional_pmf",
    "conditional_moments",
    "tobit_conditional_pmf",
    "pearson_residuals",
    "pit_histogram",
    "information_criteria",
    "build_diagnostics",
]

# innovation-support truncation level for one-site conditional PMFs
_TAIL = 1e-13


@dataclass(frozen=True)
class ConditionalPmf:
    """Conditional distribution of one site given its neighbourhood.

    ``probs[x]`` is P(X = x | past) for x = 0..support_max; total mass is
    1 within 1e-10 and the stored mean/variance agree with the PMF within
    1e-8.
    """

    support_max: int
    probs: np.ndarray
    mean: float
    variance: float

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float).copy()
        if probs.ndim != 1 or probs.size != int(self.support_max) + 1:
            raise ValidationError(
                "probs must be a vector over 0..support_max"
            )
        if np.any(probs < 0.0):
            raise ValidationError("conditional probabilities must be >= 0")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-10:
            raise ValidationError(
                f"conditional PMF mass {total:.12f} deviates from 1 by more than 1e-10"
            )
        x = np.arange(probs.size, dtype=float)
        mean = float(probs @ x)
        var = float(probs @ x**2) - mean**2
        if abs(mean - self.mean) > 1e-8 or abs(var - self.variance) > 1e-8:
            raise ValidationError(
                "stored conditional moments are inconsistent with the PMF"
            )
        probs.setflags(write=False)
        object.__setattr__(self, "support_max", int(self.support_max))
        object.__setattr__(self, "probs", probs)

    @classmethod
    def from_probs(cls, probs):
        probs = np.asarray(probs, dtype=float)
        x = np.arange(probs.size, dtype=float)
        mean = float(probs @ x)
        var = float(probs @ x**2) - mean**2
        return cls(probs.size - 1, probs, mean, var)


def _check_past(past, m):
    past = np.asarray(past)
    if past.shape != (m,):
        raise ValidationError(f"past must have one value per lag ({m}), got {past.shape}")
    if np.any(past < 0) or not np.all(past == np.floor(past)):
        raise ValidationError("past values must be nonnegative integers")
    return past.astype(np.int64)


def conditional_pmf(params, past):
    """Conditional PMF of a site given its lagged past values (over S).

    The mixture sum_ij phi_ij * (Binomial(X_past, alpha) + eps) law; the
    support is truncated where the remaining mass is below ~1e-13.
    """
    _validated(params)
    past = _check_past(past, params.order.n_lags)
    alpha, innovation = params.alpha, params.innovation
    eps_max = innovation.quantile(1.0 - _TAIL)
    n_max = int(past.max())
    x_max = n_max + eps_max
    _check_cells(n_max, x_max, support=True)
    table = thinning_convolution_table(alpha, innovation.pmf_table(x_max), n_max)
    return ConditionalPmf.from_probs(params.phi @ table[past, :])


def conditional_moments(params, past):
    """Closed-form conditional mean and variance given the lagged past."""
    _validated(params)
    past = _check_past(past, params.order.n_lags)
    return tuple(float(moment) for moment in _mixture_moments(params, past))


def _mixture_moments(params, pasts):
    """Conditional mean and variance given the past at each lag of S (one
    count or array of counts per lag), written over the lag sums w1, w2."""
    alpha = params.alpha
    mu_eps, sigma2_eps = params.innovation.moments()
    shape = np.shape(pasts[0])
    w1, w2, scratch = np.zeros(shape), np.zeros(shape), np.empty(shape)
    for p, past in zip(params.phi, pasts):
        w1 += np.multiply(p, past, out=scratch)
        w2 += np.multiply(p, np.square(past, out=scratch, dtype=float), out=scratch)
    # var = sigma2_eps + alpha (1 - alpha) w1 + alpha**2 (w2 - w1**2), in this order
    w2 -= np.square(w1, out=scratch)
    w2 *= alpha**2
    np.multiply(alpha * (1.0 - alpha), w1, out=scratch)
    w2 += np.add(sigma2_eps, scratch, out=scratch)
    mean = np.add(mu_eps, np.multiply(alpha, w1, out=w1), out=w1)
    return mean, w2


def tobit_conditional_pmf(params, signs, past):
    """Conditional PMF of a censored-model site given its lagged past.

    Builds the signed-sum law of Y = s(i,j)*(thinned past) + eps on its
    finite support (lower bound: sum of min(0, s)*past), then folds the
    mass at y <= 0 into x = 0.
    """
    _validated(params)
    if signs.order != params.order:
        raise ValidationError("sign pattern order does not match the model order")
    past = _check_past(past, params.order.n_lags)
    alpha, phi = params.alpha, params.phi
    innovation = params.innovation
    n_max = int(past.max())
    _check_cells(n_max, n_max)
    eps_max = innovation.quantile(1.0 - _TAIL)
    ep = innovation.pmf_table(eps_max)

    lower = int(np.minimum(signs.signs, 0) @ past)
    upper = int(np.max(np.where(signs.signs > 0, past, 0))) + eps_max
    acc = np.zeros(upper - lower + 1)
    rows = thinning_convolution_table(alpha, np.eye(1, n_max + 1)[0], n_max)
    for j in range(past.size):
        n = int(past[j])
        bp = rows[n, : n + 1]
        if signs.signs[j] > 0:
            contrib = np.convolve(bp, ep)  # support 0 .. n + eps_max
            off = 0 - lower
        else:
            contrib = np.convolve(ep, bp[::-1])  # support -n .. eps_max
            off = -n - lower
        acc[off: off + contrib.size] += phi[j] * contrib

    probs = np.zeros(max(upper, 0) + 1)
    probs[0] = acc[: 1 - lower].sum()  # all y <= 0 fold into x = 0
    probs[1:] = acc[1 - lower:]
    return ConditionalPmf.from_probs(probs)


# =============================================================================
# Grid-level diagnostics
# =============================================================================


@dataclass(frozen=True)
class PearsonResiduals:
    """Standardized one-step-ahead residuals over the interior sites."""

    values: np.ndarray
    mean: float
    variance: float
    acf: AcfTable


def pearson_residuals(params, grid):
    """(X - conditional mean) / conditional sd per interior site.

    Residuals are reported for every site whose full lag neighbourhood is
    observed; the summary holds their mean, variance (divisor n-1), and
    sample ACF on the |k|,|l| <= 2 window, so the interior must be at least
    3x3 sites, and the residuals must not all be equal (as on an all-zero
    grid), which leaves their ACF undefined.  It builds no table: the
    moments, the variance (lag-0 row sums over n - 1) and the ACF each run
    a block of rows at a time, so beside its output the call holds a few.
    """
    _validated(params)
    (n1, n2), (p1, p2) = (grid.n1, grid.n2), (params.order.p1, params.order.p2)
    if n1 - p1 < 3 or n2 - p2 < 3:
        raise ValidationError(
            f"Pearson residuals need an interior of at least 3x3 sites for"
            f" their (2, 2) residual ACF; a {n1}x{n2} grid at order"
            f" ({p1},{p2}) has {max(n1 - p1, 0)}x{max(n2 - p2, 0)}")
    x, pasts = lag_views(grid.values, params.order)
    res = np.empty(x.shape)
    for rows in _blocks(x.shape):
        mean, var = _mixture_moments(params, [past[rows] for past in pasts])
        if np.any(var <= 0):
            raise ValidationError("conditional variance must be positive")
        np.subtract(x[rows], mean, out=res[rows])
        res[rows] /= np.sqrt(var, out=var)
        del mean, var
    if res.min() == res.max():
        raise ValidationError(
            f"Pearson residuals are all equal ({res.flat[0]:.6g}) on this"
            f" {n1}x{n2} grid, so their sample ACF is undefined")
    mean, size, (squares,) = _row_sums(res, [(0, 0)])
    return PearsonResiduals(
        values=res,
        mean=float(mean),
        variance=float(squares.sum() / (size - 1)),
        acf=sample_acf(res, (2, 2)),
    )


def pit_histogram(params, grid, bins=10):
    """Non-randomized mean-PIT histogram heights (density scale).

    Per site the conditional PIT is piecewise linear between F(x-1) and
    F(x); heights are the site-averaged mass of each of ``bins`` (an
    integer >= 2) equal cells, scaled so a perfectly calibrated fit gives
    height 1 in every cell.  Deterministic.  The cell sums are ``einsum``
    dots: a threaded BLAS dot stalls waking its threads on a busy core.
    """
    _validated(params)
    bins = _whole(bins, "bins", 2)
    sites = SiteTuples(grid.values, params.order)
    x_max = sites.x_max
    _check_cells(sites.n_max, x_max, extra_columns=1)  # the zero column below
    # Thinning (F(-1) = 0, F) keeps its zero column, so F(x-1) sits just before
    # F(x) in the raveled table; block by block and lag by lag, memory stays a
    # few block vectors.
    table = thinning_convolution_table(params.alpha, np.concatenate(
        ([0.0], np.cumsum(params.innovation.pmf_table(x_max)))), sites.n_max)
    edges = np.linspace(0.0, 1.0, bins + 1)
    heights = np.zeros(bins)
    for rows, tuples in sites.blocks():
        _add_pit_block(params.phi, table, sites, rows, sites.counts[tuples], edges,
                       heights)
    return heights * (bins / sites.n_sites)


def _add_pit_block(phi, table, sites, rows, counts, edges, heights):
    """Add the cell masses of the block ``rows`` of ``sites``' tuples, of
    ``counts``, to ``heights``: a call's temporaries are a few block vectors,
    freed on return."""
    size = counts.size
    f_lo, f_hi, values = np.zeros(size), np.zeros(size), np.empty(size)
    for j, p in enumerate(phi):
        (flat,) = sites.flat(sites.x_max + 2, [j], rows=rows)
        f_lo += p * lag_site_values(table, flat, out=values)
        flat += 1
        f_hi += p * lag_site_values(table, flat, out=values)
    del flat, values
    np.clip(f_hi, 0.0, 1.0, out=f_hi)
    np.minimum(np.maximum(f_lo, 0.0, out=f_lo), f_hi, out=f_lo)
    # A saturated CDF tail can make F(x-1) == F(x) in floating point; give
    # such a site its unit mass as a point at F(x) instead of dropping it.
    collapsed = (f_hi - f_lo <= 0.0) & (f_hi > 0.0)
    f_lo[collapsed] = np.nextafter(f_hi[collapsed], -np.inf)
    # An F(x) that underflows to (about) 0 leaves no width to spread the
    # mass over: the site is a point at 0, in the first cell.
    weight = f_hi - f_lo
    at_zero = weight < 1e-300
    np.divide(counts, weight, out=weight, where=~at_zero)
    weight[at_zero] = 0.0

    # each tuple adds its count over its width times its overlap with
    # [F(x-1), F(x)] to a cell
    overlap, start = np.empty_like(f_hi), np.empty_like(f_lo)
    for b in range(heights.size):
        np.minimum(f_hi, edges[b + 1], out=overlap)
        overlap -= np.maximum(f_lo, edges[b], out=start)
        heights[b] += np.einsum("i,i->", np.maximum(overlap, 0, out=overlap), weight)
    heights[0] += counts[at_zero].sum()


def information_criteria(loglik_max, n_params, n1, n2, n_ell):
    """Re-scaled AIC and BIC.

    The conditional log-likelihood runs over n_ell interior sites; it is
    re-scaled to the full n1*n2 grid before the usual penalties: AIC =
    -2*scaled + 2k, BIC = -2*scaled + log(n1*n2)*k.
    """
    n_ell, k = _whole(n_ell, "n_ell", 1), _whole(n_params, "n_params", 0)
    n_sites = _whole(n1, "n1", 1) * _whole(n2, "n2", 1)
    scaled = (n_sites / n_ell) * float(loglik_max)
    aic = -2.0 * scaled + 2.0 * k
    bic = -2.0 * scaled + np.log(n_sites) * k
    return float(aic), float(bic)


@dataclass(frozen=True)
class DiagnosticsReport:
    """Residual summary, PIT heights, and information criteria for one fit."""

    residual_mean: float
    residual_variance: float
    residual_acf: AcfTable
    pit_bins: np.ndarray
    aic: float
    bic: float

    def __post_init__(self):
        pit = np.asarray(self.pit_bins, dtype=float).copy()
        if np.any(pit < 0):
            raise ValidationError("PIT bin heights must be >= 0")
        if abs(pit.mean() - 1.0) > 1e-10:
            raise ValidationError("PIT bin heights must average to 1")
        pit.setflags(write=False)
        object.__setattr__(self, "pit_bins", pit)


def build_diagnostics(params, grid, loglik_max=None, n_params=None, bins=10):
    """Assemble the full diagnostics report for a fitted model on a grid."""
    res = pearson_residuals(params, grid)
    pit = pit_histogram(params, grid, bins=bins)
    if loglik_max is not None and n_params is not None:
        aic, bic = information_criteria(loglik_max, n_params, grid.n1, grid.n2,
                                        res.values.size)
    else:
        aic, bic = float("nan"), float("nan")
    return DiagnosticsReport(
        residual_mean=res.mean,
        residual_variance=res.variance,
        residual_acf=res.acf,
        pit_bins=pit,
        aic=aic,
        bic=bic,
    )
