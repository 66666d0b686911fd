"""Conditional laws and model diagnostics.

One-site conditional PMFs (plain, censored, multilateral), grid-level
Pearson residuals, non-randomized mean-PIT histograms, and the re-scaled
information criteria.  The conditional law of a site given its past is the
phi-mixture over lags of (binomially thinned past) + innovation; every
routine here is a different reduction of that mixture.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._kernels import (binomial_rows, flat_site_index, lag_site_values,
                       thinning_convolution_table)
from .acf import AcfTable, sample_acf
from .errors import ValidationError
from .model import lag_views, validate_params

__all__ = [
    "ConditionalPmf",
    "PearsonResiduals",
    "DiagnosticsReport",
    "conditional_pmf",
    "conditional_moments",
    "tobit_conditional_pmf",
    "multilateral_conditional_pmf",
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
    site: Optional[tuple] = None

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
    def from_probs(cls, probs, site=None):
        probs = np.asarray(probs, dtype=float)
        x = np.arange(probs.size, dtype=float)
        mean = float(probs @ x)
        var = float(probs @ x**2) - mean**2
        return cls(probs.size - 1, probs, mean, var, site)

    def cdf(self):
        """Cumulative distribution over 0..support_max."""
        return np.cumsum(self.probs)


def _check_past(past, m):
    past = np.asarray(past)
    if past.shape != (m,):
        raise ValidationError(f"past must have one value per lag ({m}), got {past.shape}")
    if np.any(past < 0) or not np.all(past == np.floor(past)):
        raise ValidationError("past values must be nonnegative integers")
    return past.astype(np.int64)


def _validated(params):
    verdict = validate_params(params)
    if not verdict:
        raise ValidationError("invalid parameters: " + "; ".join(verdict.violations))
    return params


def _mixture_conditional(alpha, phi, innovation, past, site):
    eps_max = innovation.quantile(1.0 - _TAIL)
    n_max = int(past.max())
    x_max = n_max + eps_max
    table = thinning_convolution_table(alpha, innovation, n_max, x_max)
    probs = phi @ table[past, :]
    return ConditionalPmf.from_probs(probs, site)


def conditional_pmf(params, past, site=None):
    """Conditional PMF of a site given its lagged past values (over S).

    The mixture sum_ij phi_ij * (Binomial(X_past, alpha) + eps) law; the
    support is truncated where the remaining mass is below ~1e-13.
    """
    _validated(params)
    past = _check_past(past, params.order.n_lags)
    return _mixture_conditional(params.alpha, params.phi, params.innovation,
                                past, site)


def conditional_moments(params, past):
    """Closed-form conditional mean and variance given the lagged past."""
    _validated(params)
    past = _check_past(past, params.order.n_lags).astype(float)
    alpha, phi = params.alpha, params.phi
    mu_eps, sigma2_eps = params.innovation.moments()
    w1 = float(phi @ past)
    w2 = float(phi @ past**2)
    mean = mu_eps + alpha * w1
    variance = (
        sigma2_eps + alpha * (1.0 - alpha) * w1 + alpha**2 * (w2 - w1**2)
    )
    return mean, variance


def tobit_conditional_pmf(params, signs, past, site=None):
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
    eps_max = innovation.quantile(1.0 - _TAIL)
    ep = innovation.pmf_table(eps_max)

    lower = int(np.minimum(signs.signs, 0) @ past)
    upper = int(np.max(np.where(signs.signs > 0, past, 0))) + eps_max
    acc = np.zeros(upper - lower + 1)
    rows = binomial_rows(past.max(), alpha)
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
    return ConditionalPmf.from_probs(probs, site)


def multilateral_conditional_pmf(alpha, phi, innovation, past, site=None):
    """Conditional PMF for an arbitrary (possibly non-unilateral) lag set.

    Only the selection weights and the conditioning counts enter the
    mixture, so the lag set itself is implicit: ``phi`` and ``past`` are
    aligned vectors over S*.
    """
    phi = np.asarray(phi, dtype=float)
    if not 0.0 < float(alpha) < 1.0:
        raise ValidationError(f"alpha must be in (0,1), got {alpha}")
    if phi.ndim != 1 or np.any(phi < 0) or abs(float(phi.sum()) - 1.0) > 1e-12:
        raise ValidationError("phi must be nonnegative and sum to 1")
    past = _check_past(past, phi.size)
    return _mixture_conditional(float(alpha), phi, innovation, past, site)


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
    sample ACF on the |k|,|l| <= 2 window.
    """
    _validated(params)
    x, pasts = lag_views(grid.values, params.order)
    alpha = params.alpha
    mu_eps, sigma2_eps = params.innovation.moments()
    w1 = sum(p * past for p, past in zip(params.phi, pasts))
    w2 = sum(p * past**2 for p, past in zip(params.phi, pasts))
    mean = mu_eps + alpha * w1
    var = sigma2_eps + alpha * (1.0 - alpha) * w1 + alpha**2 * (w2 - w1**2)
    if np.any(var <= 0):
        raise ValidationError("conditional variance must be positive")
    res = (x - mean) / np.sqrt(var)
    return PearsonResiduals(
        values=res,
        mean=float(res.mean()),
        variance=float(res.var(ddof=1)),
        acf=sample_acf(res, (2, 2)),
    )


def pit_histogram(params, grid, bins=10):
    """Non-randomized mean-PIT histogram heights (density scale).

    Per site the conditional PIT is piecewise linear between F(x-1) and
    F(x); heights are the site-averaged mass of each of ``bins`` equal
    cells, scaled so a perfectly calibrated fit gives height 1 in every
    cell.  Deterministic.
    """
    _validated(params)
    bins = int(bins)
    if bins < 2:
        raise ValidationError(f"bins must be >= 2, got {bins}")
    x, pasts = lag_views(grid.values, params.order)
    x_max = int(x.max())
    cdf = thinning_convolution_table(
        params.alpha, params.innovation, max(int(p.max()) for p in pasts),
        x_max, cumulative=True,
    )
    # A zero column in front (F(-1) = 0) puts F(x-1) just before F(x) in
    # the raveled table; lag by lag, memory stays a few site vectors.
    table = np.pad(cdf, ((0, 0), (1, 0)))
    f_lo, f_hi, values = np.zeros(x.size), np.zeros(x.size), np.empty(x.size)
    for p, past in zip(params.phi, pasts):
        (flat,) = flat_site_index(x, [past], x_max + 1)
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
    np.divide(1.0, weight, out=weight, where=~at_zero)
    weight[at_zero] = 0.0

    # each site adds weight times its overlap with [F(x-1), F(x)] to a cell
    edges = np.linspace(0.0, 1.0, bins + 1)
    heights = np.empty(bins)
    overlap, start = np.empty_like(f_hi), np.empty_like(f_lo)
    for b in range(bins):
        np.minimum(f_hi, edges[b + 1], out=overlap)
        overlap -= np.maximum(f_lo, edges[b], out=start)
        heights[b] = np.maximum(overlap, 0.0, out=overlap) @ weight
    heights[0] += np.count_nonzero(at_zero)
    return heights * (bins / f_hi.size)


def information_criteria(loglik_max, n_params, n1, n2, n_ell):
    """Re-scaled AIC and BIC.

    The conditional log-likelihood runs over n_ell interior sites; it is
    re-scaled to the full n1*n2 grid before the usual penalties: AIC =
    -2*scaled + 2k, BIC = -2*scaled + log(n1*n2)*k.
    """
    n_ell = int(n_ell)
    if n_ell <= 0:
        raise ValidationError(f"n_ell must be positive, got {n_ell}")
    n_sites = int(n1) * int(n2)
    scaled = (n_sites / n_ell) * float(loglik_max)
    k = int(n_params)
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
        order = params.order
        n_ell = (grid.n1 - order.p1) * (grid.n2 - order.p2)
        aic, bic = information_criteria(
            loglik_max, n_params, grid.n1, grid.n2, n_ell
        )
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
