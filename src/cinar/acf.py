"""Spatial autocovariance and autocorrelation for count grids.

Provides the sample ACvF/ACF of an observed grid, the theoretical ACF of a
CINAR field (the inverse Fourier transform of its spectral density), and
the order-(1,1) closed form with geometric decay rates (lambda, eta) along
the axes.

All lag tables are point-symmetric, ``rho(k,l) == rho(-k,-l)`` exactly: the
canonical lex-positive half is computed once and mirrored.
"""

import csv
from dataclasses import dataclass

import numpy as np

from ._kernels import _MAX_CELLS
from .errors import NumericalError, ValidationError
from .model import _validated, _whole

__all__ = [
    "AcfTable",
    "sample_acvf",
    "sample_acf",
    "theoretical_acf",
    "acf_closed_form_11",
]


@dataclass(frozen=True)
class AcfTable:
    """Autocorrelations on the lag window {|k| <= K, |l| <= L}.

    ``values[k + K, l + L]`` stores rho(k, l); use ``value(k, l)`` for
    lag-indexed access.  Invariants: rho(0,0) = 1, exact point symmetry,
    and |rho| <= 1 + 1e-9.
    """

    window: tuple
    values: np.ndarray

    def __post_init__(self):
        window = _window(self.window)
        values = np.asarray(self.values, dtype=float).copy()
        if values.shape != (2 * window[0] + 1, 2 * window[1] + 1):
            raise ValidationError(
                f"values must have shape {(2 * window[0] + 1, 2 * window[1] + 1)}"
                f" for window {window}, got {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValidationError("autocorrelation values must be finite")
        if values[window[0], window[1]] != 1.0:
            raise ValidationError("rho(0,0) must equal 1")
        if not np.array_equal(values, values[::-1, ::-1]):
            raise ValidationError("table must satisfy rho(k,l) == rho(-k,-l) exactly")
        if np.max(np.abs(values)) > 1.0 + 1e-9:
            raise ValidationError("autocorrelations must lie in [-1, 1] (tol 1e-9)")
        values.setflags(write=False)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "values", values)

    def value(self, k, l):
        """rho(k, l); lags must lie inside the window."""
        K, L = self.window
        if abs(k) > K or abs(l) > L:
            raise ValidationError(
                f"lag ({k},{l}) outside the table window (K={K}, L={L})"
            )
        return float(self.values[k + K, l + L])

    def to_csv(self, path_or_buf):
        """Write the table with rows l descending and columns k ascending."""
        K, L = self.window
        own = (isinstance(path_or_buf, (str, bytes))
               or hasattr(path_or_buf, "__fspath__"))
        handle = open(path_or_buf, "w", newline="") if own else path_or_buf
        try:
            writer = csv.writer(handle)
            writer.writerow([r"l\k"] + [str(k) for k in range(-K, K + 1)])
            for l in range(L, -L - 1, -1):
                writer.writerow(
                    [str(l)] + [repr(self.value(k, l)) for k in range(-K, K + 1)]
                )
        finally:
            if own:
                handle.close()


def _window(window, low=0):
    """(K, L) of a lag window: two integers >= ``low``."""
    return _whole(window[0], "window[0]", low), _whole(window[1], "window[1]", low)


def _mirror_lex_negative(values, K, L):
    """Overwrite the lex-negative half with the mirror of the positive half."""
    flipped = values[::-1, ::-1]
    values[:K, :] = flipped[:K, :]
    values[K, :L] = flipped[K, :L]
    return values


# =============================================================================
# Sample quantities
# =============================================================================


def _centred(grid):
    """A CountGrid or any 2-D array-like (e.g. residual fields) as floats,
    less their mean: in place when the conversion to float made a copy (as
    of a count grid), else in a new array.  A grid holding a NaN or an
    infinity is refused, naming its first such cell: its mean is not
    finite."""
    v = grid.values if hasattr(grid, "values") else grid
    values = np.asarray(v, dtype=float)
    if values.ndim != 2:
        raise ValidationError(f"expected a 2-D grid, got shape {values.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = values.mean()
    if not np.isfinite(mean):
        cells = np.argwhere(~np.isfinite(values))
        raise ValidationError(
            f"the grid must be finite: cell {tuple(cells[0].tolist())} is"
            f" {values[tuple(cells[0])]}" if cells.size
            else f"the grid's mean overflows to {mean}")
    fresh = values is not v and values.base is None
    return np.subtract(values, mean, out=values if fresh else None)


def sample_acvf(grid, k, l):
    """Sample autocovariance of a grid at lag (k, l).

    Averages centred products over every site pair with both members
    in-grid, with divisor n1*n2.  Negative-lex lags are served through the
    identity gamma(k,l) = gamma(-k,-l), making the symmetry exact.
    """
    return _acvf(_centred(grid), k, l)


def _acvf(centred, k, l):
    """``sample_acvf`` of the grid whose centred values are ``centred``."""
    k, l = _whole(k, "lag k", -np.inf), _whole(l, "lag l", -np.inf)
    n1, n2 = centred.shape
    if abs(k) >= n1 or abs(l) >= n2:
        raise ValidationError(
            f"lag ({k},{l}) out of range for a {n1}x{n2} grid"
        )
    if k < 0 or (k == 0 and l < 0):
        k, l = -k, -l
    a = centred[k:, max(l, 0): n2 + min(l, 0)]
    b = centred[: n1 - k, max(-l, 0): n2 + min(-l, 0)]
    # row sums, then a pairwise sum over rows: no grid-sized temporary
    return float(np.einsum("ij,ij->i", a, b).sum() / (n1 * n2))


def sample_acf(grid, window):
    """Sample autocorrelation table over {|k| <= K, |l| <= L}."""
    K, L = _window(window)
    centred = _centred(grid)
    gamma0 = _acvf(centred, 0, 0)
    if gamma0 <= 0.0:
        raise ValidationError("degenerate grid: sample variance is zero")
    values = np.empty((2 * K + 1, 2 * L + 1))
    for k in range(0, K + 1):
        for l in range(-L, L + 1):
            if k == 0 and l < 0:
                continue
            values[k + K, l + L] = _acvf(centred, k, l) / gamma0
    values[K, L] = 1.0
    _mirror_lex_negative(values, K, L)
    return AcfTable((K, L), values)


# =============================================================================
# Theoretical ACF
# =============================================================================


def theoretical_acf(params, window):
    """Stationary ACF of a CINAR field on a lag window.

    On the lex-positive half-plane the ACF obeys rho(k,l) = sum_ij theta_ij
    rho(k-i, l-j), the recursion of a linear quarter-plane autoregression
    with coefficients theta, whose one bounded solution with rho(0,0) = 1
    is the normalised inverse Fourier transform of the spectral density
    1 / |1 - sum_ij theta_ij exp(-i (i w1 + j w2))|^2.  The transform is
    taken on a periodic grid wide enough that the aliased far field stays
    below about 1e-12, and the returned table's recursion residuals are
    verified to be <= 1e-8.  A grid above ``_MAX_CELLS`` cells (alpha very
    near 1) is refused before it is allocated.
    """
    _validated(params)
    K, L = _window(window)
    order, alpha = params.order, params.alpha
    p1, p2 = order.p1, order.p2

    # |rho| decays at least like alpha per max(p1, p2) lags, so an alias
    # `pad` lags away from the window weighs below ~1e-12
    pad = int(np.ceil(max(p1, p2) * np.log(1e-12) / np.log(alpha)))
    P, Q = K + p1, L + p2  # the window and every recursion neighbour
    shape = (max(P + pad, 2 * P + 1), max(Q + pad, 2 * Q + 1))
    cells = shape[0] * shape[1]
    if cells > _MAX_CELLS:
        raise ValidationError(
            f"alpha {alpha:.6g} is too close to 1 for the model ACF: its"
            f" transform would take {cells} cells, above {_MAX_CELLS}")

    coef = np.zeros((p1 + 1, p2 + 1))
    coef[0, 0] = 1.0
    coef[tuple(np.transpose(order.lags))] = -params.theta
    density = np.abs(np.fft.rfft2(coef, s=shape))
    density **= -2
    acvf = np.fft.irfft2(density, s=shape)
    big = acvf[np.ix_(np.arange(-P, P + 1), np.arange(-Q, Q + 1))] / acvf[0, 0]

    def shifted(i, j):
        """rho(k - i, l - j) over the window's lags (k, l)."""
        return big[p1 - i: p1 - i + 2 * K + 1, p2 - j: p2 - j + 2 * L + 1]

    # recursion residuals over the lex-positive lags of the window
    out = shifted(0, 0).copy()
    resid = out - sum(t * shifted(i, j) for (i, j), t in zip(order.lags, params.theta))
    resid[:K] = 0.0
    resid[K, :L + 1] = 0.0
    worst = float(np.max(np.abs(resid)))
    if worst > 1e-8:
        raise NumericalError(
            f"ACF recursion residual {worst:.3e} exceeds 1e-8 on the requested window"
        )

    out[K, L] = 1.0
    _mirror_lex_negative(out, K, L)
    return AcfTable((K, L), out)


# =============================================================================
# Order-(1,1) closed form
# =============================================================================


def acf_closed_form_11(params):
    """Geometric decay rates and table builder for an order-(1,1) field.

    Returns ``(lam, eta, build)`` where rho(k,0) = lam**k, rho(0,l) =
    eta**l, rho(-k,l) = lam**k * eta**l for k,l >= 0, and ``build(window)``
    assembles the full AcfTable (first quadrant filled by the three-term
    recursion).  Raises when the closed form is inapplicable (degenerate
    denominator or negative discriminant); theoretical_acf always works.
    """
    _validated(params)
    order = params.order
    if (order.p1, order.p2) != (1, 1):
        raise ValidationError("closed form requires order (1,1)")
    alpha = params.alpha
    phi01, phi10, phi11 = params.phi

    a = alpha * (phi10 + alpha * phi01 * phi11)
    b = 1.0 + alpha**2 * (phi10**2 - phi01**2 - phi11**2)
    if a <= 0.0:
        raise ValidationError(
            "closed form inapplicable (degenerate denominator); use theoretical_acf"
        )
    disc = b * b - 4.0 * a * a
    if disc < 0.0:
        raise ValidationError(
            "closed form inapplicable (negative discriminant); use theoretical_acf"
        )
    lam = (b - np.sqrt(disc)) / (2.0 * a)
    eta = alpha * (phi01 + phi11 * lam) / (1.0 - alpha * phi10 * lam)
    if not (0.0 < lam < 1.0 and 0.0 <= eta < 1.0):
        raise NumericalError(
            f"closed-form rates outside (0,1): lambda={lam:.6g}, eta={eta:.6g}"
        )

    def build(window):
        K, L = _window(window, 1)
        values = np.empty((2 * K + 1, 2 * L + 1))
        kk = np.arange(0, K + 1)
        ll = np.arange(0, L + 1)
        # axes, then fourth quadrant (k >= 1, l <= -1): rho(k,-l) = lam^k eta^l
        values[K + kk, L] = lam**kk
        values[K, L + ll] = eta**ll
        values[K + kk[1:, None], L - ll[None, 1:]] = (
            lam ** kk[1:, None] * eta ** ll[None, 1:]
        )
        # first quadrant by the three-term recursion
        c01, c10, c11 = alpha * phi01, alpha * phi10, alpha * phi11
        for k in range(1, K + 1):
            for l in range(1, L + 1):
                values[K + k, L + l] = (
                    c01 * values[K + k, L + l - 1]
                    + c10 * values[K + k - 1, L + l]
                    + c11 * values[K + k - 1, L + l - 1]
                )
        _mirror_lex_negative(values, K, L)
        return AcfTable((K, L), values)

    return float(lam), float(eta), build
