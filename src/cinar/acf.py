"""Spatial autocovariance and autocorrelation for count grids.

Provides the sample ACvF/ACF of an observed grid, the theoretical ACF of a
CINAR field (obtained by iterating its recursion system to a fixed point),
and the order-(1,1) closed form with geometric decay rates (lambda, eta)
along the axes.

All lag tables are point-symmetric, ``rho(k,l) == rho(-k,-l)`` exactly: the
canonical lex-positive half is computed once and mirrored.
"""

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .model import validate_params

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
        window = (int(self.window[0]), int(self.window[1]))
        if window[0] < 0 or window[1] < 0:
            raise ValidationError(f"window must be non-negative, got {window}")
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

    def to_csv_string(self):
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def _mirror_lex_negative(values, K, L):
    """Overwrite the lex-negative half with the mirror of the positive half."""
    flipped = values[::-1, ::-1]
    values[:K, :] = flipped[:K, :]
    values[K, :L] = flipped[K, :L]
    return values


# =============================================================================
# Sample quantities
# =============================================================================


def _grid_values(grid):
    """Accept a CountGrid or any 2-D array-like (e.g. residual fields)."""
    v = grid.values if hasattr(grid, "values") else grid
    v = np.asarray(v, dtype=float)
    if v.ndim != 2:
        raise ValidationError(f"expected a 2-D grid, got shape {v.shape}")
    return v


def sample_acvf(grid, k, l):
    """Sample autocovariance of a grid at lag (k, l).

    Averages centred products over every site pair with both members
    in-grid, with divisor n1*n2.  Negative-lex lags are served through the
    identity gamma(k,l) = gamma(-k,-l), making the symmetry exact.
    """
    v = _grid_values(grid)
    return _acvf(v - v.mean(), k, l)


def _acvf(centred, k, l):
    """``sample_acvf`` of the grid whose centred values are ``centred``."""
    k, l = int(k), int(l)
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
    K, L = int(window[0]), int(window[1])
    if K < 0 or L < 0:
        raise ValidationError(f"window must be non-negative, got {(K, L)}")
    v = _grid_values(grid)
    centred = v - v.mean()
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


def _shift_sum(table, lags, weights):
    """sum_j weights[j] * table shifted by lags[j] (zero-padded edges)."""
    out = np.zeros_like(table)
    n1, n2 = table.shape
    for (i, j), w in zip(lags, weights):
        # out[k, l] += w * table[k - i, l - j]
        out[i:, j:] += w * table[: n1 - i, : n2 - j]
    return out


def theoretical_acf(params, window, tol=1e-12, max_sweeps=None):
    """Stationary ACF of a CINAR field on a lag window.

    Iterates the recursion rho(k,l) = alpha * sum_ij phi_ij rho(k-i, l-j)
    (valid on the lex-positive half-plane) to a fixed point on a window
    padded far enough that the zeroed far field cannot disturb the
    requested lags; each sweep contracts by alpha.  The returned table's
    recursion residuals are verified to be <= 1e-8.
    """
    verdict = validate_params(params)
    if not verdict:
        raise ValidationError("invalid parameters: " + "; ".join(verdict.violations))
    K, L = int(window[0]), int(window[1])
    if K < 0 or L < 0:
        raise ValidationError(f"window must be non-negative, got {(K, L)}")
    order = params.order
    alpha = params.alpha
    theta = params.theta
    lags = order.lags

    # far-field truncation: |rho| decays at least like alpha per max(p1,p2)
    # steps, so choose the pad to push the truncated mass below ~1e-10
    pmax = max(order.p1, order.p2)
    pad = int(np.ceil(pmax * np.log(1e-10) / np.log(alpha))) if alpha > 1e-10 else 1
    pad = min(max(pad, 10, 3 * (order.p1 + order.p2)), 2000)
    P, Q = K + pad, L + pad

    if max_sweeps is None:
        max_sweeps = int(np.ceil(np.log(tol) / np.log(max(alpha, 1e-10)))) + 50

    big = np.zeros((2 * P + 1, 2 * Q + 1))
    big[P, Q] = 1.0
    upper = np.zeros_like(big, dtype=bool)
    upper[P + 1:, :] = True
    upper[P, Q + 1:] = True

    for _ in range(max_sweeps):
        new = alpha * _shift_sum(big, lags, params.phi)
        delta = np.max(np.abs(np.where(upper, new - big, 0.0)))
        big[upper] = new[upper]
        _mirror_lex_negative(big, P, Q)
        if delta < tol:
            break
    else:
        raise NumericalError(
            f"ACF fixed-point iteration did not converge in {max_sweeps} sweeps"
            f" (last sweep change {delta:.3e})"
        )

    resid = _max_residual(big, P, Q, K, L, alpha, params.phi, lags)
    if resid > 1e-8:
        raise NumericalError(
            f"ACF recursion residual {resid:.3e} exceeds 1e-8 on the requested window"
        )

    out = big[P - K: P + K + 1, Q - L: Q + L + 1].copy()
    out[K, L] = 1.0
    _mirror_lex_negative(out, K, L)
    return AcfTable((K, L), out)


def _max_residual(big, P, Q, K, L, alpha, phi, lags):
    """Max recursion residual over lex-positive lags of the K,L window."""
    pred = alpha * _shift_sum(big, lags, phi)
    block = slice(P - K, P + K + 1), slice(Q - L, Q + L + 1)
    upper = np.zeros_like(big, dtype=bool)
    upper[P + 1:, :] = True
    upper[P, Q + 1:] = True
    diff = np.where(upper, big - pred, 0.0)
    return float(np.max(np.abs(diff[block])))


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
    verdict = validate_params(params)
    if not verdict:
        raise ValidationError("invalid parameters: " + "; ".join(verdict.violations))
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
        K, L = int(window[0]), int(window[1])
        if K < 1 or L < 1:
            raise ValidationError(f"window must be positive, got {(K, L)}")
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
