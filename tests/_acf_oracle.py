"""Independent oracles for autocorrelation tables.

``theoretical_acf`` and the order-(1,1) closed form are checked against a
literal loop over the recursion equations, and against the recursion
iterated to a fixed point on a padded window.
"""

import numpy as np

from cinar import AcfTable, NumericalError, ValidationError, validate_params
from cinar.acf import _mirror_lex_negative


def acf_recursion_residual(table, params):
    """Max absolute recursion residual of a table, over equations whose
    lagged neighbours all lie inside the table window."""
    K, L = table.window
    order = params.order
    alpha = params.alpha
    phi = params.phi
    lags = order.lags
    worst = 0.0
    for k in range(-K + order.p1, K + 1):
        for l in range(-L + order.p2, L + 1):
            if not (k >= 1 or (k == 0 and l >= 1)):
                continue
            if l - order.p2 < -L:
                continue
            pred = alpha * sum(
                p * table.value(k - i, l - j) for (i, j), p in zip(lags, phi)
            )
            worst = max(worst, abs(table.value(k, l) - pred))
    return worst


def _shift_sum(table, lags, weights):
    """sum_j weights[j] * table shifted by lags[j] (zero-padded edges)."""
    out = np.zeros_like(table)
    n1, n2 = table.shape
    for (i, j), w in zip(lags, weights):
        # out[k, l] += w * table[k - i, l - j]
        out[i:, j:] += w * table[: n1 - i, : n2 - j]
    return out


def fixed_point_acf(params, window, tol=1e-12, max_sweeps=None):
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
