"""Difference Hessians and observed-information standard errors: the
oracles for the exact CML Hessian and the standard errors of a fit."""

import numpy as np

from cinar.errors import NumericalError
from cinar.estimate import _CmlLikelihood, _se_from_loglik

_CBRT_EPS = np.finfo(float).eps ** (1.0 / 3.0)


def score_difference_hessian(likelihood, vec):
    """Central differences of ``likelihood.value_score_hessian``'s score at
    ``vec``.

    Step cbrt(eps)*(1+|v_i|) per axis, 2p score evaluations; the result is
    symmetrized.
    """
    steps = _CBRT_EPS * (1.0 + np.abs(vec))
    hess = np.empty((vec.size, vec.size))
    for i, h in enumerate(steps):
        shift = np.zeros(vec.size)
        shift[i] = h
        _, up, _ = likelihood.value_score_hessian(vec + shift)
        _, down, _ = likelihood.value_score_hessian(vec - shift)
        if up is None or down is None:
            raise NumericalError(
                f"score undefined within {h:.3g} of coordinate {i}"
            )
        hess[i] = (up - down) / (2.0 * h)
    return 0.5 * (hess + hess.T)


def fd_hessian(fn, x0):
    """Central finite-difference Hessian, step cbrt(eps)*(1+|x_i|) per axis."""
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    h = _CBRT_EPS * (1.0 + np.abs(x0))
    hess = np.empty((n, n))
    f0 = fn(x0)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h[i]
        hess[i, i] = (fn(x0 + ei) - 2.0 * f0 + fn(x0 - ei)) / h[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h[j]
            hess[i, j] = hess[j, i] = (
                fn(x0 + ei + ej) - fn(x0 + ei - ej)
                - fn(x0 - ei + ej) + fn(x0 - ei - ej)
            ) / (4.0 * h[i] * h[j])
    return hess


def observed_information_se(grid, order, family, vec, loglik_fn=None):
    """Boundary-guarded standard errors at ``vec`` from the observed
    information.

    ``vec`` holds theta (lexicographic) and then the parameters of the
    innovation ``family`` (a family class) in ``param_names`` order.  The
    Hessian is taken exactly, from one likelihood pass, or, when
    ``loglik_fn`` (a map from that vector to a real) is given, by
    ``fd_hessian`` of it.
    """
    vec = np.asarray(vec, dtype=float)
    if loglik_fn is not None:
        hess = fd_hessian(loglik_fn, vec)
    else:
        _, _, hess = _CmlLikelihood(grid.values, order, family).value_score_hessian(vec)
    lower = np.concatenate([np.zeros(order.n_lags), family.lower_bounds])
    return _se_from_loglik(hess, vec, lower)
