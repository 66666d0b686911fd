"""BFGS on the exact score: the oracle for the trust-region CML optimizer.

The quasi-Newton search ``cml_estimate`` ran before it used the exact
Hessian: the same start and bijection, the same 1e300 wall, and a gradient
tolerance that grows with the number of sites, since the log-likelihood's
rounding noise does.  The bijection, the start's pull into the interior
and the chain rule into the bijection's coordinates live here, as they
were written for the search that used them.
"""

import numpy as np
from scipy import optimize
from scipy.special import expit, logit, softmax

from cinar.estimate import _CmlLikelihood, _initial_point
from cinar.innovations import innovation_family

_GTOL_PER_SITE = 1e-7
# objective outside the model's domain (infinite: a ratio to it cannot overflow)
_WALL = np.inf
# the open lower bounds of the innovation parameters that the bijection
# maps to logs: mu_eps > 0 and, for the NB family, i_eps > 1
_OPEN_LOWER = (0.0, 1.0)


def _pack(theta, extra, lower):
    """Map interior parameters to the unconstrained optimizer space.

    ``extra`` holds the innovation parameters and ``lower`` their open
    lower bounds; each maps to the log of its distance from its bound.
    """
    alpha = float(theta.sum())
    phi = theta / alpha
    return np.concatenate([
        [logit(alpha)],
        np.log(phi[:-1]) - np.log(phi[-1]),
        np.log(np.asarray(extra, dtype=float) - lower),
    ])


def _unpack(z, m, lower):
    """Inverse of _pack: logistic alpha, softmax phi, bound + exp innovation."""
    alpha = float(expit(z[0]))
    logits = np.append(z[1:m], 0.0)
    theta = alpha * softmax(logits)
    return theta, lower + np.exp(np.clip(z[m:], -700.0, 700.0))


def _chain_to_z(z, m, score, hess):
    """The natural score g and Hessian H in the coordinates z of ``_pack``:
    J^T g and J^T H J + sum_k g_k d2x_k/dz dz^T.  With theta = alpha s,
    alpha' = alpha (1 - alpha), ds_k/dz_i = s_k (delta_ki - s_i) and u_i =
    sum_k g_k ds_k/dz_i, the last term is alpha' (1 - 2 alpha) s.g in (0, 0),
    alpha' u in (0, i), alpha (diag(u) - s u^T - u s^T) in (i, j), and
    g e^z for each innovation parameter lower + exp(z)."""
    n = z.size
    alpha = float(expit(z[0]))
    s = softmax(np.append(z[1:m], 0.0))
    ext = np.exp(np.clip(z[m:], -700.0, 700.0))
    slope = alpha * (1.0 - alpha)
    mean = s @ score[:m]
    u = s * (score[:m] - mean)
    jac = np.zeros((n, n))
    jac[:m, 0] = slope * s
    jac[:m, 1:m] = alpha * (np.diag(s) - np.outer(s, s))[:, :-1]
    jac[m:, m:] = np.diag(ext)
    curv = np.zeros((n, n))
    curv[0, 0] = slope * (1.0 - 2.0 * alpha) * mean
    curv[0, 1:m] = curv[1:m, 0] = slope * u[:-1]
    curv[1:m, 1:m] = alpha * (np.diag(u) - np.outer(s, u)
                              - np.outer(u, s))[:-1, :-1]
    curv[m:, m:] = np.diag(score[m:] * ext)
    return jac.T @ score, jac.T @ hess @ jac + curv


def _project_interior(theta, extra, lower):
    """Pull a possibly inadmissible start strictly inside the constraints.

    Innovation parameters move at least 1e-4 above a zero bound and 1%
    above a positive one.
    """
    theta = np.clip(np.nan_to_num(np.asarray(theta, dtype=float), nan=0.0),
                    1e-4, None)
    total = theta.sum()
    if total >= 1.0 - 1e-3:
        theta *= (1.0 - 1e-3) / total
    floor = np.maximum(1.01 * np.asarray(lower), 1e-4)
    extra = np.asarray(extra, dtype=float)
    return theta, np.where(np.isfinite(extra) & (extra >= floor), extra, floor)


def bfgs_fit(grid, order, family="poisson"):
    """(estimates, log-likelihood, iterations) of a BFGS CML fit."""
    family = innovation_family(family)
    lower = _OPEN_LOWER[:len(family.param_names)]
    m = order.n_lags
    likelihood = _CmlLikelihood(grid.values, order, family)

    def objective(z):
        loglik, score, hess = likelihood.value_score_hessian(
            np.concatenate(_unpack(z, m, lower)))
        if score is None:
            return _WALL, np.zeros_like(z)
        return -loglik, -_chain_to_z(z, m, score, hess)[0]

    start = _project_interior(*_initial_point(grid, order, family, None), lower)
    z0 = _pack(*start, lower)
    res = optimize.minimize(
        objective, z0, method="BFGS", jac=True,
        options={"gtol": _GTOL_PER_SITE * likelihood.n_sites, "maxiter": 500},
    )
    return np.concatenate(_unpack(res.x, m, lower)), -float(res.fun), int(res.nit)
