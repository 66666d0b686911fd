"""BFGS on the exact score: the oracle for the trust-region CML optimizer.

The quasi-Newton search ``cml_estimate`` ran before it used the exact
Hessian: the same start and bijection, the same 1e300 wall, and a gradient
tolerance that grows with the number of sites, since the log-likelihood's
rounding noise does.
"""

import numpy as np
from scipy import optimize

from cinar.estimate import (_CmlLikelihood, _WALL, _chain_to_z,
                            _initial_point, _pack, _unpack)
from cinar.innovations import innovation_family

_GTOL_PER_SITE = 1e-7


def bfgs_fit(grid, order, family="poisson"):
    """(estimates, log-likelihood, iterations) of a BFGS CML fit."""
    family = innovation_family(family)
    lower = family.lower_bounds
    m = order.n_lags
    likelihood = _CmlLikelihood(grid.values, order, family)

    def objective(z):
        loglik, score, hess = likelihood.value_score_hessian(
            np.concatenate(_unpack(z, m, lower)))
        if score is None:
            return _WALL, np.zeros_like(z)
        return -loglik, -_chain_to_z(z, m, score, hess)[0]

    z0 = _pack(*_initial_point(grid, order, family, None), lower)
    res = optimize.minimize(
        objective, z0, method="BFGS", jac=True,
        options={"gtol": _GTOL_PER_SITE * likelihood.n_sites, "maxiter": 500},
    )
    return np.concatenate(_unpack(res.x, m, lower)), -float(res.fun), int(res.nit)
