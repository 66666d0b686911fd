"""Score-difference Hessian: the oracle for the exact CML Hessian."""

import numpy as np

from cinar.errors import NumericalError

_CBRT_EPS = np.finfo(float).eps ** (1.0 / 3.0)


def score_difference_hessian(likelihood, vec):
    """Central differences of ``likelihood.natural``'s score at ``vec``.

    Step cbrt(eps)*(1+|v_i|) per axis, 2p score evaluations; the result is
    symmetrized.
    """
    steps = _CBRT_EPS * (1.0 + np.abs(vec))
    hess = np.empty((vec.size, vec.size))
    for i, h in enumerate(steps):
        shift = np.zeros(vec.size)
        shift[i] = h
        _, up = likelihood.natural(vec + shift)
        _, down = likelihood.natural(vec - shift)
        if up is None or down is None:
            raise NumericalError(
                f"score undefined within {h:.3g} of coordinate {i}"
            )
        hess[i] = (up - down) / (2.0 * h)
    return 0.5 * (hess + hess.T)
