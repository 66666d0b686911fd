"""Per-diagonal loop oracle for the seeded wavefront simulator.

``simulate_oracle`` is the simulator as it stood before the strided
anti-diagonal kernel: it builds each diagonal's row and column indices with
``arange`` and reads the lag decisions, signs and past counts by 2-D fancy
indexing.  It consumes the generator in the same order, so its grids must
be bit-identical to ``simulate_cinar`` and ``simulate_tobit_cinar``.
"""

import numpy as np

from cinar.model import CountGrid, _validated


def simulate_oracle(config, return_decisions=False):
    """Simulate ``config`` (Tobit when it carries a sign pattern)."""
    signs = config.signs
    censor = signs is not None
    params = config.params
    _validated(params)
    order = params.order
    p1, p2 = order.p1, order.p2
    n1, n2 = int(config.n1), int(config.n2)
    big1, big2 = n1 + int(config.burn_in), n2 + int(config.burn_in)

    alpha = params.alpha
    cum_phi = np.cumsum(params.phi)
    lags = np.asarray(order.lags, dtype=np.int64)
    m = len(lags)
    sgn = np.ones(m, dtype=np.int64) if signs is None else signs.signs

    gen = np.random.Generator(np.random.Philox(int(config.seed)))

    # Fixed consumption order: innovation field, then decision uniforms,
    # then thinning draws diagonal by diagonal.
    eps = np.asarray(params.innovation.sample(gen, size=(big1, big2)),
                     dtype=np.int64)
    dec = np.searchsorted(cum_phi, gen.random((big1, big2)), side="left")
    dec = np.minimum(dec, m - 1).astype(np.int64)

    i_sel = lags[dec, 0]
    j_sel = lags[dec, 1]
    s_sel = sgn[dec]

    x = np.zeros((big1, big2), dtype=np.int64)
    # margin band: sites whose full lag neighbourhood would fall off the grid
    x[:p1, :] = eps[:p1, :]
    x[:, :p2] = eps[:, :p2]

    # interior sites (s >= p1, t >= p2) by ascending anti-diagonal s + t = d;
    # every referenced past lies on a strictly smaller diagonal
    for d in range(p1 + p2, big1 + big2 - 1):
        s_lo = max(p1, d - (big2 - 1))
        s_hi = min(big1 - 1, d - p2)
        if s_lo > s_hi:
            continue
        ss = np.arange(s_lo, s_hi + 1)
        tt = d - ss
        past = x[ss - i_sel[ss, tt], tt - j_sel[ss, tt]]
        thin = gen.binomial(past, alpha)
        y = s_sel[ss, tt] * thin + eps[ss, tt]
        x[ss, tt] = np.maximum(y, 0) if censor else y

    grid = CountGrid(x[big1 - n1:, big2 - n2:])
    if return_decisions:
        return grid, dec[big1 - n1:, big2 - n2:].copy()
    return grid
