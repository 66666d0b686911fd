"""Seeded simulation of CINAR and censored (Tobit) CINAR count grids.

The recursion is unilateral: each site combines one thinned past value,
selected by a multinomial decision among the lag set, with an innovation
draw.  Simulation runs on an extended ``(n1 + burn_in) x (n2 + burn_in)``
grid whose left/top margins are initialized with i.i.d. innovation draws;
the returned grid is the bottom-right ``n1 x n2`` block of "most recent"
counts.  Parameters are checked by ``validate_params``, as in every other
entry point.

Randomness comes from a counter-based Philox generator seeded by
``SimConfig.seed``.  The generator is consumed in a fixed order (innovation
field, decision field, then binomial thinnings along successive
anti-diagonals), so identical configs produce bit-identical grids.  The
decision field is drawn in blocks of ``_kernels._BLOCK`` sites, and each
block's decisions live only until its sites' selected pasts (and,
censored, their int8 signs) are indexed, so a simulation holds the grid,
one index vector and a few blocks; the simulators return the grid alone.
Each anti-diagonal is a strided slice of the raveled grid, drawn by ascending
row as in the fancy-indexing loop of ``tests/_sim_oracle.py``, whose
grids these equal bit for bit.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._kernels import _blocks
from .errors import ValidationError
from .model import CinarParams, CountGrid, SignPattern, _validated, _whole

__all__ = [
    "SimConfig",
    "simulate_cinar",
    "simulate_tobit_cinar",
]


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to reproduce one simulated grid.

    Parameters
    ----------
    params : CinarParams
    n1, n2 : int
        Output grid dimensions (rows, columns), both >= 1.
    burn_in : int
        Width of the discarded margin on the extended grid (default 100).
    seed : int
        64-bit unsigned seed; same config => bit-identical output.
    signs : SignPattern, optional
        Present only for the censored (Tobit) variant.

    Integral floats and numpy integers are stored as ints; bools and
    non-integral values are refused.
    """

    params: CinarParams
    n1: int
    n2: int
    burn_in: int = 100
    seed: int = 0
    signs: Optional[SignPattern] = None

    def __post_init__(self):
        for name, low in (("n1", 1), ("n2", 1), ("burn_in", 0), ("seed", 0)):
            object.__setattr__(self, name, _whole(getattr(self, name), name, low))
        if self.seed >= 2**64:
            raise ValidationError("seed must be a 64-bit unsigned integer")


def simulate_cinar(config):
    """Simulate a CINAR(p1, p2) count grid; returns a CountGrid."""
    if config.signs is not None:
        raise ValidationError(
            "sign pattern supplied; use simulate_tobit_cinar for the censored model"
        )
    return _simulate_kernel(config)


def simulate_tobit_cinar(config):
    """Simulate a censored (Tobit) CINAR(p1, p2) count grid.

    Each site computes Y = s(i,j) * (thinned selected past) + innovation
    and stores X = max(0, Y); returns a CountGrid.  With all signs +1 this
    coincides with simulate_cinar draw-for-draw (same seed, same grid).
    """
    if config.signs is None:
        raise ValidationError(
            "censored simulation needs a SignPattern in SimConfig.signs"
        )
    if config.signs.order != config.params.order:
        raise ValidationError(
            "sign pattern order does not match the model order"
        )
    return _simulate_kernel(config)


def _simulate_kernel(config):
    """Shared recursion: censored (Tobit) when ``config.signs`` is set."""
    params, signs = config.params, config.signs
    _validated(params)
    order = params.order
    p1, p2 = order.p1, order.p2
    n1, n2 = config.n1, config.n2
    big1, big2 = n1 + config.burn_in, n2 + config.burn_in

    alpha = params.alpha
    cum_phi = np.cumsum(params.phi)
    lags = np.asarray(order.lags, dtype=np.int64)

    gen = np.random.Generator(np.random.Philox(config.seed))

    # Fixed consumption order: innovation field, then decision uniforms,
    # then thinning draws diagonal by diagonal.  Margin sites keep their
    # innovation draw; interior sites add a thinned past to it.
    xf = np.asarray(params.innovation.sample(gen, size=(big1, big2)),
                    dtype=np.int64).reshape(-1)
    # The lag index of each site is the number of cumulative weights below
    # its uniform; the last, 1 up to rounding, is left out so the index
    # stays below len(lags).  The uniforms are drawn a block at a time
    # (Philox gives the same stream in blocks as in one call), and each
    # block's decisions are written straight into the selected past's
    # index: site (s, d - s) of diagonal d is xf[s * step + d], and
    # xf[src] is its selected past.
    step = big2 - 1
    offsets = lags[:, 0] * big2 + lags[:, 1]
    src = np.arange(xf.size)
    if signs is not None:
        sign_of, sgn = signs.signs.astype(np.int8), np.empty(xf.size, dtype=np.int8)
    for block in _blocks(src.shape):
        uniforms = gen.random(src[block].size)
        dec = np.zeros(uniforms.size, dtype=np.intp)
        for c in cum_phi[:-1]:
            dec += uniforms > c
        del uniforms
        src[block] -= offsets[dec]
        if signs is not None:
            sgn[block] = sign_of[dec]
        del dec

    # interior sites (s >= p1, t >= p2) by ascending anti-diagonal s + t = d;
    # every referenced past lies on a strictly smaller diagonal
    for d in range(p1 + p2, big1 + big2 - 1):
        s_lo = max(p1, d - step)
        s_hi = min(big1 - 1, d - p2)
        if s_lo > s_hi:
            continue
        sl = slice(s_lo * step + d, s_hi * step + d + 1, step)
        thin = gen.binomial(xf[src[sl]], alpha)
        if signs is not None:
            xf[sl] = np.maximum(sgn[sl] * thin + xf[sl], 0)
        else:
            xf[sl] += thin
    del src

    return CountGrid(xf.reshape(big1, big2)[big1 - n1:, big2 - n2:])
