"""Reference computations timed next to each benchmark operation.

The benchmark shares its machine with other work, and how fast one fixed
computation runs there drifts by up to a factor of two over minutes: on a
2-core shared host the same study-50 operation took a median 5.4 s in one
run and 2.9 s in the next.  A fixed computation that uses the machine the
way a workload does slows down with it, so the ratio of an operation's wall
time to a probe timed just before and after it follows the code under test
and hardly the machine.  The probes use numpy and scipy only, never cinar, so
no change to cinar moves them.

  interp  six short BFGS fits whose objective builds binomial and Poisson
          PMFs with scipy.stats, a 16x26 matrix product and a 2,500-site
          gather: interpreter and per-call overhead, like the 50x50 fits.
  bulk    six rounds of gathering 2^20 random elements of a 16 MiB array,
          then their cumulative sum and sort: memory traffic over large
          arrays, like the 300x300 gather and the 1000x1000 simulation.
"""

import numpy as np
from scipy import optimize, stats
from scipy.linalg import toeplitz

SEED = 20260101
ROUNDS = 6  # about 0.1 s (interp) and 0.2 s (bulk): 2-8% of an operation


class InterpProbe:
    def __init__(self):
        rng = np.random.default_rng(SEED)
        self.lagged = rng.integers(0, 16, size=(3, 2500))
        self.x = rng.integers(0, 26, size=2500)
        self.counts = np.arange(16)
        self.outcomes = np.arange(26)

    def _objective(self, z):
        alpha = 1.0 / (1.0 + np.exp(-z[0]))
        thinning = stats.binom.pmf(self.counts[None, :], self.counts[:, None],
                                   alpha)
        innovation = stats.poisson.pmf(self.outcomes, np.exp(z[1]))
        first_column = np.zeros(16)
        first_column[0] = innovation[0]
        table = thinning @ toeplitz(first_column, innovation)
        values = sum(table[lags, self.x] for lags in self.lagged) / 3.0
        return -np.sum(np.log(values))

    def __call__(self):
        for k in range(ROUNDS):
            optimize.minimize(self._objective, np.array([0.1 * k, 0.2]),
                              method="BFGS", options={"maxiter": 8})


class BulkProbe:
    def __init__(self):
        rng = np.random.default_rng(SEED)
        self.source = rng.random(1 << 21)
        self.index = rng.integers(0, 1 << 21, size=1 << 20)

    def __call__(self):
        for _ in range(ROUNDS):
            values = self.source[self.index]
            np.cumsum(values, out=values)
            values.sort()


PROBES = {"interp": InterpProbe, "bulk": BulkProbe}
