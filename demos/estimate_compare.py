"""Fit one simulated grid with all three estimators and compare.

Yule-Walker (moments), conditional least squares (closed form), and
conditional maximum likelihood (numerical) on the same data, with the
true values alongside.  CML additionally gives standard errors and
information criteria, which choose between the Poisson family and the NB
family that contains it as its face i_eps = 1.
"""

import numpy as np

from cinar import (
    CinarParams,
    ModelOrder,
    PoissonInnovation,
    SimConfig,
    cls_estimate,
    cml_estimate,
    simulate_cinar,
    yw_estimate,
)

order = ModelOrder(1, 1)
true = CinarParams(order, np.array([0.3, 0.4, 0.1]), PoissonInnovation(1.0))
grid = simulate_cinar(SimConfig(true, 100, 100, seed=42))

fits = [
    yw_estimate(grid, order),
    cls_estimate(grid, order),
    cml_estimate(grid, order),
]

names = ("theta_01", "theta_10", "theta_11", "mu_eps")
truth = dict(zip(names, (0.3, 0.4, 0.1, 1.0)))
print(f"{'':8s}" + "".join(f"{n:>10s}" for n in names))
print(f"{'true':8s}" + "".join(f"{truth[n]:10.3f}" for n in names))
for fit in fits:
    values = dict(zip(fit.names, fit.estimates))
    print(f"{fit.method:8s}" + "".join(f"{values[n]:10.3f}" for n in names))

cml = fits[-1]
se = dict(zip(cml.names, cml.std_errors))
print(f"{'CML se':8s}" + "".join(f"{se[n]:10.3f}" for n in names))
print(f"\nCML loglik {cml.loglik:.1f}   AIC {cml.aic:.1f}   BIC {cml.bic:.1f}")
print(f"converged: {cml.diagnostics.converged}"
      f" (grad norm {cml.diagnostics.grad_norm:.2e})")

# A simplified model: pin the diagonal coefficient to zero and compare BIC.
simplified = cml_estimate(grid, order, fix_zero=("theta_11",))
print(f"\nsimplified (theta_11 = 0): BIC {simplified.bic:.1f}"
      f" vs full {cml.bic:.1f}")

# The NB family, fitted to the same Poisson data: its i_eps = 1 face is the
# Poisson law, so its log-likelihood is at least the Poisson fit's, and AIC
# charges its extra parameter.
nb = cml_estimate(grid, order, family="nb")
print(f"\nNB fit: i_eps {nb.i_eps:.6g}, at_bounds {nb.diagnostics.at_bounds},"
      f" AIC {nb.aic:.1f} vs Poisson {cml.aic:.1f}")
