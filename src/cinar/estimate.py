"""Moment, least-squares, and likelihood estimation.

Three estimators for the dependence coefficients and innovation
parameters: Yule--Walker (sample-ACF linear system), conditional least
squares (closed-form normal equations), and conditional maximum
likelihood (quasi-Newton search on the exact score through a smooth
bijection), plus observed-information standard errors.
"""

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import optimize
from scipy.special import expit, logit, softmax

from ._kernels import (flat_site_index, lag_site_values,
                       thinning_convolution_table)
from .diagnose import information_criteria
from .acf import sample_acf, sample_acvf
from .errors import CinarError, NumericalError, ValidationError
from .innovations import innovation_family
from .model import CinarParams, lag_views, lagged_stack, validate_params

__all__ = [
    "FitDiagnostics",
    "FitResult",
    "yw_estimate",
    "cls_estimate",
    "cml_loglik",
    "cml_estimate",
    "fd_hessian",
    "observed_fisher_se",
]

_CBRT_EPS = np.finfo(float).eps ** (1.0 / 3.0)
# objective value the optimizer sees outside the model's domain
_WALL = 1e300
_GTOL_PER_SITE = 1e-7


@dataclass(frozen=True)
class FitDiagnostics:
    """Optimizer bookkeeping; trivial for the closed-form estimators.

    ``n_fev`` counts log-likelihood evaluations over every start and the
    standard errors, ``n_grad`` those that also computed the score;
    ``message`` is the optimizer's stop reason for the kept start, and
    ``se_error`` says why CML standard errors are missing.
    """

    n_iter: int
    converged: bool
    grad_norm: Optional[float] = None
    n_fev: int = 0
    n_grad: int = 0
    message: Optional[str] = None
    se_error: Optional[str] = None


@dataclass(frozen=True)
class FitResult:
    """Estimates in lexicographic theta order followed by innovation parameters.

    ``estimates`` holds (theta_ij over S, mu_eps[, i_eps]); ``names``
    labels each coordinate.  Standard errors, log-likelihood, and the
    information criteria are populated by CML only.  ``admissible`` says
    whether the point satisfies the model constraints; the closed-form
    estimators never clamp, so it can be False.
    """

    method: str
    names: tuple
    estimates: np.ndarray
    admissible: bool
    diagnostics: FitDiagnostics
    std_errors: Optional[np.ndarray] = None
    loglik: Optional[float] = None
    aic: Optional[float] = None
    bic: Optional[float] = None

    def __post_init__(self):
        if self.method not in ("YW", "CLS", "CML"):
            raise ValidationError(f"unknown method tag {self.method!r}")
        est = np.asarray(self.estimates, dtype=float).copy()
        if est.shape != (len(self.names),):
            raise ValidationError("estimates and names must have equal length")
        est.setflags(write=False)
        object.__setattr__(self, "estimates", est)
        if self.method != "CML":
            if (self.std_errors is not None or self.loglik is not None
                    or self.aic is not None or self.bic is not None):
                raise ValidationError(
                    "std_errors/loglik/aic/bic are populated by CML only"
                )
        if self.std_errors is not None:
            se = np.asarray(self.std_errors, dtype=float).copy()
            if se.shape != est.shape:
                raise ValidationError("std_errors must align with estimates")
            se.setflags(write=False)
            object.__setattr__(self, "std_errors", se)

    @property
    def n_theta(self):
        return sum(1 for n in self.names if n.startswith("theta"))

    @property
    def theta(self):
        return self.estimates[: self.n_theta]

    @property
    def alpha(self):
        return float(self.theta.sum())

    @property
    def mu_eps(self):
        return float(self.estimates[self.n_theta])

    @property
    def i_eps(self):
        """Innovation dispersion ratio, or None when not estimated."""
        if len(self.names) > self.n_theta + 1:
            return float(self.estimates[self.n_theta + 1])
        return None


def _moments_admissible(theta, mu_eps, sigma2_eps=None):
    """Would a parameter point with these moments pass validation?"""
    ok = bool(np.all(theta >= 0.0)) and 0.0 < float(theta.sum()) < 1.0
    ok = ok and np.all(np.isfinite(theta)) and np.isfinite(mu_eps) and mu_eps > 0.0
    if sigma2_eps is not None:
        ok = ok and np.isfinite(sigma2_eps) and sigma2_eps > 0.0
    return ok


def _solve_checked(mat, rhs, message):
    if not np.all(np.isfinite(mat)) or np.linalg.cond(mat) > 1e12:
        raise NumericalError(message)
    return np.linalg.solve(mat, rhs)


# =============================================================================
# Yule--Walker
# =============================================================================


def yw_estimate(grid, order):
    """Moment estimator from the sample-ACF linear system over the lag set.

    Solves rho = P theta with P[(k,l),(i,j)] = rho(k-i, l-j), lex-negative
    entries mapped through rho(k,l) = rho(-k,-l); then mu_eps =
    mean*(1-alpha) and sigma2_eps = var*(1-alpha^2) - alpha*mu_eps.
    Estimates are reported verbatim, inadmissible or not.
    """
    table = sample_acf(grid, (order.p1, order.p2))
    lags = order.lags
    rho = np.array([table.value(k, l) for (k, l) in lags])
    pmat = np.array(
        [[table.value(k - i, l - j) for (i, j) in lags] for (k, l) in lags]
    )
    theta = _solve_checked(pmat, rho, "YW system singular")
    alpha = float(theta.sum())
    xbar = float(np.mean(grid.values))
    mu_eps = xbar * (1.0 - alpha)
    sigma2_x = sample_acvf(grid, 0, 0)
    sigma2_eps = sigma2_x * (1.0 - alpha**2) - alpha * mu_eps
    i_eps = sigma2_eps / mu_eps if mu_eps != 0.0 else float("nan")
    return FitResult(
        method="YW",
        names=order.theta_names() + ("mu_eps", "i_eps"),
        estimates=np.concatenate([theta, [mu_eps, i_eps]]),
        admissible=_moments_admissible(theta, mu_eps, sigma2_eps),
        diagnostics=FitDiagnostics(n_iter=0, converged=True),
    )


# =============================================================================
# Conditional least squares
# =============================================================================


def cls_estimate(grid, order):
    """Closed-form least-squares fit of the conditional-mean regression.

    The normal equations of sum (X_st - mu - sum theta_ij X_{s-i,t-j})^2
    over the interior; solution ordered (theta lexicographic, mu_eps).
    Estimates are reported verbatim, inadmissible or not.
    """
    x, lagged = lagged_stack(grid.values, order)
    design = np.column_stack([lagged.astype(float), np.ones(x.size)])
    amat = design.T @ design
    bvec = design.T @ x.astype(float)
    coef = _solve_checked(amat, bvec, "CLS normal equations singular")
    theta, mu_eps = coef[:-1], float(coef[-1])
    return FitResult(
        method="CLS",
        names=order.theta_names() + ("mu_eps",),
        estimates=coef,
        admissible=_moments_admissible(theta, mu_eps),
        diagnostics=FitDiagnostics(n_iter=0, converged=True),
    )


# =============================================================================
# Conditional maximum likelihood
# =============================================================================


def cml_loglik(params, grid):
    """Conditional log-likelihood of the grid's interior sites.

    Each term is the log of the mixture-of-convolutions conditional PMF.
    Returns -inf (with a site report) when some observed count has zero
    conditional probability, which can only happen with truncated-support
    innovation laws or severe underflow.
    """
    verdict = validate_params(params)
    if not verdict:
        raise ValidationError("invalid parameters: " + "; ".join(verdict.violations))
    likelihood = _CmlLikelihood(grid.values, params.order)
    value, bad, _ = likelihood.evaluate(params.theta, params.innovation)
    if bad.size:
        warnings.warn(_zero_sites(bad, grid, params.order), stacklevel=2)
    return value


def _zero_sites(bad, grid, order):
    """Name the zero-probability interior sites by count and first grid cell."""
    r, c = divmod(int(bad[0]), grid.n2 - order.p2)
    return (f"{bad.size} interior site(s) have zero conditional probability;"
            f" first at grid cell ({r + order.p1}, {c + order.p2})")


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


class _CmlLikelihood:
    """Conditional log-likelihood of one grid, with its exact score.

    Built once per grid: each interior site's outcome and past counts at
    the chosen ``lags`` (indices into the order's lag set, default all)
    become flat indices into the thinning-convolution table C, so an
    evaluation builds C once and reads it with one gather.  The score
    needs only transforms of the same table, with W = d loglik / dC:

    * d/dphi_j = sum_s C[l_sj, x_s] / p_s, the per-lag gather over p;
    * d/dalpha through thinning: dC[n, x]/dalpha = n (C[n-1, x-1] - C[n-1, x]);
    * d/dpsi through the innovation PMF e: de/dpsi = e * h_psi (series
      convolution, see ``score_series``), so dC/dpsi = C @ toeplitz(h_psi)
      and the contraction with W is sum_k h_psi[k] r[k], where
      r[k] = sum_{n,y} C[n, y] W[n, y+k].

    ``family`` (an innovation family class, see ``innovations``) is needed
    only by the parametrized entry points ``natural``, ``value_and_grad``
    and ``hessian``.
    Counts evaluations in ``n_fev``, of which ``n_grad`` carried the score.
    """

    def __init__(self, values, order, family=None, lags=None):
        x, pasts = lag_views(values, order)
        if lags is not None:
            pasts = [pasts[k] for k in lags]
        self.family = family
        self.n_sites = x.size
        self.n_max = max(int(past.max()) for past in pasts)
        self.x_max = int(x.max())
        self._flat = flat_site_index(x, pasts, self.x_max)
        self._site_values = np.empty(self._flat.shape)
        # column offset x - y of each (y, x) cell of C.T @ W; the lower
        # triangle goes to a spare bin past x_max
        cols = np.arange(self.x_max + 1)
        offsets = cols[None, :] - cols[:, None]
        offsets[offsets < 0] = self.x_max + 1
        self._offsets = offsets.ravel()
        self.n_fev = self.n_grad = 0

    def evaluate(self, theta, innovation, score=False):
        """(loglik, zero-probability site indices, score or None).

        The score is taken over (theta at the chosen lags, innovation
        parameters of ``innovation.score_series``).  With zero-probability
        sites the log-likelihood is -inf and no score is computed.
        """
        self.n_fev += 1
        alpha = float(theta.sum())
        phi = theta / alpha
        table = thinning_convolution_table(
            alpha, innovation, self.n_max, self.x_max
        )
        values = lag_site_values(table, self._flat, out=self._site_values)
        p_site = phi @ values
        bad = np.flatnonzero(p_site <= 0.0)
        if bad.size:
            return -np.inf, bad, None
        loglik = float(np.sum(np.log(p_site)))
        if not score:
            return loglik, bad, None
        self.n_grad += 1
        # The score is linear in 1/p, which overflows for sites of tiny
        # probability; weight by scale/p instead, scale an exact power of
        # two, and divide it out at the end.
        scale = 1.0
        exponent = int(np.frexp(p_site.min())[1])
        if exponent < -500:
            scale = float(np.ldexp(1.0, exponent + 500))
        inv_p = np.divide(scale, p_site, out=p_site)
        d_phi = values @ inv_p
        weights = np.zeros(table.size)
        for j, rows in enumerate(self._flat):
            weights += phi[j] * np.bincount(rows, inv_p, minlength=table.size)
        weights = weights.reshape(table.shape)
        step = -table[:-1]
        step[:, 1:] += table[:-1, :-1]
        d_alpha = np.arange(1, self.n_max + 1) @ np.sum(weights[1:] * step, axis=1)
        cross = np.bincount(self._offsets, (table.T @ weights).ravel(),
                            minlength=self.x_max + 2)[:-1]
        d_innovation = innovation.score_series(self.x_max) @ cross
        d_alpha += d_innovation[0]
        d_theta = d_alpha + (d_phi - phi @ d_phi) / alpha
        return loglik, bad, np.concatenate([d_theta, d_innovation[1:]]) / scale

    def natural(self, vec):
        """(loglik, score) at (theta, innovation parameters); (-inf, None)
        outside the model's domain."""
        m = self._flat.shape[0]
        theta, extra = vec[:m], vec[m:]
        # the first innovation parameter is the mean mu_eps; a larger one
        # only builds huge tables
        if not extra[0] <= 1e12:
            return -np.inf, None
        try:
            innovation = self.family.from_params(extra, float(theta.sum()))
        except CinarError:
            return -np.inf, None
        loglik, _, grad = self.evaluate(theta, innovation, score=True)
        return loglik, grad

    def value_and_grad(self, z):
        """(loglik, score) in the optimizer's unconstrained coordinates (see
        ``_pack``); (-inf, None) outside the model's domain."""
        m = self._flat.shape[0]
        lower = self.family.lower_bounds
        theta, extra = _unpack(z, m, lower)
        loglik, grad = self.natural(np.append(theta, extra))
        if grad is None:
            return loglik, None
        alpha = float(theta.sum())
        phi = theta / alpha
        d_theta = grad[:m]
        mean = phi @ d_theta
        out = np.empty_like(grad)
        out[0] = alpha * (1.0 - alpha) * mean
        out[1:m] = alpha * phi[:-1] * (d_theta[:-1] - mean)
        out[m:] = (extra - lower) * grad[m:]
        return loglik, out

    def hessian(self, vec):
        """Central differences of the score at (theta, innovation parameters).

        Step cbrt(eps)*(1+|v_i|) per axis, 2p score evaluations; the
        result is symmetrized.
        """
        steps = _CBRT_EPS * (1.0 + np.abs(vec))
        hess = np.empty((vec.size, vec.size))
        for i, h in enumerate(steps):
            shift = np.zeros(vec.size)
            shift[i] = h
            _, up = self.natural(vec + shift)
            _, down = self.natural(vec - shift)
            if up is None or down is None:
                raise NumericalError(
                    f"score undefined within {h:.3g} of coordinate {i}"
                    " of the standard-error stencil"
                )
            hess[i] = (up - down) / (2.0 * h)
        return 0.5 * (hess + hess.T)


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


def _moment_dispersion(grid, alpha):
    """Innovation dispersion implied by the sample variance at a given alpha."""
    mu_eps = float(np.mean(grid.values)) * (1.0 - alpha)
    sigma2_eps = sample_acvf(grid, 0, 0) * (1.0 - alpha**2) - alpha * mu_eps
    if mu_eps <= 0 or not np.isfinite(sigma2_eps):
        return 1.5
    return sigma2_eps / mu_eps


def _initial_point(grid, order, family, init):
    """CLS start, falling back to YW, falling back to a neutral interior point.

    Returns theta and the innovation parameters of ``family``; a missing
    dispersion comes from the sample variance.
    """
    m = order.n_lags
    if init is not None:
        theta = np.asarray(init.theta, dtype=float)
        if theta.size != m:
            raise ValidationError(
                f"init has {theta.size} dependence coefficients, order needs {m}"
            )
        mu_eps = init.mu_eps
        i_eps = init.i_eps
    else:
        try:
            fit = cls_estimate(grid, order)
        except CinarError:
            try:
                fit = yw_estimate(grid, order)
            except CinarError:
                fit = None
        if fit is not None:
            theta, mu_eps, i_eps = fit.theta, fit.mu_eps, fit.i_eps
        else:
            theta = np.full(m, 0.3 / m)
            mu_eps = max(float(np.mean(grid.values)) * 0.7, 1e-2)
            i_eps = 1.5
    if i_eps is None and "i_eps" in family.param_names:
        i_eps = _moment_dispersion(grid, float(np.clip(np.sum(theta), 0.0, 0.99)))
    start = {"mu_eps": mu_eps, "i_eps": i_eps}
    return _project_interior(
        theta, [start[name] for name in family.param_names], family.lower_bounds
    )


def _parse_fix_zero(fix_zero, order):
    """Indices into the lag set for coefficients pinned to zero."""
    lags = list(order.lags)
    fixed = []
    for item in fix_zero:
        if isinstance(item, str):
            digits = [c for c in item if c.isdigit()]
            if len(digits) != 2:
                raise ValidationError(
                    f"cannot parse fixed coefficient {item!r}; use e.g. 'theta_01'"
                )
            lag = (int(digits[0]), int(digits[1]))
        else:
            lag = (int(item[0]), int(item[1]))
        if lag not in lags:
            raise ValidationError(
                f"fixed coefficient {item!r} is not a lag of order "
                f"({order.p1},{order.p2})"
            )
        fixed.append(lags.index(lag))
    fixed = sorted(set(fixed))
    if len(fixed) >= len(lags):
        raise ValidationError("cannot fix every dependence coefficient to zero")
    return fixed


def cml_estimate(grid, order, family="poisson", init=None, multistart=False,
                 fix_zero=()):
    """Maximum conditional likelihood over the open constraint region.

    The constraints (theta_ij >= 0, sum < 1, mu_eps > 0, dispersion > 1
    for the NB family) are enforced through a smooth bijection to an
    unconstrained space, where BFGS on the exact score runs from the CLS
    (fallback YW, fallback neutral) start, or from ``init`` when given;
    points where the likelihood is zero or undefined act as a wall of
    value 1e300 the line search backs away from.  Raises NumericalError,
    naming a zero-probability site, when every start lies on that wall.
    ``fix_zero`` names lag coefficients pinned to exactly 0 (simplified
    models), e.g. ``("theta_11",)`` or ``[(1, 1)]``; they are excluded
    from the free parameters, the information criteria, and carry zero
    standard error.  ``multistart`` adds four fixed perturbed starts and
    keeps the best optimum.  Deterministic.
    """
    family = innovation_family(family)
    lower = family.lower_bounds
    m = order.n_lags
    fixed_idx = _parse_fix_zero(fix_zero, order)
    free_idx = np.array([k for k in range(m) if k not in fixed_idx], dtype=int)
    m_free = free_idx.size
    likelihood = _CmlLikelihood(grid.values, order, family, lags=free_idx)

    def objective(z):
        loglik, grad = likelihood.value_and_grad(z)
        if grad is None:
            return _WALL, np.zeros_like(z)
        return -loglik, -grad

    theta0, extra0 = _initial_point(grid, order, family, init)
    theta0_free, extra0 = _project_interior(theta0[free_idx], extra0, lower)
    z0 = _pack(theta0_free, extra0, lower)
    starts = [z0]
    if multistart:
        offsets = np.array([0.5, -0.5, 1.0, -1.0])
        starts.extend(z0 + off for off in offsets)

    # The log-likelihood is a sum over sites, so its rounding noise grows
    # with their number; a gradient tolerance below that noise leaves the
    # line search chasing it.
    gtol = _GTOL_PER_SITE * likelihood.n_sites
    best = None
    total_iter = 0
    for start in starts:
        res = optimize.minimize(
            objective, start, method="BFGS", jac=True,
            options={"gtol": gtol, "maxiter": 500},
        )
        total_iter += int(res.nit)
        if best is None or res.fun < best.fun:
            best = res
    if not best.fun < _WALL:
        _, bad, _ = likelihood.evaluate(
            theta0_free, family.from_params(extra0, theta0_free.sum())
        )
        raise NumericalError(
            "no CML start has a finite conditional likelihood: "
            + (_zero_sites(bad, grid, order) if bad.size
               else "the start lies outside the model's domain")
        )

    loglik_max = -float(best.fun)
    grad_norm = float(np.linalg.norm(best.jac, ord=np.inf))
    converged = grad_norm <= 1e-5 * (1.0 + abs(loglik_max))

    theta_free, extra = _unpack(best.x, m_free, lower)
    theta = np.zeros(m)
    theta[free_idx] = theta_free
    estimates = np.concatenate([theta, extra])
    params_hat = CinarParams(
        order, theta, family.from_params(extra, float(theta.sum()))
    )

    vec_free = np.concatenate([theta_free, extra])
    se_error = None
    try:
        se_free = _se_from_loglik(
            likelihood.hessian, vec_free,
            lower=np.concatenate([np.zeros(m_free), lower]),
        )
        std_errors = np.zeros(estimates.size)
        std_errors[np.concatenate([free_idx, np.arange(m, estimates.size)])] = se_free
    except NumericalError as exc:
        std_errors, se_error = None, str(exc)
    aic, bic = information_criteria(
        loglik_max, vec_free.size, grid.n1, grid.n2, likelihood.n_sites
    )
    return FitResult(
        method="CML",
        names=order.theta_names() + family.param_names,
        estimates=estimates,
        admissible=bool(validate_params(params_hat)),
        diagnostics=FitDiagnostics(
            n_iter=total_iter, converged=converged, grad_norm=grad_norm,
            n_fev=likelihood.n_fev, n_grad=likelihood.n_grad,
            message=str(best.message), se_error=se_error,
        ),
        std_errors=std_errors,
        loglik=loglik_max,
        aic=aic,
        bic=bic,
    )


# =============================================================================
# Observed-information standard errors
# =============================================================================


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


def _se_from_loglik(hessian, vec, lower=None):
    """Boundary-guarded standard errors from a log-likelihood Hessian.

    ``hessian`` maps ``vec`` to the Hessian of the log-likelihood there.
    When ``lower`` holds the coordinates' lower bounds (0 for theta, the
    family's bounds for the innovation parameters), refuses vectors whose
    finite-difference stencil would reach one.
    """
    if lower is not None:
        steps = _CBRT_EPS * (1.0 + np.abs(vec))
        if np.any(vec - steps <= lower):
            raise NumericalError(
                "estimate too close to the constraint boundary for"
                " finite-difference standard errors"
            )
    neg = -hessian(vec)
    eigvals = np.linalg.eigvalsh(neg)
    if not np.all(np.isfinite(eigvals)) or eigvals.min() <= 0.0:
        raise NumericalError(
            "not at a maximum / flat direction: negative-Hessian eigenvalues "
            + np.array2string(eigvals, precision=6)
        )
    cov = np.linalg.inv(neg)
    return np.sqrt(np.diag(cov))


def observed_fisher_se(params, grid, loglik_fn=None):
    """Standard errors from the negative Hessian of the log-likelihood.

    The Hessian is taken in the original parametrization (theta lex, then
    the innovation family's ``param_names``) at ``params``: by central
    differences of the exact
    score, or, when ``loglik_fn`` (a map from that vector to a real)
    replaces the model log-likelihood, by ``fd_hessian`` of it.  Standard
    errors are the square roots of the diagonal of its negative inverse.
    """
    family = type(params.innovation)
    if not hasattr(family, "from_params"):
        raise ValidationError(
            "standard errors support the Poisson and NB innovation families only"
        )
    vec = np.concatenate([params.theta, params.innovation.params()])
    if loglik_fn is not None:
        return _se_from_loglik(lambda v: fd_hessian(loglik_fn, v), vec)
    likelihood = _CmlLikelihood(grid.values, params.order, family)
    return _se_from_loglik(
        likelihood.hessian, vec,
        lower=np.concatenate([np.zeros(params.order.n_lags), family.lower_bounds]),
    )
