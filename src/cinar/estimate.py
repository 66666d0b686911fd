"""Moment, least-squares, and likelihood estimation.

Three estimators for the dependence coefficients and innovation
parameters: Yule--Walker (sample-ACF linear system), conditional least
squares (closed-form normal equations), and conditional maximum
likelihood (trust-region Newton on the exact observed information through
a smooth bijection).  Only the likelihood fit reports standard errors:
``cml_estimate`` takes them from the observed information at its optimum,
the last Hessian of its search.
"""

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import optimize
from scipy.special import expit, logit, softmax

from ._kernels import (_check_cells, flat_site_index, lag_site_values,
                       thinning_convolution_table)
from .diagnose import information_criteria
from .acf import sample_acf, sample_acvf
from .errors import CinarError, NumericalError, ValidationError
from .innovations import innovation_family
from .model import CinarParams, _validated, lag_views, validate_params

__all__ = [
    "FitDiagnostics",
    "FitResult",
    "yw_estimate",
    "cls_estimate",
    "cml_loglik",
    "cml_estimate",
]

_CBRT_EPS = np.finfo(float).eps ** (1.0 / 3.0)
# objective outside the model's domain (infinite: a ratio to it cannot overflow)
_WALL = np.inf
# CML stops once a Newton step would gain under _GAIN_RTOL (1 + |loglik|),
# far above the log-likelihood's rounding, or once the score in the
# optimizer's coordinates falls under _GTOL, which ends the approach to an
# optimum on a constraint boundary, where the likelihood flattens.  There
# it behaves like sup - c e^z in the coordinate z of the vanishing
# distance, so the score is the gap left to the supremum: _GTOL bounds it.
_GAIN_RTOL = 1e-12
_GTOL = 1e-6


@dataclass(frozen=True)
class FitDiagnostics:
    """Optimizer bookkeeping; trivial for the closed-form estimators.

    ``n_fev`` counts log-likelihood evaluations; the standard errors add
    none, as they reuse the Hessian of the last one.  ``n_grad`` counts
    the evaluations that also computed the score; ``message`` is the
    optimizer's stop reason, and ``se_error`` says why CML standard errors
    are missing.
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
    x, pasts = lag_views(grid.values, order)
    # one row per interior site, row-major: the past at each lag, then 1
    design = np.stack(pasts + [np.ones(x.shape)], axis=-1).reshape(x.size, -1)
    amat = design.T @ design
    bvec = design.T @ x.ravel().astype(float)
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
    conditional probability, which for the Poisson and NB laws means that
    its probability underflowed.
    """
    _validated(params)
    likelihood = _CmlLikelihood(grid.values, params.order)
    value, bad = likelihood.evaluate(params.theta, params.innovation)
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
    """Conditional log-likelihood of one grid, with its exact score and
    Hessian.

    Built once per grid: each interior site's outcome and past counts at
    the chosen ``lags`` (indices into the order's lag set, default all)
    become flat indices into the thinning-convolution table C, so an
    evaluation builds C once and reads it with one gather.  The score and
    the Hessian need only tables thinned in the same build: thinning
    shifts and differences C along (n, x), dC[n, x]/dalpha = n (C[n-1,
    x-1] - C[n-1, x]), and the innovation parameters move its row-0
    series (see ``_innovation_series`` and ``_table_derivatives``).

    ``family`` (an innovation family class, see ``innovations``) is needed
    only by ``value_score_hessian``.  Counts evaluations in ``n_fev``, of
    which ``n_grad`` also carried the score and the Hessian.
    """

    def __init__(self, values, order, family=None, lags=None):
        x, pasts = lag_views(values, order)
        if lags is not None:
            pasts = [pasts[k] for k in lags]
        self.family = family
        self.n_sites = x.size
        self.n_max = max(int(past.max()) for past in pasts)
        self.x_max = int(x.max())
        _check_cells(self.n_max, max(self.n_max, self.x_max))
        self._flat = flat_site_index(x, pasts, self.x_max)
        self._site_values = np.empty(self._flat.shape)
        self.n_fev = self.n_grad = 0

    def _site_probabilities(self, alpha, phi, series):
        """(tables, per-lag site values C[l_sj, x_s], site probabilities p).

        One likelihood evaluation: one build of the tables of the stacked
        ``series``, the first of which is C, and one gather.
        """
        self.n_fev += 1
        tables = thinning_convolution_table(alpha, series, self.n_max)
        values = lag_site_values(tables[0], self._flat, out=self._site_values)
        return tables, values, phi @ values

    def evaluate(self, theta, innovation):
        """(loglik, zero-probability site indices); the log-likelihood is
        -inf when there are any."""
        alpha = float(theta.sum())
        _, _, p_site = self._site_probabilities(
            alpha, theta / alpha, innovation.pmf_table(self.x_max)[None])
        bad = np.flatnonzero(p_site <= 0.0)
        if bad.size:
            return -np.inf, bad
        return float(np.sum(np.log(p_site))), bad

    def value_score_hessian(self, vec):
        """(loglik, score, Hessian) at (theta, innovation parameters).

        One table build and one pass over the sites; (-inf, None, None)
        outside the model's domain or where a site has zero probability.
        With a = (alpha, innovation parameters) and p_s = sum_j phi_j
        C[l_sj, x_s], the first-order tables dC/da and second-order tables
        d2C/da da' are contracted with the per-lag weights W_j[n, x], the
        sum of 1/p_s over the sites with l_sj = n and x_s = x.  The score is
        the first-order contraction; the Hessian is
        H = sum_s grad2 p_s / p_s - sum_s grad p_s grad p_s^T / p_s**2,
        whose second term is the Gram of the per-site score, gathered from
        C and dC/da and divided by p_s in place.
        """
        m = self._flat.shape[0]
        theta, extra = vec[:m], vec[m:]
        alpha = float(theta.sum())
        # far out in the optimizer's coordinates alpha rounds to 1 or towards
        # 0, where the Hessian's 1/alpha**2 overflows; the first innovation
        # parameter is the mean mu_eps, and a larger one builds huge tables
        if not (1e-100 < alpha < 1.0 and extra[0] <= 1e12):
            return -np.inf, None, None
        try:
            innovation = self.family.from_params(extra, alpha)
        except CinarError:
            return -np.inf, None, None
        phi = theta / alpha
        tables, values, p_site = self._site_probabilities(
            alpha, phi, _innovation_series(innovation, self.x_max))
        if not np.all(p_site > 0.0):
            return -np.inf, None, None
        self.n_grad += 1
        loglik = float(np.sum(np.log(p_site)))
        scale = _inverse_scale(p_site)
        inv_p = scale / p_site
        table = tables[0]
        lag_weights = np.stack([np.bincount(rows, inv_p, minlength=table.size)
                                for rows in self._flat])
        del inv_p
        d1, d2 = _table_derivatives(tables, 1 + extra.size)

        # Score and first Hessian term, over s / p_s.  g[j] and G[a, j] sum
        # C and dC/da at lag j, so d/dphi_j = g[j], d/da = G phi and
        # d/dtheta_k = d/dalpha + (g[k] - phi.g) / alpha.  With A = dC/dalpha
        # at a site's lags,
        # d2p/dtheta_k dtheta_l = (A_k + A_l - 2 phi.A) / alpha
        #   - (C_k + C_l - 2 p) / alpha**2 + phi.d2C/dalpha2, and
        # d2p/dtheta_k dpsi = (dC/dpsi_k - phi.dC/dpsi) / alpha
        #   + phi.d2C/dalpha dpsi.
        g = lag_weights @ table.ravel()
        big_g = d1.reshape(d1.shape[0], -1) @ lag_weights.T
        d_a = big_g @ phi
        second = d2.reshape(d2.shape[0], d2.shape[1], -1) @ (phi @ lag_weights)
        g_phi, big_g_phi = g - phi @ g, big_g - d_a[:, None]
        score = np.concatenate([d_a[0] + g_phi / alpha, d_a[1:]]) / scale
        hess = np.empty((vec.size, vec.size))
        hess[:m, :m] = (second[0, 0] + (big_g_phi[0][:, None] + big_g_phi[0])
                        / alpha - (g_phi[:, None] + g_phi) / alpha**2)
        hess[:m, m:] = big_g_phi[1:].T / alpha + second[0, 1:]
        hess[m:, :m] = hess[:m, m:].T
        hess[m:, m:] = second[1:, 1:]
        hess /= scale

        # Second term: the Gram of the per-site score, from phi_j dC/da
        # gathered lag by lag.  Its entries are ratios to p_s, finite where
        # 1/p_s is not, so they take no scale: s**2 can underflow.
        site_d1 = np.empty((d1.shape[0], p_site.size))
        gathered = np.empty(p_site.size)
        for a, d_table in enumerate(d1):
            lag_site_values(phi[0] * d_table, self._flat[0], out=site_d1[a])
            for j in range(1, m):
                site_d1[a] += lag_site_values(phi[j] * d_table, self._flat[j],
                                              out=gathered)
        del gathered
        np.divide(site_d1, p_site, out=site_d1)
        # alpha d log p_s / d theta_j = C[l_sj, x_s] / p_s - 1 + alpha dC/dalpha / p_s
        values -= p_site
        values /= p_site
        values += alpha * site_d1[0]
        d_psi = site_d1[1:]
        hess[:m, :m] -= values @ values.T / alpha**2
        cross = values @ d_psi.T / alpha
        hess[:m, m:] -= cross
        hess[m:, :m] -= cross.T
        hess[m:, m:] -= d_psi @ d_psi.T
        return loglik, score, hess


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


def _inverse_scale(p_site):
    """An exact power of two s <= 1 that keeps s / p_s finite.

    Sums linear in 1/p overflow for sites of tiny probability; they are
    taken over s / p_s and divided by s at the end.
    """
    exponent = int(np.frexp(p_site.min())[1])
    return float(np.ldexp(1.0, exponent + 500)) if exponent < -500 else 1.0


def _thinning_step(table):
    """d table / d alpha through thinning, over the last two axes (n, x):
    n (T[n-1, x-1] - T[n-1, x])."""
    out = np.zeros_like(table)
    out[..., 1:, :] = -table[..., :-1, :]
    out[..., 1:, 1:] += table[..., :-1, :-1]
    out *= np.arange(table.shape[-2])[:, None]
    return out


def _innovation_series(innovation, x_max):
    """Row-0 series of the likelihood table and its derivative tables.

    The innovation PMF e moves as de/da = e * h_a and d2e/da da' = e *
    (h_a * h_a' + hh_aa') (``score_series`` rows ``h``, ``hessian_series``
    block ``hh``), all truncated at x_max.  Returns the stack of e, each
    e * h_a, and e * (h_a * h_b + hh_ab) for each pair a <= b.
    """
    e = innovation.pmf_table(x_max)
    h, hh = innovation.score_series(x_max), innovation.hessian_series(x_max)
    q, width = h.shape
    inner = list(h) + [np.convolve(h[a], h[b])[:width] + hh[a, b]
                       for a in range(q) for b in range(a, q)]
    return np.vstack([e] + [np.convolve(e, s)[:width] for s in inner])


def _table_derivatives(tables, q):
    """First and second derivatives of C over (alpha, innovation parameters).

    ``tables`` holds the thinning of the ``_innovation_series`` stack: C,
    then the innovation's q first- and q (q+1) / 2 second-derivative
    tables.  Thinning moves C by ``_thinning_step``, which commutes with
    the innovation's convolutions.  Returns d1 of shape (q, n, x) and d2
    of (q, q, n, x); d1 reuses the memory of ``tables``.
    """
    table, d1 = tables[0], tables[1:q + 1]
    pairs = [(a, b) for a in range(q) for b in range(a, q)]
    step_by_h = _thinning_step(d1)
    step = _thinning_step(table)
    d1[0] += step
    d2 = np.empty((q, q) + table.shape)
    for (a, b), c in zip(pairs, tables[q + 1:]):
        d2[a, b] = d2[b, a] = c
    # alpha (a = 0) also thins: once in d2C/dalpha da', twice in d2C/dalpha2
    d2[0] += step_by_h
    d2[1:, 0] += step_by_h[1:]
    d2[0, 0] += step_by_h[0] + _thinning_step(step)
    return d1, d2


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


def cml_estimate(grid, order, family="poisson", init=None, fix_zero=()):
    """Maximum conditional likelihood over the open constraint region.

    The constraints (theta_ij >= 0, sum < 1, mu_eps > 0, dispersion > 1
    for the NB family) are enforced through a smooth bijection to an
    unconstrained space, where a trust-region Newton method on the exact
    observed information (scipy's ``trust-exact``) runs from the CLS
    (fallback YW, fallback neutral) start, or from ``init`` when given.
    Each trial point costs one likelihood pass, which gives the value,
    the score and the Hessian together; points where the likelihood is
    zero or undefined act as an infinite wall, so a trial there is
    rejected and the trust region shrinks.  The standard errors reuse the
    Hessian of the last accepted point.  Raises NumericalError, naming a
    zero-probability site, when the start lies on that wall, and
    ValidationError when the grid has no more interior sites than free
    parameters, which the likelihood cannot identify.
    ``fix_zero`` names lag coefficients pinned to exactly 0 (simplified
    models), e.g. ``("theta_11",)`` or ``[(1, 1)]``; they are excluded
    from the free parameters, the information criteria, and carry zero
    standard error.  Deterministic.
    """
    family = innovation_family(family)
    lower = family.lower_bounds
    m = order.n_lags
    fixed_idx = _parse_fix_zero(fix_zero, order)
    free_idx = np.array([k for k in range(m) if k not in fixed_idx], dtype=int)
    m_free = free_idx.size
    likelihood = _CmlLikelihood(grid.values, order, family, lags=free_idx)
    n_free = m_free + len(lower)
    if likelihood.n_sites <= n_free:
        raise ValidationError(
            "CML needs more interior sites than free parameters: the grid has"
            f" {likelihood.n_sites} interior site(s) for {n_free} free parameters")

    last = {}

    def fused(z):
        """(-loglik, -score, -Hessian) in z, one pass per new point."""
        if "z" not in last or not np.array_equal(z, last["z"]):
            vec = np.concatenate(_unpack(z, m_free, lower))
            loglik, score, hess = likelihood.value_score_hessian(vec)
            last.update(z=np.array(z), vec=vec, hess=hess)
            if score is None:
                last["out"] = _WALL, np.zeros_like(z), np.zeros((z.size, z.size))
            else:
                grad_z, hess_z = _chain_to_z(z, m_free, score, hess)
                last["out"] = -loglik, -grad_z, -hess_z
        return last["out"]

    theta0, extra0 = _initial_point(grid, order, family, init)
    theta0_free, extra0 = _project_interior(theta0[free_idx], extra0, lower)
    z0 = _pack(theta0_free, extra0, lower)
    if fused(z0)[0] == _WALL:
        _, bad = likelihood.evaluate(
            theta0_free, family.from_params(extra0, theta0_free.sum())
        )
        raise NumericalError(
            "the CML start has no finite conditional likelihood: "
            + (_zero_sites(bad, grid, order) if bad.size
               else "it lies outside the model's domain")
        )

    def small_gain(intermediate_result):
        """Stop at a newly accepted point where the Newton step gains
        g^T H^-1 g / 2 < _GAIN_RTOL (1 + |loglik|)."""
        if np.array_equal(intermediate_result.x, last["z"]):
            value, grad, hess = last["out"]
            try:
                half = np.linalg.solve(np.linalg.cholesky(hess), grad)
            except np.linalg.LinAlgError:  # not convex here
                return
            if half @ half < 2.0 * _GAIN_RTOL * (1.0 + abs(value)):
                raise StopIteration

    res = optimize.minimize(
        lambda z: fused(z)[:2], z0, method="trust-exact", jac=True,
        hess=lambda z: fused(z)[2], callback=small_gain,
        options={"gtol": _GTOL, "maxiter": 200},
    )
    # the last accepted point; a pass only when the last trial was refused
    fused(res.x)
    message = ("Newton step gain below tolerance" if res.status == 99
               else str(res.message))

    loglik_max = -float(res.fun)
    grad_norm = float(np.linalg.norm(res.jac, ord=np.inf))
    converged = grad_norm <= 1e-5 * (1.0 + abs(loglik_max))

    vec_free = last["vec"]
    theta_free, extra = vec_free[:m_free], vec_free[m_free:]
    theta = np.zeros(m)
    theta[free_idx] = theta_free
    estimates = np.concatenate([theta, extra])
    params_hat = CinarParams(
        order, theta, family.from_params(extra, float(theta.sum()))
    )

    se_error = None
    try:
        se_free = _se_from_loglik(last["hess"], vec_free,
                                  np.concatenate([np.zeros(m_free), lower]))
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
            n_iter=int(res.nit), converged=converged, grad_norm=grad_norm,
            n_fev=likelihood.n_fev, n_grad=likelihood.n_grad,
            message=message, se_error=se_error,
        ),
        std_errors=std_errors,
        loglik=loglik_max,
        aic=aic,
        bic=bic,
    )


# =============================================================================
# Observed-information standard errors
# =============================================================================


def _se_from_loglik(hess, vec, lower):
    """Boundary-guarded standard errors from the log-likelihood Hessian
    ``hess`` at ``vec``.

    ``lower`` holds the coordinates' lower bounds (0 for theta, the
    family's bounds for the innovation parameters); a vector within
    cbrt(eps)*(1+|v_i|) of one is refused, since the observed information
    of an estimate on the boundary does not give its sampling spread.
    """
    steps = _CBRT_EPS * (1.0 + np.abs(vec))
    if np.any(vec - steps <= lower):
        raise NumericalError(
            "estimate too close to the constraint boundary for"
            " observed-information standard errors"
        )
    neg = -hess
    eigvals = np.linalg.eigvalsh(neg)
    if not np.all(np.isfinite(eigvals)) or eigvals.min() <= 0.0:
        raise NumericalError(
            "not at a maximum / flat direction: negative-Hessian eigenvalues "
            + np.array2string(eigvals, precision=6)
        )
    cov = np.linalg.inv(neg)
    return np.sqrt(np.diag(cov))
