"""Moment, least-squares, and likelihood estimation.

Three estimators for the dependence coefficients and innovation
parameters: Yule--Walker (sample-ACF linear system), conditional least
squares (closed-form normal equations), and conditional maximum
likelihood (projected trust-region Newton on the exact observed
information, over a box of the parameters).  Only the likelihood fit
reports standard errors, from the last Hessian of its search, and only
at an optimum off the faces of the box.
"""

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._kernels import (SiteTuples, _check_cells, lag_site_values,
                       log_thinning_table, thinning_convolution_table)
from .diagnose import information_criteria
from .acf import sample_acf, sample_acvf
from .errors import CinarError, NumericalError, ValidationError
from .innovations import innovation_family
from .model import CinarParams, _validated, _whole, lag_views, validate_params

__all__ = [
    "FitDiagnostics",
    "FitResult",
    "yw_estimate",
    "cls_estimate",
    "cml_loglik",
    "cml_estimate",
]

_EPS = np.finfo(float).eps
_CBRT_EPS = _EPS ** (1.0 / 3.0)
# CML stops once a Newton step on the free coordinates would gain under
# _GAIN_RTOL (1 + |loglik|), or once the projected score, each entry
# scaled by max(1, |v_i|), falls under _GTOL: near a perfect-fit corner,
# where the likelihood goes like sup - c / (1 + sum w) or sup - c mu_eps,
# that scaled score is about the gap left to the supremum.
_GAIN_RTOL = 1e-12
_GTOL = 1e-6
_MAX_ITER = 200
# The trust region is a ball in coordinates scaled by 1 / sqrt(|H_ii|) (at
# most 1): near a face where one site needs that lag the curvature grows
# like 1 / w**2, and that must not hold back the other coordinates.
_RADIUS0 = 10.0
# The corner alpha = 0 (every w at 0) is outside the model: the search
# stands in for it with one w at _W_FLOOR, within |score| _W_FLOOR of the
# corner's log-likelihood, and counts such a w as on its bound, where its
# Hessian row, which loses digits like 1 / alpha**2, goes unused: where the
# stand-in's held scores are about 0, the curvature that decides whether to
# release them is read at every w = _W_PROBE, where it keeps its digits.
_W_FLOOR = 1e-10
_W_PROBE = 1e-6


@dataclass(frozen=True)
class FitDiagnostics:
    """Optimizer bookkeeping; trivial for the closed-form estimators.

    ``n_iter`` counts trial points and ``n_fev`` log-likelihood
    evaluations (the standard errors reuse the last Hessian); each also
    computes the score, so ``n_grad`` equals ``n_fev``.  ``grad_norm`` is
    the largest projected score in the search's coordinates v, each entry
    scaled by max(1, |v_i|), and ``converged`` says it is at most 1e-5 (1 +
    |loglik|) at a stop short of the trial point limit; ``message`` is the
    stop reason, ``se_error`` says why CML standard errors are missing, and
    ``at_bounds`` names the parameters held on their lower bound at the
    end, () in the interior.
    """

    n_iter: int
    converged: bool
    grad_norm: Optional[float] = None
    n_fev: int = 0
    n_grad: int = 0
    message: Optional[str] = None
    se_error: Optional[str] = None
    at_bounds: tuple = ()


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
    # one row per regressor (the past at each lag, then 1) and a last row
    # of outcomes, one column per interior site: amat and bvec in one
    # product, whose entries are integer sums, exact in any order below 2**53
    block = np.empty((len(pasts) + 2, x.size))
    for row, view in zip(block, pasts + [1.0, x]):
        row.reshape(x.shape)[...] = view
    gram = block @ block.T
    amat, bvec = gram[:-1, :-1], gram[:-1, -1]
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

    Each term is the log of the mixture-of-convolutions conditional PMF,
    read in log form from the first stage of a likelihood pass, so it is
    finite however far below the float range a site's probability lies.
    """
    _validated(params)
    stack = _Stack([_CmlLikelihood(grid.values, params.order)])
    with np.errstate(over="ignore"):
        return stack.log_probabilities(np.array([params.alpha]), np.array([params.phi]),
                                       [params.innovation])[0][0]


# the most float64 cells (1 GiB) a likelihood pass may hold
_PASS_CELLS = 2**27
# the most cells of 8 bytes (32 MiB) a lockstep batch of several grids
# holds with the grids given; a wider stack of small grids saves no more time
_STACK_CELLS = 2**22


class _CmlLikelihood:
    """Conditional log-likelihood of one grid, with its exact score and
    Hessian, in log and ratio form: the one likelihood path, which a
    ``_Stack`` of one grid or several runs.

    ``_kernels.SiteTuples`` reads the interior sites at the chosen ``lags``
    (indices into the order's lag set, default all) as (x, past) tuples with
    counts, or as themselves, once per grid; a pass gathers at them from L
    = log C, C[n, x] = P(Binomial(n, alpha) + eps = x).  Per tuple, log p_s
    is a log-sum-exp over the lags, and the score and the Hessian contract
    the lag weights w_sj = phi_j exp(L[l_sj, x_s] - log p_s), in [0, 1],
    with the ratios to C of C's derivatives (``_derivative_ratios``): no
    probability is formed, so every finite likelihood is evaluated.  Sums
    weight each tuple by its count; each table is held once.  L passes
    ``_check_cells``; with an innovation ``family`` (a class, needed only by
    ``value_score_hessian``), a pass of ``_pass_tables`` tables above
    ``_PASS_CELLS`` float64 cells (1 GiB) is refused too.  Counts passes in
    ``n_fev``.
    """

    def __init__(self, values, order, family=None, lags=None):
        self.sites = SiteTuples(values, order, lags)
        self.family = family
        self.n_sites = self.sites.n_sites
        self.n_max, self.x_max = self.sites.n_max, self.sites.x_max
        _check_cells(self.n_max, self.x_max)
        self.tables = _pass_tables(len(self.sites.pasts),
                                   1 + len(family.param_names)) if family else 0
        cells = (self.n_max + 1) * (self.x_max + 1) * self.tables
        if cells > _PASS_CELLS:
            raise ValidationError(
                f"count {max(self.n_max, self.x_max)} is too large for a {family.name}"
                f" CML fit: a likelihood pass would take {cells / 2**27:.1f} GiB,"
                " above 1 GiB")
        self.n_fev = 0

    def value_score_hessian(self, vec):
        """(loglik, score, Hessian) at (theta, innovation parameters) ``vec``:
        a pass of this grid alone, (-inf, None, None) outside the model's
        domain."""
        law = _law_at(self.family, vec, len(self.sites.pasts))
        if law is None:
            return -np.inf, None, None
        return _Stack([self]).value_score_hessian([vec], [law])[0]


def _law_at(family, vec, m):
    """(alpha, innovation law) at (theta, innovation parameters) ``vec``, or
    None outside the model's domain: far out in the optimizer's coordinates
    alpha rounds to 1 or towards 0, where the Hessian's 1/alpha**2
    overflows; the first innovation parameter is the mean mu_eps, and a
    larger one builds huge tables."""
    alpha = float(vec[:m].sum())
    if not (1e-100 < alpha < 1.0 and vec[m] <= 1e12):
        return None
    try:
        return alpha, family.from_params(vec[m:], alpha)
    except CinarError:
        return None


class _Stack:
    """Likelihood passes over the ``_CmlLikelihood`` grids ``members``, of
    one lag set and family, or over those ``arrange`` keeps, each grid at
    its own parameter point.

    The kept grids' tables lie on a leading axis, padded to their largest
    n_max and x_max, and their tuples end to end, each grid's in
    ``slices``, with gather indices (``flat``) offset into its own table,
    in buffers sized once for all members.  Each stage is one call over the
    stack, the table-side terms one per ``groups`` of grids of one
    ``_padded`` shape; only the per-tuple sums ``phi @ values`` and the Gram
    products run grid by grid.  What a grid reads depends on its own shape
    and tuples alone, so its results are bit-identical to its pass alone.
    """

    def __init__(self, members):
        self.members = members
        m, tuples = len(members[0].sites.pasts), sum(member.sites.size for member in members)
        # per tuple, a row per lag (the site values) and, in a pass, one per
        # innovation parameter and one for alpha (the site scores)
        family = members[0].family
        self._rows = m + 1 + (len(family.param_names) if family else 0)
        self._buffer = np.empty(self._rows * tuples)
        self._indices = np.empty(m * tuples, dtype=np.intp)
        self.arrange(range(len(members)))

    def arrange(self, keep):
        """Run the next passes over the members at the indices ``keep``."""
        self.live = [self.members[r] for r in keep]
        self.n_max = max(member.n_max for member in self.live)
        self.x_max = np.array([member.x_max for member in self.live])
        self.width = self.x_max.max() + 1
        groups = {}
        for r, member in enumerate(self.live):
            groups.setdefault((_padded(member.n_max + 1), _padded(member.x_max + 1)), []).append(r)
        self.groups = [(np.array(at) if len(groups) > 1 else slice(None), shape)
                       for shape, at in groups.items()]
        self.sizes = [member.sites.size for member in self.live]
        ends = np.cumsum(self.sizes).tolist()
        self.slices = [slice(a, b) for a, b in zip([0] + ends, ends)]
        # a tuple's score row is divided by sqrt(c_s), 1 where no count is above 1
        self.root = (np.sqrt(np.concatenate([member.sites.counts for member in self.live]))
                     if any(member.sites.size < member.n_sites for member in self.live)
                     else 1.0)
        m, tuples = len(self.members[0].sites.pasts), ends[-1]
        self._site_rows = self._buffer[:self._rows * tuples].reshape(self._rows, tuples)
        self._site_values = self._site_rows[:m]
        self.flat = self._indices[:m * tuples].reshape(m, tuples)
        cells = (self.n_max + 1) * self.width
        for k, (member, at) in enumerate(zip(self.live, self.slices)):
            member.sites.flat(self.width, out=self.flat[:, at])
            if k:
                self.flat[:, at] += k * cells

    def log_probabilities(self, alphas, phis, innovations):
        """([loglik per grid], stacked L), a pass's first stage (``phis`` a
        row per grid); it leaves c_s exp(L[l_sj, x_s] - log p_s) in the
        site-value buffer, past the floats only if phi_j = 0."""
        series = np.full((len(self.live), self.width), -np.inf)
        for row, member, innovation in zip(series, self.live, innovations):
            member.n_fev += 1
            row[:member.x_max + 1] = innovation._log_pmf_table(member.x_max)
        table = log_thinning_table(alphas, series, self.n_max)
        values = lag_site_values(table, self.flat, out=self._site_values)
        # log p_s = top_s + log sum_j phi_j exp(L_sj - top_s), top_s the
        # largest L_sj at a lag of positive weight
        if (phis > 0.0).all():
            top = values.max(axis=0)
        else:
            top = np.full(values.shape[1], -np.inf)
            for value, off in zip(values, np.where(phis > 0.0, 0.0, -np.inf).T):
                np.maximum(top, value + np.repeat(off, self.sizes), out=top)
        values -= top
        np.exp(values, out=values)
        scaled = np.empty(values.shape[1])
        for phi, at in zip(phis, self.slices):
            np.matmul(phi, values[:, at], out=scaled[at])
        top += np.log(scaled)
        logliks = [float(top[at] @ member.sites.counts)
                   for member, at in zip(self.live, self.slices)]
        for member, at in zip(self.live, self.slices):
            np.divide(member.sites.counts, scaled[at], out=scaled[at])
        values *= scaled
        return logliks, table

    def value_score_hessian(self, vecs, laws):
        """[(loglik, score, Hessian)], one per grid, at its (theta, innovation
        parameters) ``vecs[r]``, whose ``_law_at`` is ``laws[r]``.

        The first-order ratios are contracted with the per-lag weights W_j[n,
        x], the sum of c_s exp(L_sj - log p_s) over the tuples with l_sj = n
        and x_s = x, and the second-order ones with w = sum_j phi_j W_j; the
        Hessian is H = sum_s grad2 p_s / p_s - sum_s grad p_s grad p_s^T /
        p_s**2, whose second term is the Gram of the per-tuple score.
        """
        m = self.flat.shape[0]
        alphas, innovations = zip(*laws)
        alphas = np.array(alphas)
        phis = np.array(vecs)[:, :m] / alphas[:, None]
        # a ratio or weight beyond the floats makes the Hessian non-finite
        with np.errstate(over="ignore", invalid="ignore"):
            logliks, table = self.log_probabilities(alphas, phis, innovations)
            values = self._site_values
            ratios = _derivative_ratios(table, alphas, innovations, self.x_max)
            lag_weights = np.empty((len(alphas), m) + table.shape[1:])
            for j, rows in enumerate(self.flat):
                lag_weights[:, j] = np.bincount(rows, values[j],
                                                minlength=table.size).reshape(table.shape)
            q = vecs[0].size - m + 1
            scores = np.empty((len(alphas), m + q - 1))
            hess = np.empty((len(alphas), m + q - 1, m + q - 1))
            for k, (at, shape) in enumerate(self.groups):
                # per group, from its lag weights W: g[j] and G[a, j] sum the
                # ratios 1 and dC/da / C over them, and w = phi @ W
                ratio_block = self._block(ratios, at, shape)
                grids = len(ratio_block)
                weights = self._block(lag_weights, at, shape).reshape(grids, m, -1)
                sums = (weights.sum(axis=-1), ratio_block[:, :q].reshape(grids, q, -1)
                        @ weights.swapaxes(1, 2), phis[at, None] @ weights)
                del weights
                if k == len(self.groups) - 1:  # W is done before the last terms
                    del lag_weights
                scores[at], hess[at] = _table_terms(
                    ratio_block, self._block(table, at, shape), *sums, alphas[at], phis[at])
                del ratio_block, sums

            # Second term: the Gram of the per-tuple score.  Rows m.. of the
            # site buffer take phi_j dC/da / C gathered lag by lag and weighted
            # by c_s C_sj / p_s, a = 0 (alpha) last; every row is divided by
            # sqrt(c_s) so that a tuple's row counts c_s times.
            site = self._site_rows
            phi_tables = phis[:, :, None, None]
            gathered = np.empty(values.shape[1])
            for a in range(q):
                row = site[-1] if a == 0 else site[m + a - 1]
                d_table = ratios[:, a]
                lag_site_values(phi_tables[:, 0] * d_table, self.flat[0], out=row)
                row *= values[0]
                for j in range(1, m):
                    lag_site_values(phi_tables[:, j] * d_table, self.flat[j],
                                    out=gathered)
                    row += np.multiply(gathered, values[j], out=gathered)
            if isinstance(self.root, np.ndarray):
                site /= self.root
            # alpha d log p_s / d theta_j = C_sj / p_s - 1 + alpha d log p_s / d alpha
            site[-1] *= alphas[0] if len(alphas) == 1 else np.repeat(alphas, self.sizes)
            site[-1] -= self.root
            values += site[-1]
            for grid_hess, alpha, at in zip(hess, alphas, self.slices):
                lag_rows, d_psi = values[:, at], site[m:-1, at]
                grid_hess[:m, :m] -= lag_rows @ lag_rows.T / alpha**2
                cross = lag_rows @ d_psi.T / alpha
                grid_hess[:m, m:] -= cross
                grid_hess[m:, :m] -= cross.T
                grid_hess[m:, m:] -= d_psi @ d_psi.T
        return list(zip(logliks, scores, hess))

    def _block(self, tables, at, shape):
        """The stacked ``tables`` (grid, ..., n, x) of grids ``at`` at their
        padded ``shape``, 0 past each grid's own n_max and x_max."""
        at_rows = range(len(self.live)) if isinstance(at, slice) else at
        own = [(self.live[r].n_max + 1, self.live[r].x_max + 1) for r in at_rows]
        if isinstance(at, slice) and set(own) == {shape}:
            return tables  # nothing is padded
        block = np.zeros((len(own),) + tables.shape[1:-2] + shape)
        for into, r, (rows, columns) in zip(block, at_rows, own):
            into[..., :rows, :columns] = tables[r, ..., :rows, :columns]
        return block


def _padded(size):
    """A table side of ``size`` for the table-side terms, fixed by the grid
    alone: the multiple of 16 at or above it up to 32, shared by grids of near
    sizes; larger sides keep their size (padding them costs more than calls)."""
    return size if size > 32 else -(-size // 16) * 16


def _table_terms(ratios, weights, g, big_g, w, alpha, phi):
    """(scores, first Hessian terms) of grids of one table shape, stacked, from
    their ``ratios`` (the first-order ones, then the pairs), weights A, the
    sums g, G and w of their lag weights, ``alpha`` and ``phi``.

    d/dphi_j = g[j], d/da = G phi and d/dtheta_k = d/dalpha + (g[k] -
    phi.g) / alpha.  With D = dC/dalpha at a site's lags, d2p/dtheta_k
    dtheta_l = (D_k + D_l - 2 phi.D) / alpha - (C_k + C_l - 2 p) / alpha**2
    + phi.d2C/dalpha2, and d2p/dtheta_k dpsi = (dC/dpsi_k - phi.dC/dpsi) /
    alpha + phi.d2C/dalpha dpsi, each over p_s.
    """
    grids, q, m = big_g.shape
    # second[a, b] = <d2C/da db / C, w>: the pair ratio (a, b) and, as
    # alpha also thins, the step of each first-order ratio in row and
    # column 0, read through the adjoint u of the step, <step R, w> =
    # <R, u>.  At (0, 0) that counts <step 1, u> twice, not once.
    pair_w = iter((ratios[:, q:].reshape(grids, ratios.shape[1] - q, -1)
                   @ w.swapaxes(1, 2)).swapaxes(0, 1)[..., 0])
    second = np.empty((grids, q, q))
    for a in range(q):
        for b in range(a, q):
            second[:, a, b] = second[:, b, a] = next(pair_w)
    w = w.reshape(weights.shape)
    al = alpha[:, None, None]
    u = _step_adjoint(w, weights, al)
    d1_u = (ratios[:, :q].reshape(grids, q, -1) @ u.reshape(grids, -1, 1))[..., 0]
    second[:, 0] += d1_u
    second[:, :, 0] += d1_u
    second[:, 0, 0] -= _step_adjoint(u, weights, al, out=w).reshape(grids, -1).sum(axis=-1)
    d_a = (big_g @ phi[..., None])[..., 0]
    g_phi = g - (phi[:, None] @ g[..., None])[..., 0]
    big_g_phi = big_g - d_a[..., None]
    hess = np.empty((grids, m + q - 1, m + q - 1))
    hess[:, :m, :m] = (second[:, :1, :1] + (big_g_phi[:, 0, :, None] + big_g_phi[:, :1]) / al
                       - (g_phi[..., None] + g_phi[:, None]) / al**2)
    hess[:, :m, m:] = big_g_phi[:, 1:].swapaxes(1, 2) / al + second[:, :1, 1:]
    hess[:, m:, :m] = hess[:, :m, m:].swapaxes(1, 2)
    hess[:, m:, m:] = second[:, 1:, 1:]
    return np.concatenate([d_a[:, :1] + g_phi / alpha[:, None], d_a[:, 1:]], axis=1), hess


def _pass_tables(m, q):
    """Tracemalloc peak of a pass over m lags and q - 1 innovation parameters,
    in tables: L (then A), q + q (q+1) / 2 ratio tables, the m lag weights,
    and one more, a ``bincount`` or w."""
    return (1 + q + q * (q + 1) // 2) + m + 1


def _step_adjoint(w, weights, alpha, out=None):
    """The adjoint u, <step R, w> = <R, u>, of the alpha step of a ratio
    table, step R = n (R[n-1, x-1] (1 - A) / alpha - R[n-1, x] A / (1 -
    alpha)), the ratio to C of d(R C)/dalpha by thinning, with the weights
    A (grid, n, x), written to ``out`` if given; it overwrites ``w``."""
    u = np.empty_like(w) if out is None else out
    u[:, -1] = 0.0
    w[:, 1:] *= np.arange(1, w.shape[1])[:, None]
    np.multiply(w[:, 1:], weights[:, 1:], out=u[:, :-1])
    w[:, 1:] -= u[:, :-1]
    u[:, :-1] /= alpha - 1.0
    u[:, :-1, :-1] += w[:, 1:, 1:] / alpha
    return u


def _derivative_ratios(table, alphas, innovations, x_max):
    """The ratio tables of a pass, from the stacked L = ``table`` (grid, n,
    x), which it overwrites with the weights A = (1 - alpha) C[n-1, x] /
    C[n, x]; grid r has thinning probability ``alphas[r]``, innovation law
    ``innovations[r]`` and its own columns to ``x_max[r]``, the rest
    padding.

    The innovation PMF e moves as de/da = e * h_a and d2e/da da' = e * (h_a
    * h_a' + hh_aa'), (h, hh) its ``derivative_series``; thinning commutes
    with convolution, so the tables are sum_k s[k] C[n, x-k] / C[n, x], by
    Horner's rule in exp(L[n, x-1] - L[n, x]) over every row where the
    series end by k = 2 (Poisson: fewer calls than thinning), else over row
    0, thinned by A and 1 - A.  One ``_ratio_series`` call gives every
    grid's series; a grid reads them to its x_max, so where they end and its
    rule are those of its pass alone.  Returns, per grid, dC/da / C, a =
    (alpha, *param_names), the first with alpha's step n ((1 - A) / alpha -
    A / (1 - alpha)), then d2C/da db / C less that step, for a <= b.
    """
    stack, rows, width = table.shape
    series = type(innovations[0])._ratio_series(innovations, width)
    ends = np.minimum(np.where(series.any(axis=1), np.arange(width), 0).max(axis=1), x_max)
    horner = []
    for over_rows in (True, False):
        # Horner's rule over every row for the grids whose series end by k = 2
        grids = np.flatnonzero((ends <= 2) == over_rows)
        if not grids.size:
            continue
        at = slice(None) if grids.size == stack else grids
        low, high = ends[at].min(), ends[at].max()
        n_rows = rows if over_rows else 1
        back = np.exp(table[at, :n_rows, :-1] - table[at, :n_rows, 1:])[:, None]
        terms = series[at][:, :, None]
        part = np.zeros((grids.size, series.shape[1], n_rows, width))
        for k in range(high, -1, -1):
            if k > low:  # a grid whose series end before k takes no step
                np.multiply(part[..., k + 1:], back[..., :width - k - 1],
                            out=part[..., k + 1:], where=(ends[at] >= k)[:, None, None, None])
            else:
                part[..., k + 1:] *= back[..., :width - k - 1]
            part[..., k:] += terms[..., k:k + 1]
        horner.append((at, part, not over_rows))
    alpha = alphas[:, None, None]
    move = np.zeros_like(table)
    move[:, 1:, 1:] = np.exp(table[:, :-1, :-1] - table[:, 1:, 1:] + np.log(alpha))
    table[:, 1:] = np.exp(table[:, :-1] - table[:, 1:] + np.log1p(-alpha))
    table[:, :, 0] = 1.0
    # grids of one rule take its tables as the ratios, and the pass holds
    # them once (``_pass_tables``); grids of both rules copy theirs in
    ratios = None if len(horner) == 1 else np.empty((stack, series.shape[1], rows, width))
    for at, part, thin in horner:
        if thin:
            part = thinning_convolution_table(
                None, part[:, :, 0], rows - 1,
                (table[at].swapaxes(0, 1)[:, :, None],
                 move[at, :, 1:].swapaxes(0, 1)[:, :, None]))
        if ratios is None:
            ratios = part
        else:
            ratios[at] = part
    move /= alpha
    move -= table / (1.0 - alpha)
    ratios[:, 0] += move * np.arange(rows)[:, None]
    return ratios


def _box_start(theta, extra, lo):
    """The start in the box coordinates v = (w, log mu_eps, rest): theta_k
    >= 1e-4 summing to at most 0.999, mu_eps in [1e-4, 1e12], the rest >=
    ``lo``: a point of the model's domain, where every pass is finite."""
    theta = np.clip(np.nan_to_num(np.asarray(theta, dtype=float)), 1e-4, None)
    theta *= min(1.0, 0.999 / theta.sum())
    mu_eps = min(extra[0], 1e12) if 1e-4 <= extra[0] < np.inf else 1e-4
    v = np.concatenate([theta / (1.0 - theta.sum()), [np.log(mu_eps)],
                        np.asarray(extra[1:], dtype=float)])
    return np.where(np.isfinite(v) & (v >= lo), v, lo)


def _natural(v, m):
    """(theta, innovation parameters) at the box point v, and 1 - alpha."""
    one_minus = 1.0 / (1.0 + v[:m].sum())
    return np.concatenate([v[:m] * one_minus, [np.exp(min(v[m], 700.0))],
                           v[m + 1:]]), one_minus


def _box_point(result, vec, one_minus, m):
    """(loglik, score, Hessian, natural vector, natural Hessian) at the box
    point whose ``_natural`` is (``vec``, ``one_minus``), from the pass
    ``result`` there, or None where any is not finite: theta = (1 - alpha) w
    moves by (1 - alpha) (I - theta 1^T) dw, with curvature (1 - alpha)**2
    (2 g.theta - g_i - g_j), and mu_eps = e^v by mu_eps dv, with g mu_eps."""
    loglik, score, hess = result
    if score is None or not np.isfinite(hess).all():
        return None
    theta, g = vec[:m], score[:m]
    jac = np.eye(vec.size)
    jac[:m, :m] = one_minus * (np.eye(m) - theta[:, None])
    jac[m, m] = vec[m]
    curv = np.zeros_like(hess)
    curv[:m, :m] = one_minus**2 * (2.0 * (g @ theta) - g[:, None] - g)
    curv[m, m] = score[m] * vec[m]
    return loglik, jac.T @ score, jac.T @ hess @ jac + curv, vec, hess


def _trust_step(lam, vecs, gq, radius):
    """(p, on the sphere) maximising g.p - p.B.p / 2 over |p| <= radius, for
    B = vecs diag(lam) vecs^T, lam ascending, gq = vecs^T g (More &
    Sorensen 1983): the Newton step if B > 0 and it fits, else p(s) = (B +
    s I)^-1 g with |p(s)| = radius, by Newton's method on the concave
    1/|p(s)|, or, in the hard case, onto the sphere along lam_0 < 0."""
    shift = 0.0 if lam[0] > 0.0 else -lam[0] + _EPS * max(1.0, -lam[0], lam[-1])
    step = vecs @ (gq / (lam + shift))
    norm = float(np.linalg.norm(step))
    if norm <= radius:
        tau = np.sqrt(radius**2 - norm**2) if lam[0] < 0.0 else 0.0
        return step + tau * vecs[:, 0], lam[0] < 0.0
    for _ in range(50):
        inv = 1.0 / (lam + shift)
        norm = float(np.sqrt(np.sum((gq * inv) ** 2)))
        if abs(norm - radius) <= 1e-10 * radius:
            break
        shift += (norm - radius) / radius * norm**2 / np.sum(gq**2 * inv**3)
    return vecs @ (gq / (lam + shift)), True


def _scaled_eigh(hess, free):
    """Ascending eigenvalues and eigenvectors of -``hess`` on the ``free``
    coordinates, scaled by 1 / sqrt(max(|H_ii|, 1)), and that scale."""
    neg = -hess if free.all() else -hess[free][:, free]
    scale = 1.0 / np.sqrt(np.maximum(np.abs(neg.diagonal()), 1.0))
    lam, vecs = np.linalg.eigh(neg * (scale[:, None] * scale))
    return lam, vecs, scale


def _box_search(v, lo, m):
    """The search of ``cml_estimate`` from ``v`` over the box v >= ``lo``, as
    a generator: it yields each point it needs evaluated, ``v`` first, is
    sent back its ``_box_point`` (None where that is not finite), and
    returns (last accepted point, mask held on a bound, largest scaled
    projected score, trial points, stop reason)."""
    point = yield v
    on_bound = np.where(np.arange(v.size) < m, _W_FLOOR, lo)
    radius, n_iter, fresh = _RADIUS0, 0, True
    while True:
        if fresh:
            loglik, grad, hess = point[:3]
            held = (v <= on_bound) & (grad < 0.0)
            scaled = np.abs(grad) * np.maximum(1.0, np.abs(v))
            flat = held & (scaled <= _GTOL)
            if flat.any() and v[:m].sum() <= _W_FLOOR:
                # the stand-in's w rows are not usable: read the curvature
                # at every w = _W_PROBE
                probe = yield np.where(np.arange(v.size) < m, _W_PROBE, v)
                n_iter += 1
                hess = hess if probe is None else probe[2]
            free, fresh = ~held | flat, False
            lam, vecs, scale = _scaled_eigh(hess, free)
            # a saddle of the face: the likelihood is convex along a direction
            # through held coordinates of about zero score, beyond the
            # rounding of the scaled Hessian, so they are released and the
            # step goes inward along that direction
            released = flat.any() and lam[0] < -np.sqrt(_EPS) * max(1.0, -lam[0], lam[-1])
            if released:
                if vecs[flat[free], 0].sum() < 0.0:
                    vecs[:, 0] *= -1.0
                held &= ~flat
            elif flat.any():
                free = ~held
                lam, vecs, scale = _scaled_eigh(hess, free)
            grad_norm = float(scaled[free].max())
            gq = vecs.T @ (grad[free] * scale)
            if released:  # the released scores are about 0: step inward
                gq[0] = abs(gq[0])
            elif grad_norm <= _GTOL:
                message = "projected score below tolerance"
                break
            elif lam[0] > 0.0 and gq @ (gq / lam) < 2 * _GAIN_RTOL * (1 + abs(loglik)):
                message = "Newton step gain below tolerance"
                break
        if n_iter >= _MAX_ITER:
            message = f"iteration limit ({_MAX_ITER} trial points) reached"
            break
        n_iter += 1
        step, on_sphere = _trust_step(lam, vecs, gq, radius)
        trial = np.where(held, lo, v)
        trial[free] = np.maximum(v[free] + step * scale, lo[free])
        if not trial[:m].any():  # the corner alpha = 0: its stand-in
            trial[np.argmax(grad[:m])] = _W_FLOOR
        s = trial - v
        gain = grad @ s + 0.5 * s @ hess @ s
        new = (yield trial) if gain > 0.0 else None
        rho = -np.inf if new is None else (new[0] - loglik) / gain
        if rho < 0.25:
            radius *= 0.25
        elif rho > 0.75 and on_sphere:
            radius *= 2.0
        if rho > 0.15:
            v, point, fresh = trial, new, True
        elif radius * scale.max() < _EPS * max(np.abs(v).max(), 1.0):
            message = "trust radius below the rounding of the point"
            break
    return point, held, grad_norm, n_iter, message


def _lockstep(likelihoods, starts, lo, m):
    """``_box_search`` over each likelihood from its start, in lockstep: a
    round evaluates every search's pending point in one ``_Stack`` pass of
    the grids whose point lies in the model's domain, and sends each its
    ``_box_point``.  Returns the searches' results, in order."""
    searches = [_box_search(v, lo, m) for v in starts]
    pending = {r: next(search) for r, search in enumerate(searches)}
    results, live, stack = [None] * len(searches), list(pending), _Stack(likelihoods)
    while pending:
        natural = {r: _natural(v, m) for r, v in pending.items()}
        laws = {r: _law_at(likelihoods[r].family, natural[r][0], m) for r in pending}
        now = [r for r in pending if laws[r] is not None]
        if now and now != live:
            live = now
            stack.arrange(now)
        passes = dict(zip(now, stack.value_score_hessian(
            [natural[r][0] for r in now], [laws[r] for r in now]))) if now else {}
        for r in list(pending):
            point = _box_point(passes.get(r, (-np.inf, None, None)), *natural[r], m)
            try:
                pending[r] = searches[r].send(point)
            except StopIteration as stop:
                results[r] = stop.value
                del pending[r]
    return results


def _moment_dispersion(grid, alpha):
    """Innovation dispersion implied by the sample variance at a given alpha."""
    mu_eps = float(np.mean(grid.values)) * (1.0 - alpha)
    sigma2_eps = sample_acvf(grid, 0, 0) * (1.0 - alpha**2) - alpha * mu_eps
    if mu_eps <= 0 or not np.isfinite(sigma2_eps):
        return 1.5
    return sigma2_eps / mu_eps


def _initial_point(grid, order, family, init):
    """CLS start, falling back to YW, falling back to a neutral interior point.

    Returns theta and the innovation parameters of ``family``, possibly
    inadmissible; a missing dispersion comes from the sample variance.
    """
    m = order.n_lags
    fit = init
    for estimator in (cls_estimate, yw_estimate):
        if fit is None:
            try:
                fit = estimator(grid, order)
            except CinarError:
                pass
    if fit is None:
        theta, i_eps = np.full(m, 0.3 / m), 1.5
        mu_eps = max(float(np.mean(grid.values)) * 0.7, 1e-2)
    else:
        theta, mu_eps, i_eps = np.asarray(fit.theta, dtype=float), fit.mu_eps, fit.i_eps
    if theta.size != m:
        raise ValidationError(
            f"init has {theta.size} dependence coefficients, order needs {m}")
    if i_eps is None and "i_eps" in family.param_names:
        i_eps = _moment_dispersion(grid, float(np.clip(np.sum(theta), 0.0, 0.99)))
    start = {"mu_eps": mu_eps, "i_eps": i_eps}
    return theta, [start[name] for name in family.param_names]


def _parse_fix_zero(fix_zero, order):
    """Indices into the lag set for coefficients pinned to zero."""
    lags = list(order.lags)
    fixed = []
    for item in fix_zero:
        if isinstance(item, str):
            digits = re.fullmatch(r"theta_?(\d)(\d)", item)
            if digits is None:
                raise ValidationError(
                    f"cannot parse fixed coefficient {item!r}; use e.g. 'theta_01'")
            lag = (int(digits[1]), int(digits[2]))
        else:
            lag = tuple(_whole(i, "fixed coefficient lag", 0) for i in item)
        if lag not in lags:
            raise ValidationError(
                f"fixed coefficient {item!r} is not a lag of order "
                f"({order.p1},{order.p2})"
            )
        if lags.index(lag) in fixed:
            raise ValidationError(
                f"coefficient theta_{lag[0]}{lag[1]} is fixed twice ({item!r})")
        fixed.append(lags.index(lag))
    fixed.sort()
    if len(fixed) >= len(lags):
        raise ValidationError("cannot fix every dependence coefficient to zero")
    return fixed


def cml_estimate(grid, order, family="poisson", init=None, fix_zero=()):
    """Maximum conditional likelihood over the closed constraint region.

    The search runs over the box v = (w, log mu_eps, i_eps) >= (0, -inf,
    1), w = theta / (1 - alpha), from the CLS (fallback YW, fallback
    neutral) start or from ``init``.  theta_ij = 0 and i_eps = 1, where the
    NB law is Poisson, are faces; alpha -> 1 and mu_eps -> 0, the
    perfect-fit corners, lie at infinity.  Each iteration holds the
    coordinates on their bound whose score pushes outward, takes a
    trust-region Newton step on the exact observed information of the
    others and projects it onto the box, so a face is reached exactly; a
    held score within the tolerance below is released where the likelihood
    is convex along a direction through it beyond the rounding of the
    Hessian, and the step goes inward.  A trial point costs one likelihood
    pass, finite wherever the model is; one outside its domain, or whose
    Hessian overflows, is refused.  The
    search stops at a Newton gain under 1e-12 (1 + |loglik|), a scaled
    projected score under 1e-6, a trust radius below the rounding of the
    point, or 200 trial points.  The standard errors reuse the last
    Hessian; at held coordinates, named by ``diagnostics.at_bounds`` and
    ``se_error``, they are withheld, as the usual asymptotics fail on a
    bound (Self & Liang 1987, JASA 82:605-610).  Raises ValidationError
    when the grid has no more interior sites than free parameters.
    ``fix_zero`` names lag coefficients pinned to exactly 0, e.g.
    ``("theta_11",)`` or ``[(1, 1)]``: they leave the free parameters and
    the information criteria, and carry zero standard error.
    """
    fit, = _cml_fits([grid], order, family, [init], fix_zero)
    if isinstance(fit, CinarError):
        raise fit
    return fit


def _cml_fits(grids, order, family="poisson", inits=None, fix_zero=()):
    """``cml_estimate`` of each of ``grids`` (from ``inits[r]``, default
    None), per grid its FitResult or the CinarError that refused it.

    The searches run in ``_lockstep``, in batches of consecutive grids
    whose likelihoods are built just before their searches and released
    after.  A batch of several grids is cut where it would hold more than
    ``_STACK_CELLS`` cells, counting the grids given, which stay held
    throughout: its tables, ``_pass_tables`` tables per grid at the
    ``_padded`` shape of its largest counts twice (the stack's set and the
    copies a ``_Stack._block`` of one group may take), and its per-tuple
    arrays, 3 m + q + 6 per tuple for m lags and q - 1 innovation
    parameters (site rows, gather indices, the tuples and four
    temporaries).  A grid's fit does not depend on the others: it is
    bit-identical to that of the grid alone.
    """
    family = innovation_family(family)
    m = order.n_lags
    fixed_idx = _parse_fix_zero(fix_zero, order)
    free_idx = np.array([k for k in range(m) if k not in fixed_idx], dtype=int)
    m_free = free_idx.size
    n_free = m_free + len(family.param_names)
    names = tuple(order.theta_names()[k] for k in free_idx) + family.param_names
    lower = np.concatenate([np.zeros(m_free), family.lower_bounds])
    lo = np.where(np.arange(lower.size) == m_free, -np.inf, lower)  # log mu_eps
    fits = [None] * len(grids)

    def fit(batch):
        outcomes = _lockstep([likelihood for _, likelihood, _ in batch],
                             [v for _, _, v in batch], lo, m_free)
        for (r, likelihood, _), outcome in zip(batch, outcomes):
            try:
                fits[r] = _cml_result(grids[r], order, family, likelihood, outcome,
                                      free_idx, names, lower, lo)
            except CinarError as exc:
                fits[r] = exc

    budget = _STACK_CELLS - sum(grid.values.size for grid in grids)
    batch, n_max, x_max, tuples = [], 0, 0, 0
    for r, (grid, init) in enumerate(zip(grids, inits or [None] * len(grids))):
        try:
            likelihood = _CmlLikelihood(grid.values, order, family, lags=free_idx)
            if likelihood.n_sites <= n_free:
                raise ValidationError(
                    "CML needs more interior sites than free parameters: the grid"
                    f" has {likelihood.n_sites} interior site(s) for {n_free} free"
                    " parameters")
            theta0, extra0 = _initial_point(grid, order, family, init)
        except CinarError as exc:
            fits[r] = exc
            continue
        n_max, x_max = max(n_max, likelihood.n_max), max(x_max, likelihood.x_max)
        tuples += likelihood.sites.size
        cells = (_padded(n_max + 1) * _padded(x_max + 1) * likelihood.tables * 2 * (len(batch) + 1)
                 + (3 * m_free + len(family.param_names) + 7) * tuples)
        if batch and cells > budget:
            fit(batch)
            batch, n_max, x_max = [], likelihood.n_max, likelihood.x_max
            tuples = likelihood.sites.size
        batch.append((r, likelihood, _box_start(theta0[free_idx], extra0, lo)))
    if batch:
        fit(batch)
    return fits


def _cml_result(grid, order, family, likelihood, outcome, free_idx, names,
                lower, lo):
    """The FitResult of a finished ``_box_search``, whose result is ``outcome``."""
    point, held, grad_norm, n_iter, message = outcome
    m, m_free = order.n_lags, free_idx.size
    loglik_max, _, _, vec_free, hess_nat = point
    at_bounds = tuple(names[i] for i in np.flatnonzero(held))
    theta, extra = np.zeros(m), vec_free[m_free:]
    theta[free_idx] = vec_free[:m_free]
    estimates = np.concatenate([theta, extra])
    params_hat = CinarParams(order, theta, family.from_params(extra, theta.sum()))

    std_errors, se_error = np.zeros(estimates.size), None
    try:
        if at_bounds:
            raise NumericalError("estimate on the constraint boundary ({})".format(
                ", ".join(f"{names[i]} = {lo[i]:.9g}" for i in np.flatnonzero(held))))
        free_at = np.concatenate([free_idx, np.arange(m, estimates.size)])
        std_errors[free_at] = _se_from_loglik(hess_nat, vec_free, lower)
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
            n_iter=n_iter, grad_norm=grad_norm,
            converged=(grad_norm <= 1e-5 * (1.0 + abs(loglik_max))
                       and not message.startswith("iteration limit")),
            n_fev=likelihood.n_fev, n_grad=likelihood.n_fev,
            message=message, se_error=se_error, at_bounds=at_bounds,
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
