"""Core model types for count autoregressions on regular 2-D grids.

The model class treats a count field X on an n1 x n2 lattice as a unilateral
autoregression: each site combines *one* binomially thinned past value --
the lag being chosen by a multinomial decision vector with probabilities
phi -- with an additive count innovation,

    X[s,t] = alpha o X[s-i,t-j]   for the single selected lag (i,j),
             + eps[s,t],

where ``alpha o x`` is binomial thinning (a Binomial(x, alpha) draw).  The
canonical parametrization is theta[i,j] = alpha * phi[i,j]; summing theta
over the lag set recovers alpha, and theta is what every estimator reports.

Lag-set convention (public contract): for order (p1, p2) the lag set is

    S = {(i, j) : 0 <= i <= p1, 0 <= j <= p2, (i, j) != (0, 0)}

enumerated lexicographically, i ascending then j ascending.  Every theta
vector, matrix row/column, and CSV column in the package uses this order.
Grids are indexed values[s, t] with s the row index.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

__all__ = [
    "ModelOrder",
    "CinarParams",
    "SignPattern",
    "CountGrid",
    "ParamsVerdict",
    "validate_params",
    "stationary_moments",
]

# ---------------------------------------------------------------------------
# model order and its lag set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelOrder:
    """Autoregressive order (p1, p2) of the field, both >= 1."""

    p1: int
    p2: int

    def __post_init__(self):
        for name in ("p1", "p2"):
            value = _whole(getattr(self, name), f"model order {name}", 1)
            object.__setattr__(self, name, value)

    @property
    def lags(self):
        """The lag set S: the (i, j) pairs with 0 <= i <= p1, 0 <= j <= p2
        and (0, 0) excluded, i ascending then j ascending."""
        return tuple((i, j) for i in range(self.p1 + 1)
                     for j in range(self.p2 + 1) if (i, j) != (0, 0))

    @property
    def n_lags(self):
        return (self.p1 + 1) * (self.p2 + 1) - 1

    def theta_names(self):
        """Coefficient names ("theta_01", "theta_10", ...) in lag order."""
        return tuple(f"theta_{i}{j}" for (i, j) in self.lags)


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CinarParams:
    """Model order, dependence coefficients theta over S, and innovation law.

    Parameters
    ----------
    order : ModelOrder
    theta : array_like
        Coefficients theta[i,j] >= 0 in lexicographic lag order; their sum
        alpha must lie in (0, 1).
    innovation : innovation distribution
        Any object exposing pmf / moments / sample (see `cinar.innovations`)
        with finite, positive mean and variance; an NB law must be built
        for the same alpha as theta.
    """

    order: ModelOrder
    theta: np.ndarray
    innovation: object

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float).copy()
        if theta.shape != (self.order.n_lags,):
            raise ValidationError(
                f"theta must have length {self.order.n_lags} for order "
                f"({self.order.p1},{self.order.p2}), got shape {theta.shape}"
            )
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)

    @property
    def alpha(self):
        """Total thinning probability, sum of theta over the lag set."""
        return float(np.sum(self.theta))

    @property
    def phi(self):
        """Lag-selection probabilities theta / alpha."""
        alpha = self.alpha
        if alpha == 0.0:
            raise ValidationError("degenerate dependence: all theta are zero")
        return self.theta / alpha


@dataclass(frozen=True)
class SignPattern:
    """Signs s(i,j) in {+1, -1} attached to each lag of S (censored model)."""

    order: ModelOrder
    signs: np.ndarray

    def __post_init__(self):
        signs = np.asarray(self.signs, dtype=np.int64).copy()
        if signs.shape != (self.order.n_lags,):
            raise ValidationError(
                f"signs must have length {self.order.n_lags}, got shape {signs.shape}"
            )
        if not np.all(np.isin(signs, (-1, 1))):
            raise ValidationError("signs must be +1 or -1")
        signs.setflags(write=False)
        object.__setattr__(self, "signs", signs)


@dataclass(frozen=True)
class CountGrid:
    """An n1 x n2 matrix of nonnegative integer counts.

    values[s, t] is the count at row s, column t (0-based in code; the
    mathematical indices run from 1).
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 2 or values.size == 0:
            raise ValidationError("grid must be a non-empty 2-D array")
        if not np.issubdtype(values.dtype, np.integer):
            rounded = np.rint(values)
            if not np.all(np.isfinite(values)) or np.any(rounded != values):
                raise ValidationError("grid entries must be integers")
            values = rounded
        values = values.astype(np.int64, copy=True)
        if np.any(values < 0):
            raise ValidationError("grid entries must be nonnegative")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n1(self):
        return self.values.shape[0]

    @property
    def n2(self):
        return self.values.shape[1]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamsVerdict:
    """Outcome of validate_params: ok flag plus the violated constraints."""

    ok: bool
    violations: tuple = field(default_factory=tuple)

    def __bool__(self):
        return self.ok


def validate_params(params):
    """Check every CinarParams invariant; return a verdict, never raise.

    Checks: theta >= 0 componentwise, alpha = sum(theta) in (0, 1), the
    innovation's mean and variance finite and positive, and (for innovation
    laws carrying their own thinning probability) consistency of that alpha
    with the one implied by theta.
    """
    violations = []
    theta = np.asarray(params.theta, dtype=float)
    if np.any(theta < 0):
        violations.append("negative coefficient: every theta[i,j] must be >= 0")
    alpha = float(np.sum(theta))
    if alpha <= 0:
        violations.append("degenerate dependence: sum of theta must be > 0")
    if alpha >= 1:
        violations.append(f"sum of theta must be < 1, got {alpha:.6g}")
    try:
        mu_eps, sigma2_eps = params.innovation.moments()
        if not (np.isfinite(mu_eps) and mu_eps > 0):
            violations.append("innovation mean must be finite and > 0")
        if not (np.isfinite(sigma2_eps) and sigma2_eps > 0):
            violations.append("innovation variance must be finite and > 0")
    except Exception as exc:  # noqa: BLE001 - verdict-returning by contract
        violations.append(f"innovation moments unavailable: {exc}")
    inn_alpha = getattr(params.innovation, "alpha", None)
    if inn_alpha is not None and 0 < alpha < 1 and abs(inn_alpha - alpha) > 1e-8:
        violations.append(
            "innovation law was built for thinning probability "
            f"{inn_alpha:.6g} but theta implies {alpha:.6g}"
        )
    return ParamsVerdict(ok=not violations, violations=tuple(violations))


def _validated(params):
    """Raise ValidationError, listing the violations, unless validate_params
    passes."""
    verdict = validate_params(params)
    if not verdict:
        raise ValidationError("invalid parameters: " + "; ".join(verdict.violations))


def _whole(value, name, low):
    """``value`` as an int >= ``low``.  Integral floats and numpy integers
    are taken; bools and non-integral values are refused."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if isinstance(value, (bool, np.bool_)) or whole is None or whole != value:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if whole < low:
        raise ValidationError(f"{name} must be >= {low}, got {value!r}")
    return whole


def stationary_moments(params):
    """Stationary mean and variance of the field.

    For innovation mean m and variance v, with alpha the total thinning
    probability:

        mu_X     = m / (1 - alpha)
        sigma2_X = (alpha * m + v) / (1 - alpha**2)

    The dispersion ratio transfers monotonically: the field is over-, equi-,
    or under-dispersed exactly as the innovations are.
    """
    _validated(params)
    mu_eps, sigma2_eps = params.innovation.moments()
    alpha = params.alpha
    mu_x = mu_eps / (1.0 - alpha)
    sigma2_x = (alpha * mu_eps + sigma2_eps) / (1.0 - alpha**2)
    return mu_x, sigma2_x


# ---------------------------------------------------------------------------
# lagged views used by estimators and diagnostics
# ---------------------------------------------------------------------------


def lag_views(values, order):
    """Interior counts and, per lag of S, the aligned past counts, as views.

    The interior is every site (s, t) with s > p1 and t > p2 (1-based).
    Returns its (n1-p1, n2-p2) block of ``values`` and a list of same-shape
    views, one per lag in lexicographic order.  Nothing is copied.
    """
    values = np.asarray(values)
    n1, n2 = values.shape
    p1, p2 = order.p1, order.p2
    if n1 <= p1 or n2 <= p2:
        raise ValidationError(
            f"grid {n1}x{n2} too small for order ({p1},{p2}); need n1 > p1 and n2 > p2"
        )
    pasts = [values[p1 - i : n1 - i, p2 - j : n2 - j] for (i, j) in order.lags]
    return values[p1:, p2:], pasts
