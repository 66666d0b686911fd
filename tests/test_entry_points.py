"""Every entry point: one parameter check with one message, one public surface."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import cinar
from cinar import (
    CinarParams,
    CountGrid,
    ModelOrder,
    NbMarginalInnovation,
    PoissonInnovation,
    SignPattern,
    SimConfig,
    ValidationError,
    cml_loglik,
    conditional_pmf,
    pearson_residuals,
    pit_histogram,
    simulate_cinar,
    simulate_tobit_cinar,
    stationary_moments,
    theoretical_acf,
    validate_params,
)

_ORDER = ModelOrder(1, 1)
_GRID = CountGrid(np.random.default_rng(0).poisson(2.0, (12, 12)))

# one bad point per constraint, with the violation it names
_BAD_POINTS = {
    "alpha-at-least-1": (
        CinarParams(_ORDER, [0.5, 0.4, 0.3], PoissonInnovation(1.0)),
        "sum of theta must be < 1, got 1.2"),
    "negative-theta": (
        CinarParams(_ORDER, [0.3, -0.1, 0.2], PoissonInnovation(1.0)),
        "negative coefficient: every theta[i,j] must be >= 0"),
    "nb-for-another-alpha": (
        CinarParams(_ORDER, [0.2, 0.2, 0.2],
                    NbMarginalInnovation.from_targets(1.0, 2.0, alpha=0.3)),
        "innovation law was built for thinning probability 0.3 but theta"
        " implies 0.6"),
}

_ENTRY_POINTS = {
    "simulate_cinar": lambda p: simulate_cinar(SimConfig(p, 10, 10, seed=1)),
    "simulate_tobit_cinar": lambda p: simulate_tobit_cinar(
        SimConfig(p, 10, 10, seed=1, signs=SignPattern(_ORDER, [1, 1, -1]))),
    "stationary_moments": stationary_moments,
    "conditional_pmf": lambda p: conditional_pmf(p, [1, 2, 3]),
    "theoretical_acf": lambda p: theoretical_acf(p, (2, 2)),
    "cml_loglik": lambda p: cml_loglik(p, _GRID),
    "pearson_residuals": lambda p: pearson_residuals(p, _GRID),
    "pit_histogram": lambda p: pit_histogram(p, _GRID),
}


@pytest.mark.parametrize("point", sorted(_BAD_POINTS))
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_every_entry_point_refuses_with_the_validate_params_message(entry, point):
    """Each entry point refuses exactly what validate_params refuses, with
    its violations after "invalid parameters:"."""
    params, violation = _BAD_POINTS[point]
    verdict = validate_params(params)
    assert not verdict and violation in verdict.violations
    with pytest.raises(ValidationError) as info:
        _ENTRY_POINTS[entry](params)
    assert str(info.value) == "invalid parameters: " + "; ".join(verdict.violations)


def test_package_exports_the_library_modules_names():
    """``cinar.__all__`` is the union of the public modules' ``__all__``
    (the CLI aside), each name once."""
    names = set()
    for module in pkgutil.iter_modules(cinar.__path__):
        if module.name.startswith("_") or module.name == "cli":
            continue
        names.update(importlib.import_module(f"cinar.{module.name}").__all__)
    assert len(cinar.__all__) == len(set(cinar.__all__))
    assert set(cinar.__all__) == names
    assert all(hasattr(cinar, name) for name in names)


def test_readme_lists_each_modules_api():
    """README's per-module list of the public API is each module's
    ``__all__``, in order, and names every library module."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("The public API, `cinar.__all__`", 1)[1]
    block = block.split("\n\n", 2)[1]
    listed = {}
    for item in ("\n" + block).split("\n- ")[1:]:
        module, *names = re.findall(r"`(\w+)`", item)
        listed[module] = names
    modules = [m.name for m in pkgutil.iter_modules(cinar.__path__)
               if not m.name.startswith("_") and m.name != "cli"]
    assert sorted(listed) == sorted(modules)
    for module, names in listed.items():
        assert names == importlib.import_module(f"cinar.{module}").__all__, module


# every callable of ``cinar.__all__`` (the exception types aside) by its
# parameters, annotations dropped
_SIGNATURES = {
    "ModelOrder": "(p1, p2)",
    "CinarParams": "(order, theta, innovation)",
    "SignPattern": "(order, signs)",
    "CountGrid": "(values)",
    "ParamsVerdict": "(ok, violations=<factory>)",
    "validate_params": "(params)",
    "stationary_moments": "(params)",
    "PoissonInnovation": "(mu)",
    "NbMarginalInnovation": "(nu, pi, alpha)",
    "innovation_family": "(name)",
    "innovation_from_estimates": "(estimates, alpha)",
    "SimConfig": "(params, n1, n2, burn_in=100, seed=0, signs=None)",
    "simulate_cinar": "(config)",
    "simulate_tobit_cinar": "(config)",
    "AcfTable": "(window, values)",
    "sample_acvf": "(grid, k, l)",
    "sample_acf": "(grid, window)",
    "theoretical_acf": "(params, window)",
    "acf_closed_form_11": "(params)",
    "FitResult": ("(method, names, estimates, admissible, diagnostics,"
                  " std_errors=None, loglik=None, aic=None, bic=None)"),
    "FitDiagnostics": ("(n_iter, converged, grad_norm=None, n_fev=0, n_grad=0,"
                       " message=None, se_error=None, at_bounds=())"),
    "yw_estimate": "(grid, order)",
    "cls_estimate": "(grid, order)",
    "cml_loglik": "(params, grid)",
    "cml_estimate": "(grid, order, family='poisson', init=None, fix_zero=())",
    "ConditionalPmf": "(support_max, probs, mean, variance)",
    "PearsonResiduals": "(values, mean, variance, acf)",
    "DiagnosticsReport": ("(residual_mean, residual_variance, residual_acf,"
                          " pit_bins, aic, bic)"),
    "conditional_pmf": "(params, past)",
    "conditional_moments": "(params, past)",
    "tobit_conditional_pmf": "(params, signs, past)",
    "pearson_residuals": "(params, grid)",
    "pit_histogram": "(params, grid, bins=10)",
    "information_criteria": "(loglik_max, n_params, n1, n2, n_ell)",
    "build_diagnostics": "(params, grid, loglik_max=None, n_params=None, bins=10)",
    "read_grid": "(path, header=False)",
    "write_grid": "(grid, path)",
    "StudyArm": "(label, method, order=None, family=None)",
    "StudyResult": ("(n1, n2, label, n_reps, n_failed, names, means, sds,"
                    " n_nonconverged=0, failures=())"),
    "parse_arm": "(tag)",
    "run_study": ("(params, sizes, arms, reps, master_seed=0, burn_in=100,"
                  " threads=1)"),
    "write_study_csv": "(results, path_or_buf)",
}

# the public methods and properties the exported classes define (none
# inherited from outside the package); classes with none are left out
_METHODS = {
    "ModelOrder": ("lags", "n_lags", "theta_names"),
    "CinarParams": ("alpha", "phi"),
    "CountGrid": ("n1", "n2"),
    "PoissonInnovation": ("derivative_series", "from_params", "moments",
                          "pmf_table", "quantile", "sample"),
    "NbMarginalInnovation": ("derivative_series", "from_params", "from_targets",
                             "moments", "nu", "pi", "pmf_table", "quantile",
                             "sample"),
    "AcfTable": ("to_csv", "value"),
    "FitResult": ("alpha", "i_eps", "mu_eps", "n_theta", "theta"),
    "ConditionalPmf": ("from_probs",),
}


def public_methods(cls):
    """Names of the public functions, class and static methods and
    properties that ``cls`` and its cinar bases define."""
    return tuple(sorted({
        name for klass in cls.__mro__ if klass.__module__.startswith("cinar")
        for name, value in vars(klass).items()
        if not name.startswith("_") and (inspect.isfunction(value) or isinstance(
            value, (classmethod, staticmethod, property)))}))


def test_public_signatures_are_the_snapshot():
    """Each exported callable takes exactly the snapshot's parameters: an
    option added or dropped shows here."""
    got = {}
    for name in cinar.__all__:
        obj = getattr(cinar, name)
        if isinstance(obj, type) and issubclass(obj, BaseException):
            continue
        sig = inspect.signature(obj)
        got[name] = str(sig.replace(
            parameters=[p.replace(annotation=p.empty) for p in sig.parameters.values()],
            return_annotation=sig.empty))
    assert got == _SIGNATURES


def test_public_methods_are_the_snapshot():
    """The exported classes' public methods and properties are the
    snapshot's: a method added or dropped shows here."""
    got = {name: public_methods(getattr(cinar, name)) for name in cinar.__all__
           if isinstance(getattr(cinar, name), type)}
    assert {name: names for name, names in got.items() if names} == _METHODS
