"""Every entry point: one parameter check with one message, one public surface."""

import importlib
import pkgutil

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
