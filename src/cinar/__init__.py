"""Count random fields on regular 2-D grids.

Simulation, estimation (moment, least-squares, and likelihood based), and
diagnostics for unilateral thinning-based count autoregressions with
Poisson or negative-binomial marginals, plus a censored (signed) variant.
"""

from .errors import CinarError, NumericalError, ValidationError
from .model import (
    CinarParams,
    CountGrid,
    ModelOrder,
    ParamsVerdict,
    SignPattern,
    stationary_moments,
    validate_params,
)
from .innovations import (
    NbMarginalInnovation,
    PoissonInnovation,
    innovation_family,
    innovation_from_estimates,
)
from .simulate import SimConfig, simulate_cinar, simulate_tobit_cinar
from .acf import (
    AcfTable,
    acf_closed_form_11,
    sample_acf,
    sample_acvf,
    theoretical_acf,
)
from .estimate import (
    FitDiagnostics,
    FitResult,
    cls_estimate,
    cml_estimate,
    cml_loglik,
    yw_estimate,
)
from .diagnose import (
    ConditionalPmf,
    DiagnosticsReport,
    PearsonResiduals,
    build_diagnostics,
    conditional_moments,
    conditional_pmf,
    information_criteria,
    pearson_residuals,
    pit_histogram,
    tobit_conditional_pmf,
)
from .gridio import read_grid, write_grid
from .simstudy import (
    StudyArm,
    StudyResult,
    parse_arm,
    run_study,
    write_study_csv,
)

__all__ = [
    "CinarError",
    "ValidationError",
    "NumericalError",
    "ModelOrder",
    "CinarParams",
    "SignPattern",
    "CountGrid",
    "ParamsVerdict",
    "validate_params",
    "stationary_moments",
    "PoissonInnovation",
    "NbMarginalInnovation",
    "innovation_family",
    "innovation_from_estimates",
    "SimConfig",
    "simulate_cinar",
    "simulate_tobit_cinar",
    "AcfTable",
    "sample_acvf",
    "sample_acf",
    "theoretical_acf",
    "acf_closed_form_11",
    "FitResult",
    "FitDiagnostics",
    "yw_estimate",
    "cls_estimate",
    "cml_loglik",
    "cml_estimate",
    "ConditionalPmf",
    "PearsonResiduals",
    "DiagnosticsReport",
    "conditional_pmf",
    "conditional_moments",
    "tobit_conditional_pmf",
    "pearson_residuals",
    "pit_histogram",
    "information_criteria",
    "build_diagnostics",
    "read_grid",
    "write_grid",
    "StudyArm",
    "StudyResult",
    "parse_arm",
    "run_study",
    "write_study_csv",
]

__version__ = "0.1.0"
