"""Command-line interface: simulate, fit, acf, diagnose, simstudy.

Every command is deterministic: the same arguments (and seed) produce
byte-identical outputs.  JSON outputs carry a ``schema`` tag and the full
resolved configuration so a result file documents how it was made.
Validation happens before anything is written — a command that rejects
its arguments leaves no partial output behind.

Exit codes: 0 success; 2 invalid arguments or data; 3 numerical failure
(singular systems, undefined quantities); 4 an optimizer did not meet its
convergence criterion (results are still written).
"""

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .acf import sample_acf, theoretical_acf
from .diagnose import build_diagnostics
from .errors import CinarError, NumericalError, ValidationError
from .estimate import cls_estimate, cml_estimate, yw_estimate
from .gridio import read_grid, write_grid
from .innovations import innovation_family, innovation_from_estimates
from .model import CinarParams, ModelOrder, SignPattern
from .simstudy import parse_arm, run_study, write_study_csv
from .simulate import SimConfig, simulate_cinar, simulate_tobit_cinar

__all__ = ["build_parser", "main"]

_SCHEMA = {
    "simulate": "cinar.simulate.v1",
    "fit": "cinar.fit.v1",
    "acf": "cinar.acf.v1",
    "diagnose": "cinar.diagnose.v1",
    "simstudy": "cinar.simstudy.v1",
}


# =============================================================================
# Argument parsing helpers
# =============================================================================


def _parse_int_pair(text, flag):
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != 2:
        raise ValidationError(f"{flag} expects two comma-separated integers,"
                              f" got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ValidationError(f"{flag} expects integers, got {text!r}") from None


def _parse_floats(text, flag):
    try:
        return tuple(float(p) for p in str(text).split(","))
    except ValueError:
        raise ValidationError(f"{flag} expects comma-separated numbers,"
                              f" got {text!r}") from None


def _parse_signs(text):
    signs = []
    for piece in str(text).split(","):
        token = piece.strip()
        if token == "+":
            signs.append(1)
        elif token == "-":
            signs.append(-1)
        else:
            raise ValidationError(
                f"--signs expects comma-separated + or - tokens, got {token!r}"
            )
    return tuple(signs)


def _parse_sizes(text):
    sizes = []
    for piece in str(text).split(";"):
        if piece.strip():
            sizes.append(_parse_int_pair(piece, "--sizes"))
    if not sizes:
        raise ValidationError(f"--sizes expects e.g. '20,20;50,50', got {text!r}")
    return sizes


def _parse_fixes(text):
    """'theta11=0,theta12=0' -> ('theta11', 'theta12')."""
    names = []
    for piece in str(text).split(","):
        token = piece.strip()
        if not token:
            continue
        name, eq, value = token.partition("=")
        if eq and value.strip() not in ("0", "0.0"):
            raise ValidationError(
                f"--fix can only pin coefficients to 0, got {token!r}"
            )
        names.append(name.strip())
    if not names:
        raise ValidationError(f"--fix expects e.g. 'theta11=0', got {text!r}")
    return tuple(names)


def _build_params(args):
    """CinarParams from --order/--theta/--family/--mu-eps/--i-eps flags."""
    p1, p2 = _parse_int_pair(args.order, "--order")
    order = ModelOrder(p1, p2)
    theta = np.asarray(_parse_floats(args.theta, "--theta"), dtype=float)
    family = innovation_family(args.family)
    for name in ("mu_eps", "i_eps"):
        flag = "--" + name.replace("_", "-")
        given = getattr(args, name) is not None
        if given and name not in family.param_names:
            raise ValidationError(f"{flag} does not apply to the {family.name}"
                                  " family")
        if not given and name in family.param_names:
            raise ValidationError(f"the {family.name} family needs {flag}")
    innovation = family.from_params(
        [getattr(args, name) for name in family.param_names], float(theta.sum())
    )
    return CinarParams(order, theta, innovation), family.name


def _write_json(payload, path):
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, allow_nan=False)
        fh.write("\n")


def _jsonable(value):
    """Plain-JSON view: numpy scalars/arrays unwrapped, non-finite -> null."""
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(item) for item in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        number = float(value)
        return number if math.isfinite(number) else None
    return value


# =============================================================================
# simulate
# =============================================================================


def cmd_simulate(args):
    params, family = _build_params(args)
    n1, n2 = _parse_int_pair(args.n, "--n")
    signs = _parse_signs(args.signs) if args.signs else None
    sign_pattern = SignPattern(params.order, signs) if signs else None
    config = SimConfig(params, n1=n1, n2=n2, burn_in=args.burn_in,
                       seed=args.seed, signs=sign_pattern)
    if sign_pattern is None:
        grid = simulate_cinar(config)
    else:
        grid = simulate_tobit_cinar(config)
    write_grid(grid, args.out)
    meta = {
        "schema": _SCHEMA["simulate"],
        "config": {
            "command": "simulate",
            "order": [params.order.p1, params.order.p2],
            "theta": list(params.theta),
            "family": family,
            "mu_eps": args.mu_eps,
            "i_eps": args.i_eps,
            "signs": list(signs) if signs else None,
            "n1": n1,
            "n2": n2,
            "burn_in": args.burn_in,
            "seed": args.seed,
            "out": str(args.out),
        },
    }
    _write_json(meta, Path(args.out).with_suffix(".meta.json"))
    return 0


# =============================================================================
# fit
# =============================================================================


def _fit_dict(fit, n_free_params):
    return {
        "method": fit.method,
        "names": list(fit.names),
        "estimates": fit.estimates,
        "std_errors": fit.std_errors,
        "admissible": fit.admissible,
        "loglik": fit.loglik,
        "aic": fit.aic,
        "bic": fit.bic,
        "n_free_params": n_free_params,
        "diagnostics": dataclasses.asdict(fit.diagnostics),
    }


def cmd_fit(args):
    grid = read_grid(args.grid, header=args.header)
    p1, p2 = _parse_int_pair(args.order, "--order")
    order = ModelOrder(p1, p2)
    methods = []
    for piece in str(args.method).split(","):
        token = piece.strip().lower()
        if token not in ("yw", "cls", "cml"):
            raise ValidationError(
                f"--method accepts yw, cls, cml (comma-separated), got {token!r}"
            )
        methods.append(token)
    fixes = _parse_fixes(args.fix) if args.fix else ()
    if fixes and "cml" not in methods:
        raise ValidationError("--fix applies to the cml method")
    family = innovation_family(args.family).name

    fits = []
    exit_code = 0
    cls_fit = None  # CML starts from it, as it would solve it itself
    for method in methods:
        if method == "yw":
            fit = yw_estimate(grid, order)
            n_free = len(fit.names)
        elif method == "cls":
            fit = cls_fit = cls_estimate(grid, order)
            n_free = len(fit.names)
        else:
            fit = cml_estimate(grid, order, family=family, init=cls_fit,
                               fix_zero=fixes)
            n_free = len(fit.names) - len(fixes)
            if not fit.diagnostics.converged:
                exit_code = 4
        fits.append(_fit_dict(fit, n_free))

    payload = {
        "schema": _SCHEMA["fit"],
        "config": {
            "command": "fit",
            "grid": str(args.grid),
            "header": bool(args.header),
            "order": [p1, p2],
            "methods": methods,
            "family": family,
            "fix": list(fixes),
            "out": str(args.out),
        },
        "fits": fits,
    }
    _write_json(payload, args.out)
    return exit_code


# =============================================================================
# acf
# =============================================================================


def cmd_acf(args):
    window = _parse_int_pair(args.window, "--window")
    if args.grid is not None:
        grid = read_grid(args.grid, header=args.header)
        table = sample_acf(grid, window)
    else:
        if args.order is None or args.theta is None or args.mu_eps is None:
            raise ValidationError(
                "acf needs either --grid or model flags"
                " (--order --theta --mu-eps [--i-eps])"
            )
        params, _ = _build_params(args)
        table = theoretical_acf(params, window)
    table.to_csv(args.out)
    return 0


# =============================================================================
# diagnose
# =============================================================================


def _params_from_fit_file(path, method):
    """Rebuild CinarParams (+ loglik, free-parameter count) from a fit JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read fit file: {exc}") from None
    except ValueError as exc:  # undecodable bytes or malformed JSON
        raise ValidationError(f"{path}: not valid JSON ({exc})") from None
    wanted = method.upper()
    try:
        fits = payload["fits"]
        chosen = next((f for f in fits if f["method"] == wanted), None)
        if chosen is None:
            present = [f["method"] for f in fits]
            raise ValidationError(
                f"{path}: no {wanted} fit in file (has {present})"
            )
        order = ModelOrder(*payload["config"]["order"])
        estimates = {name: float(value)
                     for name, value in zip(chosen["names"], chosen["estimates"])}
        loglik, n_free = chosen.get("loglik"), chosen.get("n_free_params")
        loglik = None if loglik is None else float(loglik)
        n_free = None if n_free is None else int(n_free)
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{path}: not a fit result file"
                              f" ({type(exc).__name__}: {exc})") from None
    theta = np.array([value for name, value in estimates.items()
                      if name.startswith("theta")])
    innovation = innovation_from_estimates(estimates, float(theta.sum()))
    return CinarParams(order, theta, innovation), loglik, n_free


def cmd_diagnose(args):
    grid = read_grid(args.grid, header=args.header)
    if args.params is not None:
        params, loglik, n_free = _params_from_fit_file(args.params, args.method)
    else:
        if args.order is None or args.theta is None or args.mu_eps is None:
            raise ValidationError(
                "diagnose needs either --params or model flags"
                " (--order --theta --mu-eps [--i-eps])"
            )
        params, _ = _build_params(args)
        loglik, n_free = None, None
    report = build_diagnostics(params, grid, loglik_max=loglik,
                               n_params=n_free, bins=args.bins)

    out = Path(args.out)
    acf_path = out.with_suffix(".residual_acf.csv")
    pit_path = out.with_suffix(".pit.csv")
    payload = {
        "schema": _SCHEMA["diagnose"],
        "config": {
            "command": "diagnose",
            "grid": str(args.grid),
            "header": bool(args.header),
            "params": str(args.params) if args.params else None,
            "method": args.method if args.params else None,
            "bins": args.bins,
            "order": [params.order.p1, params.order.p2],
            "theta": list(params.theta),
            "out": str(args.out),
        },
        "report": {
            "residual_mean": report.residual_mean,
            "residual_variance": report.residual_variance,
            "residual_acf_window": list(report.residual_acf.window),
            "residual_acf": report.residual_acf.values,
            "pit_bins": report.pit_bins,
            "aic": report.aic,
            "bic": report.bic,
        },
        "files": {"residual_acf": str(acf_path), "pit": str(pit_path)},
    }
    _write_json(payload, out)
    report.residual_acf.to_csv(acf_path)
    edges = np.linspace(0.0, 1.0, args.bins + 1)
    with open(pit_path, "w", newline="") as fh:
        fh.write("bin_lo,bin_hi,height\r\n")
        for k in range(args.bins):
            fh.write(f"{float(edges[k])!r},{float(edges[k + 1])!r},"
                     f"{float(report.pit_bins[k])!r}\r\n")
    return 0


# =============================================================================
# simstudy
# =============================================================================


def cmd_simstudy(args):
    params, family = _build_params(args)
    sizes = _parse_sizes(args.sizes)
    arms = [parse_arm(tag) for tag in str(args.methods).split(",") if tag.strip()]
    results = run_study(params, sizes, arms, reps=args.reps,
                        master_seed=args.seed, burn_in=args.burn_in,
                        threads=args.threads)
    write_study_csv(results, args.out)
    meta = {
        "schema": _SCHEMA["simstudy"],
        "config": {
            "command": "simstudy",
            "order": [params.order.p1, params.order.p2],
            "theta": list(params.theta),
            "family": family,
            "mu_eps": args.mu_eps,
            "i_eps": args.i_eps,
            "sizes": [list(s) for s in sizes],
            "methods": [arm.label for arm in arms],
            "reps": args.reps,
            "burn_in": args.burn_in,
            "seed": args.seed,
            "threads": args.threads,
            "out": str(args.out),
        },
        "n_nonconverged": [
            {"n1": res.n1, "n2": res.n2, "estimator": res.label,
             "count": res.n_nonconverged}
            for res in results
        ],
        "failures": [
            {"n1": res.n1, "n2": res.n2, "estimator": res.label,
             "reasons": dict(res.failures)}
            for res in results
        ],
    }
    _write_json(meta, Path(args.out).with_suffix(".meta.json"))
    return 0


# =============================================================================
# Parser / entry point
# =============================================================================


def _model_flags(parser, required):
    """The model flags of a command: --order, --theta, --family, --mu-eps
    and --i-eps."""
    parser.add_argument("--order", required=required, metavar="P1,P2")
    parser.add_argument("--theta", required=required, metavar="T01,T10,...")
    parser.add_argument("--family", default="poisson", metavar="poisson|nb")
    parser.add_argument("--mu-eps", type=float, required=required, metavar="MU")
    parser.add_argument("--i-eps", type=float, default=None, metavar="I",
                        help="NB dispersion ratio, >= 1; at 1 the law is Poisson")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cinar",
        description="Count random fields on 2-D grids: simulation,"
                    " estimation, diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a grid to CSV + metadata")
    _model_flags(sim, required=True)
    sim.add_argument("--signs", default=None, metavar="+,+,-",
                     help="censored (Tobit) variant with these lag signs")
    sim.add_argument("--n", required=True, metavar="N1,N2")
    sim.add_argument("--burn-in", type=int, default=100, metavar="B")
    sim.add_argument("--seed", type=int, default=0, metavar="SEED")
    sim.add_argument("--out", required=True, metavar="GRID.csv")
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="fit estimators to a grid, emit JSON")
    fit.add_argument("--grid", required=True, metavar="GRID.csv")
    fit.add_argument("--header", action="store_true",
                     help="skip the first line of the grid CSV")
    fit.add_argument("--order", required=True, metavar="P1,P2")
    fit.add_argument("--method", default="cml", metavar="yw,cls,cml")
    fit.add_argument("--family", default="poisson", metavar="poisson|nb")
    fit.add_argument("--fix", default=None, metavar="theta11=0,...",
                     help="pin named coefficients to zero (cml only)")
    fit.add_argument("--out", required=True, metavar="FIT.json")
    fit.set_defaults(func=cmd_fit)

    acf = sub.add_parser("acf", help="sample or model autocorrelation table")
    acf.add_argument("--grid", default=None, metavar="GRID.csv",
                     help="sample table from a grid (else model flags)")
    acf.add_argument("--header", action="store_true")
    _model_flags(acf, required=False)
    acf.add_argument("--window", default="2,2", metavar="K,L")
    acf.add_argument("--out", required=True, metavar="TABLE.csv")
    acf.set_defaults(func=cmd_acf)

    dia = sub.add_parser("diagnose",
                         help="residual/PIT/IC report for a fitted model")
    dia.add_argument("--grid", required=True, metavar="GRID.csv")
    dia.add_argument("--header", action="store_true")
    dia.add_argument("--params", default=None, metavar="FIT.json",
                     help="fit result file to diagnose (else model flags)")
    dia.add_argument("--method", default="cml", metavar="yw|cls|cml",
                     help="which fit to take from --params")
    _model_flags(dia, required=False)
    dia.add_argument("--bins", type=int, default=10, metavar="B")
    dia.add_argument("--out", required=True, metavar="REPORT.json")
    dia.set_defaults(func=cmd_diagnose)

    study = sub.add_parser("simstudy",
                           help="replication study across sizes/estimators")
    _model_flags(study, required=True)
    study.add_argument("--sizes", required=True, metavar="N1,N2;N1,N2")
    study.add_argument("--methods", default="cml", metavar="yw,cls,cml,cml-1")
    study.add_argument("--reps", type=int, default=200, metavar="R")
    study.add_argument("--burn-in", type=int, default=100, metavar="B")
    study.add_argument("--seed", type=int, default=0, metavar="SEED")
    study.add_argument("--threads", type=int, default=1, metavar="T")
    study.add_argument("--out", required=True, metavar="TABLE.csv")
    study.set_defaults(func=cmd_simstudy)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except CinarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0 if code is None else int(code)


if __name__ == "__main__":
    sys.exit(main())
