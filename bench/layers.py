"""Where the benchmark's spans go in cinar, and the per-layer metrics they give.

``SPECS`` names every call boundary the traced run wraps: the span name, the
module and attribute callers look up, and a function that computes counts
from the call's arguments and result.  ``PER_LAYER`` turns per-operation
totals of those spans into the metrics ``BENCHMARK.json`` lists.

Normalisation: ``*_per_fit``, ``estimate.se.evals``, ``estimate.polish_calls``,
``estimate.converged_ratio`` and ``estimate.se_missing`` are per CML fit;
every other metric is per operation of the workload.  ``flops`` and
``bytes`` are computed from array sizes, not measured, and their units say
so.  A layer that does not run in a workload reports 0.
"""

import os
from collections import Counter, defaultdict

from tracer import COUNTS, END, NAME, OP, START, self_times, within


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _pmf_counts(args, kwargs, result):
    return {"kmax": len(result) - 1}


def _table_counts(args, kwargs, result):
    rows, cols = result.shape
    return {"flops": 2 * rows * rows * cols}


def _gather_counts(args, kwargs, result):
    table = _arg(args, kwargs, 0, "table")
    lagged = _arg(args, kwargs, 1, "lagged")
    x_idx = _arg(args, kwargs, 3, "x_idx")
    # per lag: one column of lagged, the outcome index, one table value;
    # plus the output written once
    moved = (lagged.nbytes + lagged.shape[1] * x_idx.nbytes
             + lagged.size * table.itemsize + result.nbytes)
    return {"lookups": lagged.size, "bytes": moved}


def _optimizer_counts(args, kwargs, result):
    method = args[2] if len(args) > 2 else kwargs.get("method")
    return {"nit": int(result.nit), "polish": int(method == "Nelder-Mead")}


def _fit_counts(args, kwargs, result):
    return {"converged": int(bool(result.diagnostics.converged)),
            "se_missing": int(result.std_errors is None)}


def _study_counts(args, kwargs, result):
    return {"reps_failed": sum(int(row.n_failed) for row in result)}


def _simulate_counts(args, kwargs, result):
    config = _arg(args, kwargs, 0, "config")
    grid = result[0] if isinstance(result, tuple) else result
    n1, n2 = grid.values.shape
    order = config.params.order
    big1, big2 = n1 + config.burn_in, n2 + config.burn_in
    return {"sites": n1 * n2,
            "diagonals": big1 + big2 - 1 - (order.p1 + order.p2)}


def _read_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


SPECS = (
    ("cli", "cinar.cli", "main", None),
    ("gridio.read", "cinar.gridio", "read_grid", _read_counts),
    ("simstudy.run_study", "cinar.simstudy", "run_study", _study_counts),
    ("simulate", "cinar.simulate", "simulate_cinar", _simulate_counts),
    ("simulate", "cinar.simulate", "simulate_tobit_cinar", _simulate_counts),
    ("estimate.yw", "cinar.estimate", "yw_estimate", None),
    ("estimate.cls", "cinar.estimate", "cls_estimate", None),
    ("estimate.cml", "cinar.estimate", "cml_estimate", _fit_counts),
    ("estimate.optimizer", "scipy.optimize", "minimize", _optimizer_counts),
    ("estimate.se", "cinar.estimate", "_se_from_loglik", None),
    ("diagnose.pearson", "cinar.diagnose", "pearson_residuals", None),
    ("diagnose.pit", "cinar.diagnose", "pit_histogram", None),
    ("acf.sample", "cinar.acf", "sample_acf", None),
    ("kernels.table", "cinar._kernels", "thinning_convolution_table",
     _table_counts),
    ("kernels.gather", "cinar._kernels", "mixture_site_values", _gather_counts),
    ("innovations.pmf_table", "cinar.innovations",
     "PoissonInnovation.pmf_table", _pmf_counts),
    ("innovations.pmf_table", "cinar.innovations",
     "NbMarginalInnovation.pmf_table", _pmf_counts),
)


def op_totals(spans):
    """Per op id: span calls, self and total seconds, and summed counts.

    A table build inside ``estimate.cml`` (or ``estimate.se``) also counts as
    one likelihood evaluation of that span.
    """
    selfs = self_times(spans)
    totals = defaultdict(Counter)
    for index, span in enumerate(spans):
        name, into = span[NAME], totals[span[OP]]
        into[name + ".calls"] += 1
        into[name + ".self_s"] += selfs[index]
        into[name + ".total_s"] += span[END] - span[START]
        for key, value in (span[COUNTS] or {}).items():
            into[f"{name}.{key}"] += value
        if name == "kernels.table":
            for owner in ("estimate.cml", "estimate.se"):
                if within(spans, index, owner):
                    into[owner + ".evals"] += 1
    return totals


def op_mean(totals, n_ops):
    """Per-op mean of every total over ``n_ops`` operations.

    Integer counts are summed before the single division, so a count that
    repeats on every op comes out exactly the same however many ops ran.
    """
    sums = Counter()
    for op_id in range(n_ops):
        sums.update(totals.get(op_id, {}))
    return Counter({key: value / n_ops for key, value in sums.items()})


def _per(key, base):
    return lambda v: v[key] / v[base] if v[base] else 0.0


def _fits(key):
    return _per(key, "estimate.cml.calls")


def _get(key):
    return lambda v: v[key]


# (metric name, unit, better, value from per-op mean totals)
PER_LAYER = (
    ("innovations.pmf_table.calls", "count", "lower",
     _get("innovations.pmf_table.calls")),
    ("innovations.pmf_table.self_s", "s", "lower",
     _get("innovations.pmf_table.self_s")),
    ("innovations.pmf_table.kmax_mean", "count", "lower",
     _per("innovations.pmf_table.kmax", "innovations.pmf_table.calls")),
    ("kernels.table.calls", "count", "lower", _get("kernels.table.calls")),
    ("kernels.table.self_s", "s", "lower", _get("kernels.table.self_s")),
    ("kernels.table.flops", "flop-computed", "lower",
     _get("kernels.table.flops")),
    ("kernels.gather.calls", "count", "lower", _get("kernels.gather.calls")),
    ("kernels.gather.self_s", "s", "lower", _get("kernels.gather.self_s")),
    ("kernels.gather.lookups", "count", "lower",
     _get("kernels.gather.lookups")),
    ("kernels.gather.bytes", "B-computed", "lower",
     _get("kernels.gather.bytes")),
    ("estimate.fits", "count", "higher", _get("estimate.cml.calls")),
    ("estimate.evals_per_fit", "count", "lower", _fits("estimate.cml.evals")),
    ("estimate.iters_per_fit", "count", "lower",
     _fits("estimate.optimizer.nit")),
    ("estimate.optimizer.self_s", "s", "lower",
     _get("estimate.optimizer.self_s")),
    ("estimate.se.total_s", "s", "lower", _get("estimate.se.total_s")),
    ("estimate.se.evals", "count", "lower", _fits("estimate.se.evals")),
    ("estimate.polish_calls", "count", "lower",
     _fits("estimate.optimizer.polish")),
    ("estimate.converged_ratio", "ratio", "higher",
     _fits("estimate.cml.converged")),
    ("estimate.se_missing", "ratio", "lower", _fits("estimate.cml.se_missing")),
    ("simulate.calls", "count", "lower", _get("simulate.calls")),
    ("simulate.self_s", "s", "lower", _get("simulate.self_s")),
    ("simulate.sites", "count", "lower", _get("simulate.sites")),
    ("simulate.diagonals", "count", "lower", _get("simulate.diagonals")),
    ("diagnose.pearson.self_s", "s", "lower", _get("diagnose.pearson.self_s")),
    ("diagnose.pit.self_s", "s", "lower", _get("diagnose.pit.self_s")),
    ("acf.sample.self_s", "s", "lower", _get("acf.sample.self_s")),
    ("simstudy.run_study.self_s", "s", "lower",
     _get("simstudy.run_study.self_s")),
    ("simstudy.reps_failed", "count", "lower",
     _get("simstudy.run_study.reps_failed")),
    ("gridio.read.self_s", "s", "lower", _get("gridio.read.self_s")),
    ("gridio.read.bytes", "B", "lower", _get("gridio.read.bytes")),
    ("cli.self_s", "s", "lower", _get("cli.self_s")),
    ("trace.overhead_ratio", "ratio", "lower", _get("trace.overhead")),
)


def layer_metrics(spans, n_ops, overhead):
    """Every PER_LAYER metric from the spans of ``n_ops`` operations.

    ``overhead`` is the traced operations' median wall time per probe over
    that of the untraced ones run after them, minus 1.
    """
    means = op_mean(op_totals(spans), n_ops)
    means["trace.overhead"] = overhead
    return {name: (value(means), unit) for name, unit, _, value in PER_LAYER}
