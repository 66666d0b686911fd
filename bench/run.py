"""cinar benchmark: replication study, large fit, and simulate-plus-diagnose.

Run from the repository root:

    python3 bench/run.py --workload study-50 --seed 0 --seconds 25 --trace 0

Every workload is a closed loop: one caller, the next operation starts only
after the previous one returns.  Inputs are generated here; cinar only ever
sees the generated inputs.

  study-50      one operation = three ``run_study`` calls at 50x50, threads=1,
                STUDY_REPS replications per cell: Poisson (1,1) with arms
                yw,cls,cml; NB-marginal (1,1) with n-cml,p-cml; Poisson (2,2)
                with cml,cml-1.  Ten small CML fits, where per-call
                overhead dominates: the traffic of the tier-1 suite and of
                ``cinar simstudy``.
  fit-300       one operation = an in-process ``cinar fit`` (yw,cls,cml) of a
                300x300 Poisson (2,2) grid, mu_eps=5, written as CSV at set-up.
                One large fit, dominated by the per-site gather and the
                finite-difference standard errors.
  simdiag-1000  one operation = simulate three 1000x1000 grids (Poisson and
                NB-marginal (1,1), Tobit with signs +,-,+), then Pearson
                residuals and PIT histograms at the true parameters on the
                first two and a 3x3 sample ACF on the first.  The simulator's
                anti-diagonal wavefront and single-pass gathers over 1e6 sites.

``--seed`` makes simdiag-1000's grids.  The two fitting workloads replay fixed
inputs, the ones ``--seed 0`` gives, as the tier-1 suite does: what a fit
costs depends on its grid, by 117 to 584 likelihood evaluations for one
50x50 fit and 462 to 922 for one 300x300 fit, and a run cannot hold enough
fits to average that out, so with seeded fit inputs the run-to-run spread
would measure the inputs rather than the code.

Output: the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones:

  op_per_probe  median over the run's operations of the operation's wall
                time divided by the mean wall time of the workload's probe
                timed right before and after it (see ``probe``);
  setup_s       median over SETUP_REPEATS of ``import cinar`` in a fresh
                interpreter plus generating the inputs here;
  peak_rss_mib  peak resident memory of this process.

The plain median wall time of an operation, ``op_s``, is in the record line:
on a shared machine it drifts with the machine's load by more than a
regression worth catching, and ``op_per_probe`` drifts far less.

With ``--trace 1`` they are the per-layer ones of ``layers.PER_LAYER``, from
spans recorded around calls into each cinar module; see ``layers``.  The line
before it holds the environment record, workload-specific figures
(``study_fits_per_s``, ``fit_p50_s``, ``sim_sites_per_s``,
``diag_sites_per_s``), ``fail_share`` and any check failures.  The same goes
to ``bench/out/``, with the spans of a traced run.

An operation fails if it raises, if the CLI exits non-zero, if a study row
has failed replications, or if an output check misses.  Checks run outside
the timed region.  Outputs of the fixed inputs, and of every input at the
default seed, are also compared with ``bench/reference.json``.

Harness tests:  python3 -m pytest -q bench/test_harness.py
"""

import argparse
import ctypes
import glob
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import layers
import tracer
from probe import PROBES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 0
SETUP_REPEATS = 3
OVERHEAD_OPS = 3  # untraced operations after a traced run
STUDY_REPS = 2

# Fitted values may move within the optimizer's tolerance after a correct
# refactor (1e-3 is a few percent of a 50x50 fit's standard error);
# diagnostics at fixed parameters only by rounding; simulated grids not at
# all (compared by digest).  (rel_tol, abs_tol) per summary key.
TOLERANCES = {
    "estimates": (1e-3, 1e-3),
    "means": (1e-3, 1e-3),
    "sds": (1e-3, 1e-3),
    "loglik": (1e-8, 0.0),
    "pearson": (1e-8, 1e-10),
    "pit": (1e-8, 1e-10),
    "acf": (1e-8, 1e-10),
}
LOGLIK_REPRODUCE_RTOL = 1e-9

IMPORT_TIMER = ("import time; t = time.perf_counter(); import cinar, cinar.cli;"
                " print(time.perf_counter() - t)")


def derived_seeds(seed, stream, count):
    """``count`` independent 32-bit seeds for one workload's inputs."""
    return np.random.SeedSequence([seed, stream]).generate_state(count).tolist()


def digest(values):
    values = np.ascontiguousarray(values, dtype=np.int64)
    return f"{values.shape}:{hashlib.sha256(values.tobytes()).hexdigest()}"


# =============================================================================
# Workloads
# =============================================================================


class Study:
    name = "study-50"
    seeded = False  # see the module docstring
    probe = "interp"

    def __init__(self, cinar, seed, workdir, n=50, reps=STUDY_REPS):
        self.cinar = cinar
        o11, o22 = cinar.ModelOrder(1, 1), cinar.ModelOrder(2, 2)
        theta_nb = np.array([0.2, 0.2, 0.5])
        seeds = derived_seeds(DEFAULT_SEED, 1, 3)
        self.calls = (
            (cinar.CinarParams(o11, np.array([0.3, 0.4, 0.1]),
                               cinar.PoissonInnovation(1.0)),
             ("yw", "cls", "cml"), seeds[0]),
            (cinar.CinarParams(o11, theta_nb, cinar.NbMarginalInnovation
                               .from_targets(1.0, 2.0, theta_nb.sum())),
             ("n-cml", "p-cml"), seeds[1]),
            (cinar.CinarParams(o22, np.full(8, 0.1),
                               cinar.PoissonInnovation(1.0)),
             ("cml", "cml-1"), seeds[2]),
        )
        self.n, self.reps = n, reps
        self.cml_fits = reps * sum("cml" in tag
                                   for _, arms, _ in self.calls for tag in arms)

    @classmethod
    def warmup(cls, cinar, seed, workdir):
        return cls(cinar, seed, workdir, n=20, reps=1)

    def run(self):
        return [self.cinar.run_study(params, [(self.n, self.n)], arms,
                                     reps=self.reps, master_seed=master,
                                     threads=1)
                for params, arms, master in self.calls]

    def summarize(self, out):
        return {"calls": [[{"label": row.label, "n_reps": row.n_reps,
                            "n_failed": row.n_failed,
                            "means": row.means.tolist(),
                            "sds": row.sds.tolist()} for row in rows]
                          for rows in out]}

    def problems(self, summary):
        return [f"{row['label']}: {row['n_failed']} failed replications"
                for rows in summary["calls"] for row in rows if row["n_failed"]]

    def details(self, op_s):
        return {"study_fits_per_s": self.cml_fits / op_s,
                "cml_fits_per_op": self.cml_fits}


class Fit:
    name = "fit-300"
    seeded = False  # see the module docstring
    probe = "bulk"

    def __init__(self, cinar, seed, workdir, n=300):
        self.cinar = cinar
        self.params = cinar.CinarParams(cinar.ModelOrder(2, 2), np.full(8, 0.1),
                                        cinar.PoissonInnovation(5.0))
        self.grid = cinar.simulate_cinar(
            cinar.SimConfig(self.params, n, n,
                            seed=derived_seeds(DEFAULT_SEED, 2, 1)[0]))
        self.path = workdir / f"fit-{n}.csv"
        self.out = workdir / f"fit-{n}.json"
        cinar.write_grid(self.grid, self.path)
        self.digest = digest(self.grid.values)

    @classmethod
    def warmup(cls, cinar, seed, workdir):
        return cls(cinar, seed, workdir, n=40)

    def run(self):
        return self.cinar.cli.main([
            "fit", "--grid", str(self.path), "--order", "2,2",
            "--method", "yw,cls,cml", "--out", str(self.out)])

    def summarize(self, exit_code):
        if exit_code != 0:
            return {"exit_code": exit_code}
        fits = json.loads(self.out.read_text())["fits"]
        self.out.unlink()
        return {
            "exit_code": exit_code,
            "grid": self.digest,
            "fits": [{
                "method": fit["method"],
                "estimates": fit["estimates"],
                "loglik": fit["loglik"],
                "converged": fit["diagnostics"]["converged"],
                "se_finite": fit["std_errors"] is not None and all(
                    se is not None and math.isfinite(se)
                    for se in fit["std_errors"]),
            } for fit in fits],
        }

    def problems(self, summary):
        if summary["exit_code"] != 0:
            return [f"cinar fit exited with {summary['exit_code']}"]
        methods = [fit["method"] for fit in summary["fits"]]
        if methods != ["YW", "CLS", "CML"]:
            return [f"fit methods {methods}, expected YW, CLS, CML"]
        cml = summary["fits"][2]
        out = []
        if not cml["converged"]:
            out.append("CML did not converge")
        if not cml["se_finite"]:
            out.append("CML standard errors missing or not finite")
        # the reported log-likelihood must be cml_loglik at the estimate
        cinar, estimates = self.cinar, cml["estimates"]
        try:
            params = cinar.CinarParams(self.params.order,
                                       np.array(estimates[:-1]),
                                       cinar.PoissonInnovation(estimates[-1]))
            loglik = cinar.cml_loglik(params, self.grid)
        except cinar.CinarError as exc:
            return out + [f"cml_loglik at the CML estimate failed: {exc}"]
        if not math.isclose(loglik, cml["loglik"],
                            rel_tol=LOGLIK_REPRODUCE_RTOL):
            out.append(f"cml_loglik {loglik!r} != reported {cml['loglik']!r}")
        return out

    def details(self, op_s):
        return {"fit_p50_s": op_s}


class SimDiag:
    name = "simdiag-1000"
    seeded = True
    probe = "bulk"

    def __init__(self, cinar, seed, workdir, n=1000):
        self.cinar = cinar
        o11 = cinar.ModelOrder(1, 1)
        theta_nb = np.array([0.2, 0.2, 0.5])
        self.poisson = cinar.CinarParams(o11, np.array([0.3, 0.4, 0.1]),
                                         cinar.PoissonInnovation(1.0))
        self.nb = cinar.CinarParams(o11, theta_nb, cinar.NbMarginalInnovation
                                    .from_targets(1.0, 2.0, theta_nb.sum()))
        seeds = derived_seeds(seed, 3, 3)
        self.configs = (
            cinar.SimConfig(self.poisson, n, n, seed=seeds[0]),
            cinar.SimConfig(self.nb, n, n, seed=seeds[1]),
            cinar.SimConfig(self.poisson, n, n, seed=seeds[2],
                            signs=cinar.SignPattern(o11, (1, -1, 1))),
        )
        self.sim_sites = 3 * n * n
        self.diag_sites = 5 * n * n  # 2 Pearson, 2 PIT, 1 ACF
        self.phases = []

    @classmethod
    def warmup(cls, cinar, seed, workdir):
        return cls(cinar, seed, workdir, n=60)

    def run(self):
        c = self.cinar
        start = time.perf_counter()
        grids = (c.simulate_cinar(self.configs[0]),
                 c.simulate_cinar(self.configs[1]),
                 c.simulate_tobit_cinar(self.configs[2]))
        middle = time.perf_counter()
        diags = (c.pearson_residuals(self.poisson, grids[0]),
                 c.pit_histogram(self.poisson, grids[0]),
                 c.pearson_residuals(self.nb, grids[1]),
                 c.pit_histogram(self.nb, grids[1]),
                 c.sample_acf(grids[0], (3, 3)))
        self.phases.append((middle - start, time.perf_counter() - middle))
        return grids, diags

    def summarize(self, out):
        grids, (pearson_p, pit_p, pearson_nb, pit_nb, acf) = out
        return {
            "grids": [digest(grid.values) for grid in grids],
            "pearson": [[res.mean, res.variance] + res.acf.values.ravel().tolist()
                        for res in (pearson_p, pearson_nb)],
            "pit": [pit_p.tolist(), pit_nb.tolist()],
            "acf": acf.values.ravel().tolist(),
        }

    def problems(self, summary):
        out = []
        for heights in summary["pit"]:
            # each site carries unit mass, so the heights average to 1
            if not math.isclose(statistics.fmean(heights), 1.0, rel_tol=1e-9):
                out.append(f"PIT heights average {statistics.fmean(heights)!r}")
        if not all(math.isfinite(v) for row in summary["pearson"] for v in row):
            out.append("non-finite Pearson residual summary")
        return out

    def details(self, op_s):
        sim = statistics.median(p[0] for p in self.phases)
        diag = statistics.median(p[1] for p in self.phases)
        return {"sim_sites_per_s": self.sim_sites / sim,
                "diag_sites_per_s": self.diag_sites / diag}


WORKLOADS = {cls.name: cls for cls in (Study, Fit, SimDiag)}


# =============================================================================
# Measuring and checking
# =============================================================================


@dataclass
class Op:
    seconds: float
    probe_seconds: float
    problems: list = field(default_factory=list)


def measure(workload, probe, seconds, on_op=None, clock=time.perf_counter):
    """Run operations back to back for ``seconds``; at least one.

    ``probe`` is timed before the first operation and after each one, and
    each operation keeps the mean of the two probe times around it.
    ``on_op`` gets each operation's index before it runs and None after.
    Each output is checked after its timer and the probe after it stop.  The
    summary of the first good output is returned, and every later one must
    equal it.
    """

    def time_probe():
        began = clock()
        probe()
        return clock() - began

    ops, first = [], None
    start = clock()
    probe_before = time_probe()
    while not ops or clock() - start < seconds:
        if on_op is not None:
            on_op(len(ops))
        began = clock()
        try:
            out = workload.run()
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
        took = clock() - began
        probe_after = time_probe()
        op = Op(took, (probe_before + probe_after) / 2)
        probe_before = probe_after
        if on_op is not None:
            on_op(None)
        ops.append(op)
        if isinstance(out, Exception):
            op.problems.append(f"{type(out).__name__}: {out}")
            continue
        try:
            summary = workload.summarize(out)
        except Exception as exc:  # malformed output is a failed check
            op.problems.append(f"output unreadable: {type(exc).__name__}: {exc}")
        else:
            op.problems.extend(workload.problems(summary))
            if first is None:
                first = summary
            elif summary != first:
                op.problems.append("output differs from the first operation")
    return ops, first


def per_probe(ops):
    """Median over ``ops`` of wall time per probe time."""
    return statistics.median(op.seconds / op.probe_seconds for op in ops)


def mismatches(ref, got, where="", tol=(0.0, 0.0)):
    """Differences between a reference summary and a new one."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or ref.keys() != got.keys():
            return [f"{where}: keys differ from the reference"]
        return [m for key in ref for m in mismatches(
            ref[key], got[key], f"{where}.{key}", TOLERANCES.get(key, tol))]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [f"{where}: length differs from the reference"]
        return [m for k, (a, b) in enumerate(zip(ref, got))
                for m in mismatches(a, b, f"{where}[{k}]", tol)]
    if (isinstance(ref, float) and isinstance(got, (int, float))
            and not isinstance(got, bool)):
        if math.isclose(ref, got, rel_tol=tol[0], abs_tol=tol[1]):
            return []
    elif ref == got:
        return []
    return [f"{where}: {got!r} != reference {ref!r}"]


def check_reference(workload, ops, first, reference):
    """Compare the kept output with the reference; a miss fails every op."""
    if first is None:
        return  # no operation produced output; each one already failed
    problems = mismatches(reference, first, workload.name)
    for op in ops:
        op.problems.extend(problems)


# =============================================================================
# Set-up and environment
# =============================================================================


def import_seconds():
    """Time ``import cinar`` takes in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER], cwd=ROOT, check=True,
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    return float(done.stdout)


def read_text(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def blas_threads():
    """OpenBLAS's thread count, asked from the library numpy loaded."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                get = getattr(handle, symbol)
                get.argtypes, get.restype = [], ctypes.c_int
                return get()
    return None


def environment(seed, trace):
    cpuinfo = read_text("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = read_text(f"{index}/level"), read_text(f"{index}/type")
        caches[f"L{level}-{kind}"] = read_text(f"{index}/size")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {key: os.environ[key] for key in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if key in os.environ},
        "seed": seed,
        "trace": bool(trace),
    }


# =============================================================================
# Entry point
# =============================================================================


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's outputs as bench/reference.json"
                             " entries (default seed only)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.record_reference and args.seed != DEFAULT_SEED:
        parser.error(f"references are recorded for --seed {DEFAULT_SEED}")
    return args


def import_cinar():
    sys.path.insert(0, str(SRC))
    import cinar
    import cinar.cli  # noqa: F401  (fit-300 calls cinar.cli.main)

    if not Path(cinar.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"cinar was imported from {cinar.__file__},"
                         f" not from {SRC}")
    return cinar


def run(args, cinar, workdir):
    cls = WORKLOADS[args.workload]
    samples = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        began = time.perf_counter()
        workload = cls(cinar, args.seed, workdir)
        samples.append(imported + time.perf_counter() - began)
    probe = PROBES[cls.probe]()
    warm = cls.warmup(cinar, args.seed, workdir)
    measure(warm, probe, 0.0)  # fills lazy imports and caches; not counted

    spans, extra_ops, overhead = None, [], None
    if args.trace:
        trace = tracer.Tracer()
        trace.install(layers.SPECS, "cinar")
        try:
            ops, first = measure(workload, probe, args.seconds,
                                 on_op=lambda k: setattr(trace, "op", k))
        finally:
            trace.uninstall()
        spans = trace.spans
        # warm untraced operations, for the tracing overhead
        extra_ops = [op for _ in range(OVERHEAD_OPS)
                     for op in measure(workload, probe, 0.0)[0]]
        overhead = per_probe(ops) / per_probe(extra_ops) - 1.0
    else:
        ops, first = measure(workload, probe, args.seconds)

    if args.record_reference:
        record_reference(workload.name, first)
    elif args.seed == DEFAULT_SEED or not workload.seeded:
        stored = json.loads(REFERENCE.read_text())["workloads"]
        if workload.name in stored:
            check_reference(workload, ops, first, stored[workload.name])
        else:
            ops[0].problems.append(f"no reference output for {workload.name}")

    all_ops = ops + extra_ops
    failed = sum(1 for op in all_ops if op.problems)
    op_s = statistics.median(op.seconds for op in ops)
    if args.trace:
        values = layers.layer_metrics(spans, len(ops), overhead)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"op_per_probe": (per_probe(ops), "ratio"),
                  "setup_s": (statistics.median(samples), "s"),
                  "peak_rss_mib": (peak, "MiB")}
    result = {
        "correct": failed == 0,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }
    record = {
        "workload": workload.name,
        "env": environment(args.seed, args.trace),
        "seconds": args.seconds,
        "op_s": op_s,
        "probe": cls.probe,
        "op_seconds": [op.seconds for op in all_ops],
        "probe_seconds": [op.probe_seconds for op in all_ops],
        "setup_samples_s": samples,
        "fail_share": failed / len(all_ops),
        "details": workload.details(op_s),
        "problems": sorted({p for op in all_ops for p in op.problems}),
    }
    if args.trace:
        record["absent"] = trace.absent
        record["count_errors"] = sorted({
            span[tracer.NAME] for span in spans
            if span[tracer.COUNTS] and "count_errors" in span[tracer.COUNTS]})
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if spans is not None:
        with gzip.open(OUT / f"{stem}.spans.jsonl.gz", "wt") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"record": record, "result": result}, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


def record_reference(name, first):
    stored = (json.loads(REFERENCE.read_text()) if REFERENCE.exists()
              else {"seed": DEFAULT_SEED, "workloads": {}})
    stored["workloads"][name] = first
    REFERENCE.write_text(json.dumps(stored, indent=1) + "\n")


def main(argv=None):
    args = parse_args(argv)
    cinar = import_cinar()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        return run(args, cinar, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
