"""Seeded Monte-Carlo replication studies across estimators and grid sizes.

Each replication simulates one grid and hands the *same* grid to every
study arm, so estimator columns are directly comparable.  Per-replication
seeds are derived from the master seed through ``SeedSequence`` spawn
keys, which makes the seed stream independent of scheduling: results are
identical for any ``threads`` setting, and replication ``r`` sees the
same seed whether run alone or inside a sweep.

Replications run in contiguous runs, one per worker.  Within a run, each
grid's CLS fit at an order serves the ``cls`` arm and starts the CML arms
at that order, and a CML arm fits the run's grids in lockstep: their
searches advance together, one stacked likelihood pass per round, and
each fit is bit-identical to ``cml_estimate`` on its grid.

An arm tag names the estimator plus optional twists, e.g.::

    "cml"      conditional maximum likelihood at the data-generating order
    "cls-1"    least squares deliberately restricted to order (1, 1)
    "p-cml"    CML with the innovation family forced to Poisson
    "n-cml"    CML with the innovation family forced to negative binomial

Estimator failures inside a replication (degenerate grids, singular
systems) are counted by reason and excluded from the aggregates rather
than aborting the study.  CML fits that end without meeting their
convergence criterion stay in the aggregates and are counted in
``n_nonconverged``.
"""

import csv
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CinarError, ValidationError
from .estimate import _STACK_CELLS, FitResult, _cml_fits, cls_estimate, yw_estimate
from .model import ModelOrder, _validated, _whole
from .simulate import SimConfig, simulate_cinar

__all__ = [
    "StudyArm",
    "StudyResult",
    "parse_arm",
    "run_study",
    "write_study_csv",
]


@dataclass(frozen=True)
class StudyArm:
    """One estimator column of a study table.

    ``order`` / ``family`` override the data-generating values when set,
    which is how deliberately misspecified fits are expressed.
    """

    label: str
    method: str
    order: Optional[ModelOrder] = None
    family: Optional[str] = None

    def __post_init__(self):
        if self.method not in ("yw", "cls", "cml"):
            raise ValidationError(f"unknown estimator {self.method!r}")
        if self.family is not None and self.method != "cml":
            raise ValidationError(
                "an innovation-family override applies to CML arms only"
            )


@dataclass(frozen=True)
class StudyResult:
    """Aggregates for one (grid size, arm) cell: means and sds per parameter.

    ``n_nonconverged`` counts the kept replications whose fit did not meet
    its convergence criterion; they are included in the means and sds.
    ``failures`` holds the sorted (reason, count) pairs of the failed ones,
    a reason being the error's class and its message up to the first ':'.
    """

    n1: int
    n2: int
    label: str
    n_reps: int
    n_failed: int
    names: tuple
    means: np.ndarray
    sds: np.ndarray
    n_nonconverged: int = 0
    failures: tuple = ()


def parse_arm(tag):
    """Parse an arm tag like 'cml', 'yw', 'cls-1', 'p-cml', 'n-cml-1'."""
    text = tag.strip().lower()
    base = text
    family = None
    if base.startswith("p-"):
        family, base = "poisson", base[2:]
    elif base.startswith("n-"):
        family, base = "nb", base[2:]
    order = None
    if base.endswith("-1"):
        order, base = ModelOrder(1, 1), base[:-2]
    if base not in ("yw", "cls", "cml"):
        raise ValidationError(f"unknown estimator tag {tag!r}")
    return StudyArm(label=text, method=base, order=order, family=family)


def replication_seed(master_seed, rep):
    """Independent 64-bit simulation seed for replication ``rep``."""
    sequence = np.random.SeedSequence(entropy=master_seed, spawn_key=(rep,))
    return int(sequence.generate_state(1, dtype=np.uint64)[0])


def _attempt(estimator, grid, order):
    """The estimator's fit of ``grid``, or the CinarError that refused it."""
    try:
        return estimator(grid, order)
    except CinarError as exc:
        return exc


def _run_chunk(task):
    """Simulate a run of replications and fit every arm to each grid;
    top-level for process pools.

    Each grid's CLS fit at an order serves the ``cls`` arm and starts every
    CML arm at that order (``cml_estimate``'s own start where it fails).
    A CML arm fits the run's grids in lockstep (``estimate._cml_fits``),
    each bit-identical to its fit alone.  Returns, per replication, one
    (names, estimates, converged) per arm, a failed fit holding its reason
    where the estimates would be.
    """
    params, n1, n2, burn_in, arms, seeds = task
    grids = [simulate_cinar(SimConfig(params, n1=n1, n2=n2, burn_in=burn_in,
                                      seed=seed)) for seed in seeds]
    cls_fits = {}
    columns = []
    for arm in arms:
        order = arm.order if arm.order is not None else params.order
        if order not in cls_fits and arm.method != "yw":
            cls_fits[order] = [_attempt(cls_estimate, grid, order) for grid in grids]
        family = arm.family or getattr(params.innovation, "name", None)
        if arm.method == "yw":
            fits = [_attempt(yw_estimate, grid, order) for grid in grids]
        elif arm.method == "cls":
            fits = cls_fits[order]
        elif family is None:
            fits = [ValidationError(
                f"arm {arm.label!r} needs an explicit innovation family"
                " for this data-generating process")] * len(grids)
        else:
            # where CLS failed, the search takes cml_estimate's own start
            fits = _cml_fits(grids, order, family, [
                fit if isinstance(fit, FitResult) else None for fit in cls_fits[order]])
        columns.append([
            (fit.names, tuple(float(v) for v in fit.estimates), fit.diagnostics.converged)
            if isinstance(fit, FitResult)
            # a failed fit holds its reason where the estimates would be
            else (None, f"{type(fit).__name__}: {str(fit).split(':')[0]}", True)
            for fit in fits])
    return [list(rep) for rep in zip(*columns)]


def run_study(params, sizes, arms, reps, master_seed=0, burn_in=100, threads=1):
    """Run a replication study; returns StudyResult rows in (size, arm) order.

    ``sizes`` is a sequence of (n1, n2) pairs; ``arms`` a sequence of
    StudyArm (or tags accepted by parse_arm); ``reps`` replications per
    size.  Each size's replications are split into min(threads, reps)
    contiguous runs, more where a run's grids would take over half of
    ``estimate._STACK_CELLS``; a run's CML arms fit its grids in lockstep,
    and with ``threads`` > 1 a process pool of at most ``threads`` workers
    takes one run each.
    Deterministic for a fixed master seed regardless of ``threads``: every
    fit is the one of its grid alone.  Every input is checked before any
    replication starts.
    """
    _validated(params)
    burn_in = _whole(burn_in, "burn_in", 0)
    reps, threads = _whole(reps, "reps", 1), _whole(threads, "threads", 1)
    arms = tuple(arm if isinstance(arm, StudyArm) else parse_arm(arm)
                 for arm in arms)
    if not arms:
        raise ValidationError("at least one study arm is required")
    master_seed = _whole(master_seed, "master seed", 0)
    sizes = [(_whole(n1, "n1", 1), _whole(n2, "n2", 1)) for n1, n2 in sizes]
    if not sizes:
        raise ValidationError("at least one grid size is required")

    seeds = [replication_seed(master_seed, rep) for rep in range(reps)]
    tasks = []
    for n1, n2 in sizes:
        # min(threads, reps) contiguous runs; a run simulates its grids
        # before it fits them, and they take at most half the cells its
        # lockstep fits may hold
        runs = max(min(threads, reps), -(-reps * n1 * n2 // (_STACK_CELLS // 2)))
        bounds = [reps * k // runs for k in range(runs + 1)]
        tasks += [(params, n1, n2, burn_in, arms, seeds[a:b])
                  for a, b in zip(bounds, bounds[1:]) if a < b]
    threads = min(threads, len(tasks))  # a pool starts all its workers at once
    if threads == 1:
        chunks = [_run_chunk(task) for task in tasks]
    else:
        # imported here: it loads multiprocessing, which serial runs never use
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(_run_chunk, tasks, chunksize=1))
    outcomes = [rep for chunk in chunks for rep in chunk]

    results = []
    for s, (n1, n2) in enumerate(sizes):
        per_size = outcomes[s * reps:(s + 1) * reps]
        for a, arm in enumerate(arms):
            fits = [rep_out[a] for rep_out in per_size]
            kept = [fit for fit in fits if fit[0] is not None]
            n_failed = reps - len(kept)
            if kept:
                names = kept[0][0]
                stacked = np.array([est for _, est, _ in kept], dtype=float)
                means = stacked.mean(axis=0)
                sds = (stacked.std(axis=0, ddof=1) if stacked.shape[0] > 1
                       else np.full(stacked.shape[1], np.nan))
            else:
                names, means, sds = (), np.array([]), np.array([])
            results.append(StudyResult(
                n1=n1, n2=n2, label=arm.label, n_reps=len(kept),
                n_failed=n_failed, names=names, means=means, sds=sds,
                n_nonconverged=sum(not converged for _, _, converged in kept),
                failures=tuple(sorted(Counter(
                    reason for names, reason, _ in fits if names is None).items())),
            ))
    return results


def write_study_csv(results, path_or_buf):
    """Write study aggregates as long-format CSV.

    Columns: n1, n2, estimator, reps_ok, reps_failed, stat, param, value —
    one row per (cell, mean/sd, parameter).  Values use repr so they
    round-trip exactly.
    """
    own = isinstance(path_or_buf, (str, bytes)) or hasattr(path_or_buf, "__fspath__")
    handle = open(path_or_buf, "w", newline="") if own else path_or_buf
    try:
        writer = csv.writer(handle)
        writer.writerow(["n1", "n2", "estimator", "reps_ok", "reps_failed",
                         "stat", "param", "value"])
        for res in results:
            for stat, vector in (("mean", res.means), ("sd", res.sds)):
                for name, value in zip(res.names, vector):
                    writer.writerow([res.n1, res.n2, res.label, res.n_reps,
                                     res.n_failed, stat, name, repr(float(value))])
            if not res.names:
                writer.writerow([res.n1, res.n2, res.label, 0, res.n_failed,
                                 "", "", ""])
    finally:
        if own:
            handle.close()
