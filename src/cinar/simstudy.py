"""Seeded Monte-Carlo replication studies across estimators and grid sizes.

Each replication simulates one grid and hands the *same* grid to every
study arm, so estimator columns are directly comparable.  Per-replication
seeds are derived from the master seed through ``SeedSequence`` spawn
keys, which makes the seed stream independent of scheduling: results are
identical for any ``threads`` setting, and replication ``r`` sees the
same seed whether run alone or inside a sweep.

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
from .estimate import cls_estimate, cml_estimate, yw_estimate
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


def _one_rep(task):
    """Simulate one grid and fit every arm to it; top-level for process pools."""
    params, n1, n2, burn_in, arms, seed = task
    grid = simulate_cinar(SimConfig(params, n1=n1, n2=n2, burn_in=burn_in,
                                    seed=seed))
    results = []
    for arm in arms:
        order = arm.order if arm.order is not None else params.order
        try:
            if arm.method == "yw":
                fit = yw_estimate(grid, order)
            elif arm.method == "cls":
                fit = cls_estimate(grid, order)
            else:
                family = arm.family or getattr(params.innovation, "name", None)
                if family is None:
                    raise ValidationError(
                        f"arm {arm.label!r} needs an explicit innovation family"
                        " for this data-generating process"
                    )
                fit = cml_estimate(grid, order, family=family)
            results.append((fit.names, tuple(float(v) for v in fit.estimates),
                            fit.diagnostics.converged))
        except CinarError as exc:
            # a failed fit holds its reason where the estimates would be
            reason = f"{type(exc).__name__}: {str(exc).split(':')[0]}"
            results.append((None, reason, True))
    return results


def run_study(params, sizes, arms, reps, master_seed=0, burn_in=100, threads=1):
    """Run a replication study; returns StudyResult rows in (size, arm) order.

    ``sizes`` is a sequence of (n1, n2) pairs; ``arms`` a sequence of
    StudyArm (or tags accepted by parse_arm); ``reps`` replications per
    size.  Deterministic for a fixed master seed regardless of
    ``threads``.  Every input is checked before any replication starts.
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

    tasks = [
        (params, n1, n2, burn_in, arms, replication_seed(master_seed, rep))
        for n1, n2 in sizes
        for rep in range(reps)
    ]
    threads = min(threads, len(tasks))  # a pool starts all its workers at once
    if threads == 1:
        outcomes = [_one_rep(task) for task in tasks]
    else:
        # imported here: it loads multiprocessing, which serial runs never use
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(_one_rep, tasks, chunksize=1))

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
