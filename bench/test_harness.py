"""Fast tests of the benchmark harness itself (no cinar workload runs).

Run from the repository root:  python3 -m pytest -q bench/test_harness.py
"""

import json
import math
import sys
import types
from pathlib import Path

import pytest

import layers
import run
from tracer import COUNTS, NAME, OP, PARENT, Tracer, self_times


class FakeClock:
    """Advances one tick per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.fixture
def fakepkg():
    """A package ``fakepkg`` whose ``outer`` calls ``inner`` twice."""
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    class Thing:
        def size(self):
            return 3

    mod.inner, mod.outer, mod.Thing, mod.math = inner, outer, Thing, math
    pkg.mod, pkg.outer = mod, outer
    sys.modules.update({"fakepkg": pkg, "fakepkg.mod": mod})
    yield pkg
    del sys.modules["fakepkg"], sys.modules["fakepkg.mod"]


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1, 0, None],
        ["a", 1.0, 3.0, 0, 0, None],
        ["b", 4.0, 8.0, 0, 0, None],
        ["c", 5.0, 6.0, 2, 0, None],
    ]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0]


def test_spans_nest_and_self_times_add_up(fakepkg):
    trace = Tracer(clock=FakeClock())
    trace.install([("outer", "fakepkg.mod", "outer", None),
                   ("inner", "fakepkg.mod", "inner", None)], "fakepkg")
    trace.op = 7
    try:
        assert fakepkg.outer(1) == 4  # the package re-export is wrapped too
    finally:
        trace.uninstall()
    names = [span[NAME] for span in trace.spans]
    assert names == ["outer", "inner", "inner"]
    assert [span[PARENT] for span in trace.spans] == [-1, 0, 0]
    assert {span[OP] for span in trace.spans} == {7}
    # ticks: outer 1..6, inner 2..3 and 4..5
    assert self_times(trace.spans) == [3.0, 1.0, 1.0]
    assert sum(self_times(trace.spans)) == trace.spans[0][2] - trace.spans[0][1]
    assert fakepkg.outer.__name__ == "outer" and fakepkg.mod.inner(1) == 2
    assert len(trace.spans) == 3  # uninstalled: no new spans


def test_missing_names_are_reported_not_raised(fakepkg):
    trace = Tracer()
    trace.install([
        ("gone", "fakepkg.mod", "renamed_away", None),
        ("gone", "fakepkg.nomodule", "f", None),
        ("gone", "fakepkg.mod", "Thing.no_method", None),
        ("inner", "fakepkg.mod", "inner", None),
    ], "fakepkg")
    try:
        assert fakepkg.mod.inner(1) == 2
    finally:
        trace.uninstall()
    assert trace.absent == ["fakepkg.mod.renamed_away", "fakepkg.nomodule.f",
                            "fakepkg.mod.Thing.no_method"]
    assert [span[NAME] for span in trace.spans] == ["inner"]


def test_foreign_function_is_wrapped_behind_a_proxy(fakepkg):
    trace = Tracer()
    trace.install([("sqrt", "math", "sqrt", None),
                   ("floor", "math", "floor", None)], "fakepkg")
    try:
        assert fakepkg.mod.math.sqrt(4.0) == 2.0
        assert fakepkg.mod.math.floor(2.5) == 2
        assert fakepkg.mod.math.pi == math.pi
        assert math.sqrt is not fakepkg.mod.math.sqrt  # math itself untouched
    finally:
        trace.uninstall()
    assert fakepkg.mod.math is math
    assert [span[NAME] for span in trace.spans] == ["sqrt", "floor"]


def test_methods_are_wrapped_and_restored(fakepkg):
    original = fakepkg.mod.Thing.size
    trace = Tracer()
    trace.install([("size", "fakepkg.mod", "Thing.size",
                    lambda args, kwargs, result: {"n": result})], "fakepkg")
    try:
        assert fakepkg.mod.Thing().size() == 3
    finally:
        trace.uninstall()
    assert fakepkg.mod.Thing.size is original
    assert trace.spans[0][COUNTS] == {"n": 3}


def test_a_failing_count_does_not_break_the_call(fakepkg):
    def bad_count(args, kwargs, result):
        return {"n": args[5]}

    trace = Tracer()
    trace.install([("inner", "fakepkg.mod", "inner", bad_count)], "fakepkg")
    try:
        assert fakepkg.mod.inner(1) == 2
    finally:
        trace.uninstall()
    assert trace.spans[0][COUNTS] == {"count_errors": 1}


class FakeWorkload:
    """Returns ``outputs`` one per operation; each takes one clock tick."""

    name = "fake"

    def __init__(self, outputs):
        self.outputs = iter(outputs)
        self.now = 0.0

    def clock(self):
        return self.now

    def probe(self):
        pass

    def run(self):
        self.now += 1.0
        out = next(self.outputs)
        if isinstance(out, Exception):
            raise out
        return out

    def summarize(self, out):
        if out is None:
            raise TypeError("no output")
        return {"value": out}

    def problems(self, summary):
        return ["negative"] if summary["value"] < 0 else []


def measure(outputs):
    workload = FakeWorkload(outputs)
    return run.measure(workload, workload.probe, len(outputs),
                       clock=workload.clock)


def test_failures_are_counted_per_operation():
    ops, first = measure([RuntimeError("boom"), -1, None, -1, 2, -1])
    assert [op.seconds for op in ops] == [1.0] * 6
    assert [op.problems for op in ops] == [
        ["RuntimeError: boom"],
        ["negative"],
        ["output unreadable: TypeError: no output"],
        ["negative"],
        ["output differs from the first operation"],
        ["negative"],
    ]
    assert first == {"value": -1}
    assert sum(1 for op in ops if op.problems) == 6


def test_a_reference_miss_fails_every_operation():
    ops, first = measure([5, 5, 5])
    assert not any(op.problems for op in ops)
    run.check_reference(FakeWorkload([]), ops, first, {"value": 5.0})
    assert not any(op.problems for op in ops)
    run.check_reference(FakeWorkload([]), ops, first, {"value": 6.0})
    assert [op.problems for op in ops] == [
        ["fake.value: 5 != reference 6.0"]] * 3


def test_at_least_one_operation_runs():
    workload = FakeWorkload([1, 2])
    ops, _ = run.measure(workload, workload.probe, 0.0)
    assert len(ops) == 1


def test_each_operation_is_divided_by_the_probes_around_it():
    workload = FakeWorkload([1, 1, 1])
    probe_ticks = iter([0.5, 1.5, 0.5, 0.5])

    def probe():
        workload.now += next(probe_ticks)

    ops, _ = run.measure(workload, probe, 5.0, clock=workload.clock)
    assert [op.seconds for op in ops] == [1.0, 1.0, 1.0]
    assert [op.probe_seconds for op in ops] == [1.0, 1.0, 0.5]
    assert run.per_probe(ops) == 1.0


def test_reference_tolerances():
    ref = {"estimates": [1.0, 2.0], "loglik": -1000.0, "grid": "abc"}
    assert run.mismatches(ref, {"estimates": [1.0005, 2.0], "loglik": -1000.0,
                                "grid": "abc"}) == []
    bad = run.mismatches(ref, {"estimates": [1.003, 2.0], "loglik": -1000.1,
                               "grid": "abd"})
    assert [m.split(":")[0] for m in bad] == [
        ".estimates[0]", ".loglik", ".grid"]
    assert run.mismatches({"a": 1.0}, {"b": 1.0}) == [
        ": keys differ from the reference"]


def test_counts_repeat_exactly_whatever_the_number_of_ops():
    def spans(n_ops):
        return [["kernels.table", 0.0, 0.1, -1, op, {"flops": 3}]
                for op in range(n_ops) for _ in range(7)]

    for n_ops in (1, 3, 10):
        means = layers.op_mean(layers.op_totals(spans(n_ops)), n_ops)
        assert means["kernels.table.calls"] == 7
        assert means["kernels.table.flops"] == 21


def test_evaluations_are_attributed_to_enclosing_fit_and_se():
    spans = [
        ["estimate.cml", 0.0, 10.0, -1, 0, {"converged": 1, "se_missing": 0}],
        ["estimate.optimizer", 1.0, 5.0, 0, 0, {"nit": 3, "polish": 0}],
        ["kernels.table", 2.0, 3.0, 1, 0, None],
        ["estimate.se", 6.0, 9.0, 0, 0, None],
        ["kernels.table", 7.0, 8.0, 3, 0, None],
    ]
    metrics = layers.layer_metrics(spans, 1, 0.01)
    assert metrics["estimate.evals_per_fit"] == (2, "count")
    assert metrics["estimate.se.evals"] == (1, "count")
    assert metrics["estimate.iters_per_fit"] == (3, "count")
    assert metrics["estimate.optimizer.self_s"] == (3.0, "s")
    assert metrics["estimate.converged_ratio"] == (1, "ratio")
    assert metrics["trace.overhead_ratio"] == (0.01, "ratio")


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, _ in layers.PER_LAYER]
    assert set(layers.layer_metrics([], 1, 0.0)) == {
        entry["name"] for entry in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "op_per_probe", "setup_s", "peak_rss_mib"}


def test_spans_between_operations_belong_to_no_operation():
    calls = []
    workload = FakeWorkload([1, 1])
    run.measure(workload, workload.probe, 2, on_op=calls.append,
                clock=workload.clock)
    assert calls == [0, None, 1, None]
