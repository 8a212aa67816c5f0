"""Tests of the traced run: complete, removable wrappers and thread-aware spans."""

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import kcprobe  # noqa: E402
import kcprobe.cli  # noqa: E402
import kcprobe.oracle  # noqa: E402
import kcprobe.sequences  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import INPUTS  # noqa: E402


def test_sweep_rows_are_charged_to_the_worker_not_the_command(tmp_path):
    tracer = tr.Tracer()
    tracer.install()
    try:
        code = kcprobe.cli.main(
            ["sweep", str(INPUTS / "nv_sweep.json"), "--param", "t", "--grid", "0.1:4:40",
             "--out", str(tmp_path)]
        )
    finally:
        tracer.uninstall()
    assert code == 0
    (main_span,) = [s for s in tracer.spans if s[2] == "cli.main"]
    main_id, _, _, start, end = main_span
    tasks = [s for s in tracer.spans if s[2] == tr.TASK]
    assert len(tasks) == 40
    assert all(parent == main_id for _, parent, _, _, _ in tasks)
    summary = tracer.summary()
    row_work = sum(t1 - t0 for _, _, _, t0, t1 in tasks)
    assert summary["self_s"]["cli.main"] <= (end - start) - row_work + 1e-6
    assert summary["self_s"]["cli.main"] < 0.5 * (end - start)
    # Two consistency scans per row ran on the worker thread and were traced there.
    assert summary["calls"]["sequences.check_kc_all"] == 80


def test_hook_time_is_covered_time_of_the_caller():
    model = kcprobe.random_model(7, 2, 2, False)
    protocol = kcprobe.qubit_xy_protocol(model, "XYX")
    tracer = tr.Tracer()
    tracer.install()
    try:
        kcprobe.oracle_compare(protocol, np.eye(2, dtype=complex) / 2, 3)
    finally:
        tracer.uninstall()
    (compare,) = [s for s in tracer.spans if s[2] == "oracle.oracle_compare"]
    children = [s for s in tracer.spans if s[1] == compare[0]]
    hooks = [s for s in children if s[2] == tr.HOOK]
    # One hook per full_distribution call, run as a sibling after the call.
    assert len(hooks) == len([s for s in children if s[2] == "sequences.full_distribution"]) == 3
    busy = sum(t1 - t0 for _, _, _, t0, t1 in children)
    summary = tracer.summary()
    assert summary["self_s"]["oracle.oracle_compare"] == pytest.approx(compare[4] - compare[3] - busy)
    assert not any(name.startswith(tr.HOOK) for name in tr.layer_metrics(summary))


def test_paused_calls_are_not_recorded():
    model = kcprobe.random_model(7, 2, 2, False)
    tracer = tr.Tracer()
    tracer.install()
    try:
        with tracer.paused():
            kcprobe.check_kc_all(kcprobe.qubit_xy_protocol(model, "XY"), 2)
        assert tracer.spans == []
        kcprobe.check_kc_all(kcprobe.qubit_xy_protocol(model, "XY"), 2)
    finally:
        tracer.uninstall()
    assert tracer.summary()["calls"]["sequences.check_kc_all"] == 1


def test_uninstall_restores_every_binding():
    originals = {
        "package": kcprobe.check_kc_all,
        "defining module": kcprobe.sequences.check_kc_all,
        "importing module": kcprobe.oracle.full_distribution,
        "class method": vars(kcprobe.MeasurementProtocol)["__init__"],
        "executor": vars(ThreadPoolExecutor)["submit"],
    }
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert kcprobe.check_kc_all is not originals["package"]
        assert kcprobe.sequences.check_kc_all is not originals["defining module"]
        assert kcprobe.oracle.full_distribution is not originals["importing module"]
        assert vars(kcprobe.MeasurementProtocol)["__init__"] is not originals["class method"]
    finally:
        tracer.uninstall()
    assert kcprobe.check_kc_all is originals["package"]
    assert kcprobe.sequences.check_kc_all is originals["defining module"]
    assert kcprobe.oracle.full_distribution is originals["importing module"]
    assert vars(kcprobe.MeasurementProtocol)["__init__"] is originals["class method"]
    assert vars(ThreadPoolExecutor)["submit"] is originals["executor"]
    assert tr.wrapped_bindings() == []


def test_missing_target_fails_loudly_and_leaves_nothing_wrapped(monkeypatch):
    targets = tr.TARGETS + (("sequences.gone", "kcprobe.sequences", "no_such_function"),)
    monkeypatch.setattr(tr, "TARGETS", targets)
    with pytest.raises(tr.TraceTargetMissing):
        tr.Tracer().install()
    assert tr.wrapped_bindings() == []


def test_benchmark_declares_every_layer_metric():
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["per_layer"]
    produced = set(tr.layer_metrics(tr.Tracer().summary()))
    produced |= {"trace.overhead_frac", "trace.invariant_violations"}
    assert {m["name"] for m in declared} == produced
