"""Tests of the benchmark harness itself, on the tiny workload variants."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import bench

if bench.SRC not in sys.path:
    sys.path.insert(0, bench.SRC)

import bench_workloads as bw  # noqa: E402
from bench_trace import Tracer  # noqa: E402
from corecov import picse  # noqa: E402
from corecov.errors import CapacityError  # noqa: E402

with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
E2E = {m["name"] for m in SPEC["end_to_end"]}
LAYERS = {m["name"] for m in SPEC["per_layer"]}
DERIVED = {
    "picse.sweeps",
    "picse.converged_ratio",
    "picse.nll.calls_per_sweep",
    "picse.retract_core_factor.attempts_per_call",
    "core_geometry.balance_core_factor.passes_per_call",
    "core_geometry.j_operator.calls_per_sweep",
    "core_geometry.j_operator.bytes",
    "matops.kron.bytes",
    "spd_geometry.ai_inner.calls_per_sweep",
}
# Share of the traced wall time that the benchmark loop itself may take
# outside the root spans.
SELF_TIME_SHARE = 0.05


@pytest.fixture
def tiny_run(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WORK", str(tmp_path / "work"))
    monkeypatch.setattr(bench, "OUT", str(tmp_path / "out"))
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)

    def run(workload, trace, seed=5):
        args = bench._parse(["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace), "--tiny"])
        return bench.run(args)

    return run


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_every_metric_is_emitted(tiny_run, workload):
    result, details = tiny_run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == E2E
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert details["machine"]["seed"] == 5 and details["machine"]["nproc"] >= 1

    result, details = tiny_run(workload, trace=1)
    assert result["correct"] and details["absent"] == []
    assert set(result["metrics"]) == LAYERS
    self_s = sum(result["metrics"][f"{m}.self_s"]["value"] for m in bench.MODULES)
    assert abs(self_s - details["traced_wall_s"]) <= SELF_TIME_SHARE * details["traced_wall_s"]


def test_derived_counts_repeat_exactly(tiny_run):
    first, _ = tiny_run("simulate-study", trace=1)
    second, _ = tiny_run("simulate-study", trace=1)
    counted = DERIVED | {name for name in LAYERS if name.endswith(".calls")}
    for name in counted:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["picse.sweeps"]["value"] > 0


def test_removed_function_is_reported_absent(tiny_run, monkeypatch):
    monkeypatch.delattr(picse, "base_estimator")
    result, details = tiny_run("fit-small", trace=1)
    assert result["correct"]
    assert details["absent"] == ["picse.base_estimator"]
    assert "picse.base_estimator.calls" not in result["metrics"]
    with Tracer(["picse.fit", "picse.gone"]) as tracer:
        pass
    assert tracer.absent == ["picse.gone"]


def test_escaping_exception_fails_only_its_operation():
    def boom():
        raise CapacityError("p*r above the dense limit")

    ops = [bw.Op("boom", boom), bw.Op("fine", lambda: 1)]
    outputs, errors = [], {}
    bench._run_pass(ops, Tracer([]), outputs, errors)
    assert [key for key, _ in outputs] == ["boom", "fine"]
    assert list(errors) == [0] and "CapacityError" in errors[0]


def test_reference_miss_counts_as_failure(tmp_path):
    wl = bw.workload("fit-small", tiny=True)
    op = wl.build(0, str(tmp_path))[0]
    outputs, errors = [(op.key, op.run())], {}
    reference = bw.load_reference("fit-small", tiny=True)
    bench._check_all(wl, outputs, errors, reference)
    assert errors == {}
    moved = {op.key: {"objective": reference[op.key]["objective"] * (1 + 1e-6)}}
    bench._check_all(wl, outputs, errors, moved)
    assert list(errors) == [0] and "final objective" in errors[0]


def test_tail_percentile():
    assert bench._tail(list(range(30))) == (19, 100.0 * 20 / 30)
    assert bench._tail([3.0, 1.0, 2.0]) == (2.0, None)
    assert bench._tail(list(range(20))) == (14.5, None)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "fit-small", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
