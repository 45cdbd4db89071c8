"""Self-checks of the benchmark harness.

    python3 -m pytest -q perfbench/tests

Every workload runs once at the tiny size in each trace mode; the emitted
metric names must be the ones BENCHMARK.json declares, and every output must
match the reference.  A corrupted reference must be caught.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import bench_calib  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-2]) if len(lines) >= 2 else None
    result = json.loads(lines[-1]) if lines else None
    return proc, report, result


def tiny(workload, trace, *extra):
    return run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--size", "tiny", *extra
    )


def test_workloads_are_defined_at_every_size():
    assert sorted(WORKLOADS) == sorted(bw.WORKLOADS)
    for params in bw.SIZES.values():
        assert sorted(params) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct_and_emits_declared_metrics(workload, trace):
    proc, report, result = tiny(workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert report["error_rate"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert result["metrics"]["success_rate"]["value"] == 1.0
        assert all(v["value"] > 0 for v in result["metrics"].values())
    for key in ("nproc", "cpu_model", "python", "numpy", "seed", "loadavg_start", "loadavg_end"):
        assert key in report["machine"]


@pytest.mark.parametrize(
    "workload, key",
    [("table", "landau_g:600"), ("cli-warm", "cli:g --n 500"), ("window", "window_checks:13:0.45")],
)
def test_corrupted_reference_is_detected(tmp_path, workload, key):
    ref = json.loads((BENCH / "reference.json").read_text())
    entry = ref["tiny"][workload][key]
    if "sha256" in entry:
        entry["sha256"] = "0" * 64
    else:
        entry["checks"]["dp_match"] = not entry["checks"]["dp_match"]
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(ref))
    proc, report, result = tiny(workload, 0, "--reference", str(bad))
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert report["error_rate"] > 0
    assert result["metrics"]["success_rate"]["value"] < 1
    assert {f["key"] for f in report["failures"]} == {key}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, _, _ = run_bench("--workload", "table", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_dp_cells_counts_prime_power_relaxations():
    # prime powers <= 10: 2 4 8 3 9 5 7, each relaxing 11 - c budgets
    primes = [2, 3, 5, 7, 11, 13]
    assert bench_trace.dp_cells(primes, 10) == sum(11 - c for c in (2, 4, 8, 3, 9, 5, 7))
    assert bench_trace.dp_cells(primes, 1) == 0


def test_same_compares_floats_by_tolerance_and_the_rest_exactly():
    assert bw.same({"a": [1.0, True]}, {"a": [1.0 + 1e-15, True]})
    assert not bw.same({"a": [1.0, True]}, {"a": [1.0, 1]})
    assert not bw.same(1.0, True)
    assert not bw.same(0.66016186, 0.66016187)


def test_reference_seconds_scale_by_the_median_slice_of_their_phase():
    cal = bench_calib.Calibration()
    cal.slices = [9.0, 9.0, 9.0, 0.004, 0.02, 0.01]
    ref = bench_calib.REF_SLICE_S
    assert cal.to_ref(3.0, 3) == pytest.approx(3.0 * ref / 0.01)
    assert cal.to_ref(3.0, 0, 3) == pytest.approx(3.0 * ref / 9.0)
    cal.maybe()  # the last slice was never: one runs now
    assert len(cal.slices) == 7 and cal.slices[-1] > 0
