"""Smoke test for the benchmark itself, on tiny inputs.

    python3 -m pytest -q perfbench/check_smoke.py

Runs every workload end to end in both modes and checks that the printed
metric names and units are exactly those in BENCHMARK.json. The file name
keeps it out of the package's default test collection, since it spawns
benchmark processes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from spans import DenseBudgetExceeded, DenseGuard, Tracer  # noqa: E402
from workloads import WORKLOADS, compare, load_references  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_declared_metrics(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    assert "reference=yes" in proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "contended_su", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("scale", ["smoke", "full"])
def test_oracle_check_catches_bias_but_not_reordering(scale):
    workload = WORKLOADS["oracle_validate"]
    references, mean_sd = load_references(scale, workload)
    want = references["1"]
    for i, sd in enumerate(mean_sd):
        shifted = [dict(d) for d in want]
        shifted[i]["mc_mean"] += sd
        assert compare(workload, shifted, want, "shift", mean_sd) == []
        shifted[i]["mc_mean"] = 1.1 * want[i]["mc_mean"]
        assert compare(workload, shifted, want, "bias", mean_sd)


def test_dense_guard_refuses_before_the_kernel_runs():
    calls = []
    kernel = DenseGuard(budget=8 * 10 * 100 - 1).wrap(
        "rates.su_channel_state_rates", lambda *a: calls.append(a))
    states = np.zeros((10, 3), dtype=np.uint8)
    with pytest.raises(DenseBudgetExceeded):
        kernel(None, None, None, [0, 1, 2], states, None, 100)
    assert not calls


def test_absent_function_is_reported_not_fatal():
    from wlanmodel import rates

    saved = rates.average_over_ctmc
    del rates.average_over_ctmc
    try:
        tracer = Tracer()
        with tracer.operation(1):
            pass
        assert "rates.average_over_ctmc" in tracer.absent_spans()
    finally:
        rates.average_over_ctmc = saved
