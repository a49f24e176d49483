"""Smoke test of the benchmark harness: the tiny grid, one round per workload.

Checks that every metric named in BENCHMARK.json is reported with its unit
and that no task fails; it asserts nothing about speed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


def _assert_metrics(result: dict, expected: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics(workload):
    info, result = _bench(workload, 0)
    assert info["task_fail_frac"] == 0
    _assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_metrics():
    info, result = _bench("deep_kernel", 1)
    assert info["task_fail_frac"] == 0
    _assert_metrics(result, SPEC["per_layer"])
    metrics = result["metrics"]
    assert metrics["ratint.kernel_dim"]["value"] > 0
    assert metrics["ptypical.conjecture_check.calls"]["value"] == 1
