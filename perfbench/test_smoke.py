"""Smoke test of the benchmark: every workload at reduced size, both modes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

Asserts that the result line carries every metric BENCHMARK.json names,
with its unit, and that the output checks ran.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_and_checks_ran(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace and workload == "oracle_kernel":
        assert result["metrics"]["qm_oracle.ground_state_calls"]["value"] == 3
        assert result["metrics"]["qm_oracle.ground_state_distinct_grids"]["value"] == 2
    if workload == "mode_algebra":
        # the reduced ladder still reaches N = 128, where the fixed FD step
        # gives false FAILs; they must be counted
        assert result["failed"] > 0


def test_refuses_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "acceptance_grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
