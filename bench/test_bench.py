"""Runs every benchmark workload briefly and checks what it reports."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COMMAND = [sys.executable, *SPEC["command"][1:]]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, workload, trace):
    args = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(COMMAND + args, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_workload_emits_every_metric(workload, trace, kind):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC[kind]}
    if trace:
        calls = {name: m["value"] for name, m in result["metrics"].items() if name.endswith(".calls")}
        assert calls["numkit.lu_solve.calls"] == 0
        assert (calls["implicitblock.reconstruct_input.calls"] > 0) == (workload == "spirals-reversible")
        assert (calls["numkit.solve_many.calls"] == 0) == (workload == "resnet-deep")


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
