"""Smoke-size check of every benchmark workload.

Run from the repository root with ``python -m pytest bench/test_bench.py``.
Every workload of BENCHMARK.json runs at its smoke size, untraced and traced.
The test checks the result line against BENCHMARK.json and the bypass checks
of the traced run.  It sets no wall-clock bound.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))
from run import WORKLOADS  # noqa: E402


def _run(workload, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    path = ROOT / f"bench/out/smoke-{workload}-seed3-trace{trace}.json"
    return line, json.loads(path.read_text())


def test_every_workload_is_registered():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_reports_every_end_to_end_metric(workload):
    line, result = _run(workload, 0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in line["metrics"].values())
    meta = result["meta"]
    for key in ("git_sha", "nproc", "python", "numpy", "scipy", "blas",
                "thread_env", "seed"):
        assert key in meta
    assert meta["seed"] == 3
    assert result["summaries"]["setup_s"]["n"] >= 3


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_reports_every_layer_metric(workload):
    line, result = _run(workload, 1)
    assert line["correct"] and line["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert metrics["trace_overhead"] > 0
    bypass = result["bypass"]
    if workload.startswith("stability"):
        assert bypass["opalg.compose+spectral.compose_*"] == 0
        assert metrics["dynamics.stability_report.calls"] >= 1
    else:
        assert bypass["dynamics.*"] == 0
        assert metrics["solver.nash_moser.calls"] >= 1
        assert metrics["opalg.compose.calls"] >= 1
    if workload.startswith("solve"):
        assert metrics["solver.galerkin_newton.total_s"] > 0
        assert metrics["nonlin.parse_nonlinearity.calls"] == 0
    if workload.startswith("scan"):
        assert metrics["nonlin.parse_nonlinearity.calls"] == metrics["solver.nash_moser.calls"]
