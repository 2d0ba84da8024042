"""Smoke test of the benchmark's traced run, which reads every tape's nodes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["classify-300", "align-quate-200"])
def test_traced_benchmark_run_reports_tape_memory(workload):
    # tracing sums the live values of `tape.nodes` at backward and per
    # layer; a tape whose nodes lost that view would fail or read 0 here.
    # align-quate-200 runs the traced harness through the QuatE vjps
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    metrics = result["metrics"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} <= metrics.keys()
    assert metrics["autodiff.tape_mib"]["value"] > 0
    assert metrics["propagation.layer0.tape_mib"]["value"] > 0
