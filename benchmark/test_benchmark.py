"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest benchmark/test_benchmark.py

Runs every workload with ``--quick`` untraced and traced, and checks that each
metric ``BENCHMARK.json`` names is printed with its unit and direction, that
the traced run reports every listed span, and that the benchmark refuses to
run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH_DIR))
from spans import SPAN_NAMES  # noqa: E402

# Listed spans that no workload reaches: clip0 runs only with map_mode "clip",
# euclidean_prototype_rows only when training with an l2 CPCC (the l2cpcc
# checkpoint of analyze-c100 is trained in untimed, untraced set-up).
UNREACHED_SPANS = {"geometry.clip0", "objective.euclidean_prototype_rows"}


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            out[workload, trace] = (lines[:-1], json.loads(lines[-1]))
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit_and_direction(results, workload, trace):
    lines, result = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        prefix = f"  {metric['name']} = "
        suffix = f" {metric['unit']} ({metric['better']} is better)"
        assert any(line.startswith(prefix) and line.endswith(suffix) for line in lines), \
            metric["name"]


def test_traced_run_yields_every_listed_span(results):
    called = set()
    for workload in WORKLOADS:
        metrics = results[workload, 1][1]["metrics"]
        for span in SPAN_NAMES:
            assert f"{span}.calls" in metrics and f"{span}.self_s" in metrics
            if metrics[f"{span}.calls"]["value"] > 0:
                called.add(span)
    assert called == set(SPAN_NAMES) - UNREACHED_SPANS


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
