"""Self-check of the benchmark: each workload once at reduced size.

Run from the root of a checkout with ``python3 -m pytest perfbench/test_selfcheck.py``.
It checks that every end-to-end metric is printed with its unit, that
every per-layer metric is in the traced output, and that the layer self
times plus ``cli.unaccounted_s`` add up to the traced wall.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(HERE))
from tracing import SELF_TIME_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_bench(workload: str, trace: int) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), done.stdout


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics_printed_with_units(workload):
    result, stdout = run_bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in BENCH["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"]) and reported["value"] > 0
        assert f"{metric['name']} = " in stdout and f" {metric['unit']}\n" in stdout


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_layers_present_and_add_up(workload):
    result, _ = run_bench(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in BENCH["per_layer"]}
    for metric in BENCH["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
    self_total = sum(metrics[name]["value"] for name in SELF_TIME_METRICS)
    assert self_total == pytest.approx(metrics["trace.wall_s"]["value"], rel=1e-9)
    assert all(metrics[name]["value"] >= 0 for name in SELF_TIME_METRICS)
