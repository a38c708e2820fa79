"""The benchmark's own tests.  Run with ``python3 -B -m pytest -q perfbench/selfcheck.py``.

The file name keeps it out of the tier-1 suite's default collection:
these tests run the benchmark end to end and take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.dont_write_bytecode = True
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402


def run(root: Path, workload: str, seed: int, seconds: float, trace: int
        ) -> tuple[int, list[str]]:
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180)
    return process.returncode, process.stdout.splitlines()


def git_status() -> str | None:
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return None
    return subprocess.run(["git", "status", "--porcelain", "--ignored"], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout


def declared(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


def test_declared_per_layer_metrics_match_the_tracer() -> None:
    assert declared("per_layer") == tracing.UNITS


def test_timed_run_prints_every_end_to_end_metric_and_leaves_checkout_unchanged() -> None:
    before = git_status()
    code, lines = run(ROOT, "survey-store-warm", 1, 1.5, 0)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == \
        declared("end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    context = json.loads(lines[-2])["context"]
    assert context["host"]["cpu_count"] and context["sizes"]["pairs"] == 1613
    if before is None:
        pytest.skip("not a git checkout")
    assert git_status() == before


def test_traced_run_reports_every_per_layer_metric() -> None:
    code, lines = run(ROOT, "policy-leafspine", 2, 2, 1)
    assert code == 0
    result = json.loads(lines[-1])
    assert result["correct"]
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert set(metrics) == set(tracing.UNITS)
    policies = [name for name in metrics if name.startswith("pipeline.policies.")
                and name.endswith(".s")]
    assert max(policies, key=metrics.get) == "pipeline.policies.adaptive-dual-rate.s"
    assert metrics["core.batch.s"] == 0 and metrics["trace.coverage"] > 0.9


def _copy(destination: Path, *names: str) -> Path:
    for name in names:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, destination / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy(source, destination / name)
    return destination


def test_benchmark_alone_fails_without_a_result(tmp_path: Path) -> None:
    code, lines = run(_copy(tmp_path, "BENCHMARK.json", "perfbench"),
                      "policy-leafspine", 1, 1, 0)
    assert code != 0 and lines == []


def test_a_digest_mismatch_fails_the_run(tmp_path: Path) -> None:
    root = _copy(tmp_path, "BENCHMARK.json", "perfbench", "src")
    pinned_path = root / "perfbench" / "pinned.json"
    pinned = json.loads(pinned_path.read_text())
    pinned["policy-leafspine"]["1"]["nrmse"] = "0" * 16
    pinned_path.write_text(json.dumps(pinned))
    code, lines = run(root, "policy-leafspine", 1, 1, 0)
    result = json.loads(lines[-1])
    assert code == 1 and not result["correct"] and result["failed"] >= 1


def test_self_time_subtracts_child_spans() -> None:
    tracer = tracing.Tracer(run="unit")
    tracer.spans = [tracing.Span("workload", 0.0, 10.0, None, "unit"),
                    tracing.Span("layer", 1.0, 4.0, 0, "unit"),
                    tracing.Span("layer", 5.0, 6.0, 0, "unit"),
                    tracing.Span("inner", 2.0, 3.5, 1, "unit")]
    assert tracer.self_times() == {"workload": 6.0, "layer": 2.5, "inner": 1.5}
    assert tracer.wall() == 10.0
