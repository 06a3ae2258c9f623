"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest perfbench -q
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
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_prints_contract_line(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out.stderr
    assert result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    # the only failures are the hover windows, reported with their stage
    expected_failed = 1 if workload == "window" else 0
    assert result["failed"] == expected_failed * result["attempted"] // 3


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "window", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_every_traced_function_is_meant_for_some_workload():
    meant = set().union(*(w.expected for w in workloads.WORKLOADS.values()))
    assert meant == set(tracing.FUNCTIONS)


def test_tracer_wraps_every_alias_and_restores():
    from planar_init import homography, initializer

    original = homography.estimate
    with tracing.Tracer() as tracer:
        assert initializer.estimate is homography.estimate
        assert homography.estimate is not original
        assert not tracer.missing
    assert homography.estimate is original and initializer.estimate is original


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [["outer", 0.0, 1.0, -1, 0], ["inner", 0.2, 0.5, 0, 0],
                    ["inner", 0.6, 0.7, 0, 3]]
    summary = tracer.summary()
    assert summary["outer"]["self_ms"] == pytest.approx(600.0)
    assert summary["inner"]["calls"] == 2 and summary["inner"]["work"] == 3
    assert summary["inner"]["ms"] == pytest.approx(400.0)


def test_sweep_accuracy_does_not_depend_on_calls_made(tmp_path):
    figures = []
    for rounds in (0, 2):
        wl = workloads.SweepFull(5, True, tmp_path, True)
        for _ in range(rounds):
            wl.run_round()
        assert wl.check() == []
        figures.append(wl.accuracy())
    assert figures[0] == figures[1]
