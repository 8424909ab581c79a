"""Self-test of the benchmark, in its quick mode.

    python3 -m pytest bench/test_bench.py

Each run is a separate process, as the benchmark is run for real.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int = 0, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.1", "--trace", str(trace), "--quick"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def result(proc: subprocess.CompletedProcess) -> tuple[list[str], dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def count_lines(lines: list[str]) -> list[str]:
    """Lines that must repeat exactly: task outcomes and count metrics."""
    counted = ("e2e map_evals", "e2e walk_steps", "e2e failed_frac")
    return [line for line in lines if line.startswith(("task ",) + counted)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_is_correct_and_repeats(workload):
    lines, res = result(run(workload))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"], [line for line in lines if line.startswith("PROBLEM")]
    assert res["metrics"] == {
        m["name"]: {"value": res["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in res["metrics"].values())
    # the default-tolerance dottie solve does not converge at the seed commit
    assert (res["failed"] > 0) == (workload == "refine")

    again, res_again = result(run(workload))
    assert count_lines(again) == count_lines(lines)
    assert (res_again["attempted"] > 0) and res_again["correct"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    lines, res = result(run(workload, trace=1))
    assert res["correct"], [line for line in lines if line.startswith("PROBLEM")]
    assert [(name, m["unit"]) for name, m in res["metrics"].items()] == [
        (m["name"], m["unit"]) for m in SPEC["per_layer"]
    ]
    assert res["metrics"]["functions.evals"]["value"] > 0
    assert res["metrics"]["trace.overhead"]["value"] > 0

    _, again = result(run(workload, trace=1))
    counts = [name for name, m in res["metrics"].items() if m["unit"] == "count"]
    assert [again["metrics"][name] for name in counts] == [res["metrics"][name] for name in counts]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], root=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
