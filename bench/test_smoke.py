"""Smoke test for the benchmark: every workload at tiny sizes, with every output check on.

    python -m pytest bench/test_smoke.py

Each case runs the real command in a subprocess and takes a few seconds.
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "0", "--seconds", "0.5",
         "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, timeout=120, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_passes_every_check(workload, trace):
    out = run(workload, trace)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    detail, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["digest_pinned"], "no digest pinned for the smoke size"
    assert detail["oracle_sampled"] and not detail["oracle_mismatches"]
    assert all(count > 0 for count in detail["stop_counts"].values())
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
