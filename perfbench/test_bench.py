"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench/test_bench.py

Each test runs the benchmark as a subprocess from the checkout root.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["design", "certify", "verify"])
def test_traced_work_counts_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", "1")
    first, second = result(run(*args)), result(run(*args))
    assert first["correct"] and second["correct"]
    counts = {name: m["value"] for name, m in first["metrics"].items()
              if m["unit"] == "count"}
    assert counts
    assert counts == {name: second["metrics"][name]["value"]
                      for name in counts}


def test_bench_fails_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
