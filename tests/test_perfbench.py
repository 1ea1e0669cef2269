"""The benchmark's traced pass, run as the benchmark runs it: a traced pass
exits 1 when a child process crashes, an output check fails or the spans
cover less than 99% of a pass, so each workload must exit 0 and report
correct."""
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["scalar-studies", "system-studies", "large-solve"])
def test_traced_benchmark_pass_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
