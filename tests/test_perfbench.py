"""The benchmark's traced pass, run as the benchmark runs it: a traced pass
exits 1 when a child process crashes, an output check fails or the spans
cover less than 99% of a pass, so each workload must exit 0 and report
correct.  The tracer's targets must name functions spbvp still has, or
their spans silently read 0."""
import importlib
import importlib.util
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


# Tracer targets that name functions spbvp.harness no longer has; the next
# change to the benchmark retargets them.  A target that comes back must be
# taken off this list.
STALE_TARGETS = {
    "spbvp.harness.shishkin",
    "spbvp.harness.diagnostics",
    "spbvp.harness.check_gamma",
    "spbvp.harness.oracle_reference",
}


def test_tracer_targets_resolve_except_the_known_stale_ones(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = {
        f"{module}.{attr}"
        for module, attr, _, _ in tracer.PATCHES
        if not hasattr(importlib.import_module(module), attr)
    }
    assert missing == STALE_TARGETS
