"""The benchmark harness in ``perfbench/`` still runs against this package.

``perfbench/layers.py`` wraps the package's functions by name, and the
workloads call public entry points.  A renamed or deleted function, method,
keyword or property that the harness uses makes a small run exit non-zero
or report wrong answers.  Each run writes only the git-ignored
``perfbench/raw/``.  ``scan_sweep_w2`` is left out at small scale: its
two-worker round is too short for the worker-CPU helper of the benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["pair_sweep", "scan_sweep", "graph_queries"])
def test_bench_small_run_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--scale", "small", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0
    assert result["metrics"]
