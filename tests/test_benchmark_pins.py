"""The benchmark in perfbench/ wraps qcrack functions by name and checks
the model against the dense oracle. A traced run fails if a name it wraps
is gone, or if forward drifts from the oracle by more than 1e-12."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_benchmark_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "epoch-backprop",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
