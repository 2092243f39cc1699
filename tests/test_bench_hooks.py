"""The benchmark's tracing hooks, checked from the tier-1 run.

bench/hook_selftest.py is kept out of a plain pytest run (its modules would
enter Hypothesis's constant pool), so it runs here in a child process: a
change that breaks a traced name or its call shape, such as passing floats
where the tracer counts len(s), fails tier-1 instead of only the benchmark.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_hook_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "bench/hook_selftest.py", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    assert "12 passed" in proc.stdout
