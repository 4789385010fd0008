"""The benchmark's own tests, run from tier-1.

``bench/tests`` pins what the benchmark reads from the package: the names
its tracer wraps, the calls per layer, and that tracing changes no result.
It runs in a subprocess because its ``conftest`` module would clash with
the one here (both are imported as ``conftest``).
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_suite_passes():
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "bench/tests"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
