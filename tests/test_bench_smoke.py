"""The benchmark harness still runs: one quick round of every workload.

`bench/run.py --quick` sets up each workload once, runs one round and
checks its outputs (including LDP-only == full protocol at N = 10,000);
it exits non-zero if any check fails.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_quick_benchmark_run_passes_every_gate():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
