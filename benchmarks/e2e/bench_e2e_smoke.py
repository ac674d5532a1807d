"""``pytest benchmarks/e2e`` runs the benchmark's correctness smoke.

``run.py --check`` pushes each workload's reduced twin through that
workload's own path (C serial, C 2-worker DAG, default options, served
burst, served solo) and compares it bitwise with the Phase-1
interpreter.  It fails on a wrong result or a missing C toolchain, never
on timing.  Tier-1's ``testpaths = tests`` keeps it out of the default
suite.
"""

import subprocess
import sys
from pathlib import Path


def test_e2e_check_mode():
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--check"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
