"""The benchmark's self-tests (perfbench/test_*.py), run in a child
process: one of them installs the tracer, which wraps library functions
and must never do so in this process.  Their seed-independence test runs
every workload's jobs with the answers checked, so a library change that
breaks a bench answer fails here too."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_self_tests_pass():
    run = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench",
         "-p", "test_*.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-4000:]
