"""The benchmark's workloads call the package; a change in the package that
breaks one of them must fail here, not only in a benchmark run."""

import os
import subprocess
import sys

SELFTEST = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "selftest.py")


def test_harness_selftest_passes():
    """Every workload runs and emits its metrics, and a corrupted output counts
    as failed; the self-test writes only under the ignored perfbench/.run/."""
    done = subprocess.run([sys.executable, SELFTEST], capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "selftest passed"
