"""Shared test helpers."""

import os
import subprocess
import sys

import pytest

import dotlink


@pytest.fixture
def fresh_peak_mb():
    """A probe that runs code in a fresh single-threaded Python and returns
    its peak RSS in MB.

    The peak is the child's own VmHWM; ru_maxrss would also count the
    resident set it inherited from the spawning test process at exec.
    """
    src = os.path.dirname(os.path.dirname(dotlink.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1"}

    def probe(code: str) -> float:
        code += "\nprint(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        return int(out) / 1024

    return probe
