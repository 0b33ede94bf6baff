"""Shared test helpers."""

import ast
import os
import subprocess
import sys

import pytest

import dotlink


SRC = os.path.dirname(os.path.dirname(dotlink.__file__))


@pytest.fixture
def fresh_peak_mb():
    """A probe that runs code in a fresh single-threaded Python and returns
    its peak RSS in MB.

    The peak is the child's own VmHWM; ru_maxrss would also count the
    resident set it inherited from the spawning test process at exec.
    """
    env = {**os.environ, "PYTHONPATH": SRC, "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1"}

    def probe(code: str) -> float:
        code += "\nprint(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        return int(out) / 1024

    return probe


@pytest.fixture
def fresh_modules():
    """A probe that runs code in a fresh Python and returns the dotlink
    submodules, numpy and scipy that it loaded, by module name."""
    env = {**os.environ, "PYTHONPATH": SRC}

    def probe(code: str) -> set:
        code += ("\nimport sys\nprint(sorted(m for m in sys.modules\n"
                 "             if m.startswith('dotlink.') or m in ('numpy', 'scipy')))\n")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        return set(ast.literal_eval(out.splitlines()[-1]))

    return probe
