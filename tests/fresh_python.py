"""Run Python in a fresh interpreter that imports sliceobs from this
checkout, for what only a new process shows: checks that must survive
`python -O`, which strips asserts, and the demo scripts."""

import os
import subprocess
import sys

import sliceobs

SRC = os.path.dirname(os.path.dirname(sliceobs.__file__))


def run_python(args, timeout):
    """`python *args` with text output captured and a timeout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=timeout, env=env)
