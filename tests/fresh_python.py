"""Run Python in a fresh interpreter that imports sliceobs from this
checkout, for what only a new process shows: checks that must survive
`python -O`, which strips asserts, and the demo scripts."""

import os
import subprocess
import sys

import sliceobs

SRC = os.path.dirname(os.path.dirname(sliceobs.__file__))


def run_python(args, timeout, stdout=subprocess.PIPE):
    """`python *args` with a timeout and text stderr captured, and stdout
    too unless another target is given."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], stdout=stdout,
                          stderr=subprocess.PIPE, text=True,
                          timeout=timeout, env=env)
