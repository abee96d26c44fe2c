"""The narrated scripts in demos/ run to completion."""

import glob
import os

import pytest

from fresh_python import run_python

DEMOS = sorted(glob.glob(os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "demos", "*.py")))


def test_demos_found():
    # an empty list would parametrize no runs at all
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path):
    proc = run_python([path], 120)
    assert proc.returncode == 0, proc.stderr
