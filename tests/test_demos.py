"""Each demo tour runs to completion and prints something."""

import os
import pathlib
import subprocess
import sys

import pytest

import fishburn

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("tour_*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_tour_runs(path):
    # the child imports the same package as this process, installed or not
    package_root = os.path.dirname(os.path.dirname(fishburn.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, str(path)], capture_output=True,
                            text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_tours_found():
    # an empty glob would leave test_tour_runs with nothing to run
    assert DEMOS
