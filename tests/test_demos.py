"""Each demo tour runs to completion and prints exactly its pinned output."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

import fishburn

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("tour_*.py"))

# sha256 of each tour's stdout; a change to what a tour prints must change
# this table with it
STDOUT_SHA256 = {
    "tour_counting.py": "953056300f9c757ec6f1ff84d699b6c1f1a6fb5d4a004abaa153c662d6d2019b",
    "tour_matchings.py": "81e977aad86f96123f621fefe08821a1f8abb71f1707eafcb33c5b761b3c3e17",
    "tour_matrices.py": "70a65382f3f31828876c169b426046d532bfe41c11a89c19b6accb5a7bccafed",
    "tour_posets.py": "b677ff89e9b834ceb690bedb1dec3c41e464c1c2deef051b8fd2db2d7b99c2a5",
}


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_tour_runs(path):
    # the child imports the same package as this process, installed or not
    package_root = os.path.dirname(os.path.dirname(fishburn.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, str(path)], capture_output=True,
                            env=env, timeout=120)
    assert result.returncode == 0, result.stderr.decode(errors="replace")
    assert result.stdout.strip()
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[path.name]


def test_tours_found():
    # an empty glob would leave test_tour_runs with nothing to run, and a new
    # tour needs its pinned output
    assert DEMOS
    assert {path.name for path in DEMOS} == set(STDOUT_SHA256)
