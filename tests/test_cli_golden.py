"""The benchmark's four ``cli_stream`` commands print exactly the bytes
pinned in ``bench/golden.json``: the matching JSON lines, the two CSV
distribution tables and the poset JSON lines."""

import hashlib
import importlib.util
import pathlib
import subprocess
import sys

import pytest

from test_cli import package_env

RUN = pathlib.Path(__file__).resolve().parent.parent / "bench" / "run.py"


def _harness():
    # registered before it runs, as its dataclasses look their module up
    spec = importlib.util.spec_from_file_location("fishburn_bench_harness", RUN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


BENCH = _harness()
GOLDEN = BENCH.load_golden()["cli_sha256"]


@pytest.mark.parametrize("name", sorted(BENCH.CLI_COMMANDS))
def test_stdout_matches_golden(name):
    child = subprocess.run([sys.executable, "-m", "fishburn.cli", *BENCH.CLI_COMMANDS[name]],
                           capture_output=True, env=package_env(), timeout=120)
    assert child.returncode == 0, child.stderr.decode(errors="replace")
    assert hashlib.sha256(child.stdout).hexdigest() == GOLDEN[name]
