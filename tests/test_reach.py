"""The CI workflow and the reach table of ``tests/reach.py`` name one list of
reach runs: every row pins the SHA-256 of its stdout, some step runs it, and
no step hashes a stdout itself."""

import re
from pathlib import Path

from reach import REACH

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_every_row_pins_a_digest():
    for row, (_, digest, _, _) in REACH.items():
        assert re.fullmatch(r"[0-9a-f]{64}", digest or ""), row


def test_every_row_is_run_by_a_step():
    text = WORKFLOW.read_text()
    run = [row for rows in re.findall(r"run: python tests/reach\.py ([\w ]+)$", text, re.M)
           for row in rows.split()]
    assert set(run) == set(REACH)
    assert len(run) == len(set(run))


def test_no_step_hashes_a_stdout_itself():
    assert "sha256sum" not in WORKFLOW.read_text()
