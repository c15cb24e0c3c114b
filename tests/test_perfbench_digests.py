"""Every benchmark operation must keep its pinned exit code and stdout digest.

perfbench/workloads.json pins, per operation, the exit code and the sha256 of
stdout.  The benchmark counts an operation whose bytes changed as failed; this
test runs the same operations in-process through cli.main so that a changed
report fails the test suite first.
"""

import hashlib
import json
from pathlib import Path

import pytest

from scarflab.cli import main

WORKLOADS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "workloads.json").read_text()
)
OPS = [
    pytest.param(op, id=f"{name}-{index}")
    for name, workload in WORKLOADS.items()
    for index, op in enumerate(workload["ops"])
]


@pytest.mark.parametrize("op", OPS)
def test_op_matches_pinned_digest(op, capsys):
    assert main(op["argv"]) == op["exit"]
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == op["sha256"]
