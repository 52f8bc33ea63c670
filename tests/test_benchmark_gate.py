"""The benchmark's correctness gate, run on its own commands at seed 1.

``perfbench/`` judges each report against ``perfbench/expected.json``; this
runs the same commands through click's ``CliRunner`` so tier-1 catches a
changed verdict before a benchmark run does.
"""

import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from dyncert.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gate  # noqa: E402
import workloads  # noqa: E402

COMMANDS = [(key, argv) for name in workloads.WORKLOADS
            for key, argv in workloads.commands(name, 1)]


@pytest.mark.parametrize("key, argv", COMMANDS, ids=[k for k, _ in COMMANDS])
def test_gate_passes(key, argv):
    result = CliRunner().invoke(main, argv)
    assert gate.check(key, result.exit_code, result.stdout_bytes) is None
