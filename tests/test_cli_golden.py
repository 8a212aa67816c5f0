"""The benchmark's CLI commands must reproduce their recorded outputs.

Runs every command of the benchmark's ``cli_mix`` workload in process and
compares exit codes and parsed outputs with ``perfbench/expected/cli_mix.json``
through the benchmark's own check, so numbers may differ by
``DEFAULT.oracle_agreement``.  A CLI refactor that changes an output fails
here, not only in the benchmark.
"""

import json
import sys
from pathlib import Path

import pytest

import kcprobe.cli  # noqa: F401  (call_cli reaches main through kcprobe.cli)

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH_DIR))

from workloads import CLI_COMMANDS, CLI_EXPECTED, _diff, call_cli, read_cli_outputs  # noqa: E402

EXPECTED = json.loads(CLI_EXPECTED.read_text(encoding="utf-8"))


@pytest.mark.parametrize("label", list(CLI_COMMANDS))
def test_cli_output_matches_the_recorded_one(tmp_path, label):
    want = EXPECTED[label]
    assert call_cli(label, tmp_path) == want["exit"]
    assert _diff(read_cli_outputs(label, tmp_path), want["output"]) == []
