"""The output contract: every command line of scripts/cli_commands.txt but
the -h lines, and every operation of the three benchmark workloads at seed
3, gives the exit code and the stdout and stderr bytes pinned in
tests/transcript.json.

Re-pin with ``python3 scripts/same_output.py pin --out tests/transcript.json``
only when an output is meant to change, and record which one and why.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

import same_output  # noqa: E402


def test_outputs_match_the_pinned_transcript(tmp_path):
    pinned = json.loads((ROOT / "tests" / "transcript.json").read_text(encoding="utf-8"))
    results = same_output.transcript(tmp_path)
    assert list(results) == list(pinned)
    assert [op for op, result in results.items() if result != pinned[op]] == []
