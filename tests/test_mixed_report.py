"""Golden reports for a corpus that mixes unit-step and timed sessions.

``fixtures/mixed_traces.jsonl`` holds ``simulate --strategy wait-k --k 1..3
--src-len 8 --tgt-len 7`` output, one hand-written unit-step session with a
reference, the two ``nca`` contrast sessions and three ``ca`` sessions with
spans.  Its reports pin what only a mixed corpus shows: the default columns
chosen across steps and timed rows, full-precision and one-decimal cells in
the same file, and the corpus row: an empty cell, with a warning, for a
column whose rows mix unit steps and ms, and a mean for the others.  The
committed CSV, JSON and stderr files are the outputs of ``eval``,
``eval --timeline steps`` and ``eval --granularity char:2 --metrics
al,al_ref,laal,atd,start_offset``; any change to them is a change in
behaviour.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

RUN_CLI = "import sys; from simulatency.cli import main; sys.exit(main(sys.argv[1:]))"


@pytest.mark.parametrize(
    "name, flags",
    [
        ("mixed_report", []),
        ("mixed_report_steps", ["--timeline", "steps"]),
        (
            "mixed_report_char2",
            ["--granularity", "char:2", "--metrics", "al,al_ref,laal,atd,start_offset"],
        ),
    ],
)
def test_mixed_fixture_reports_are_byte_identical(tmp_path, name, flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-c", RUN_CLI, "eval", str(FIXTURES / "mixed_traces.jsonl"),
         *flags, "-o", str(csv_path), "--json", str(json_path)],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b""
    assert proc.stderr == (FIXTURES / f"{name}.stderr").read_bytes()
    assert csv_path.read_bytes() == (FIXTURES / f"{name}.csv").read_bytes()
    assert json_path.read_bytes() == (FIXTURES / f"{name}.json").read_bytes()
