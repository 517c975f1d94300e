"""Golden reports for the speech fixture, compared byte for byte.

``fixtures/speech_traces.jsonl`` covers the timed paths that sub-segmentation
and nca re-scheduling take: speech-to-speech and speech-to-text, ``ca`` with
spans, with an empty span list and without spans, ``nca``, chunks that are an
exact multiple of tau, zero-duration and overlapping chunks (ATD skipped with
a warning), and pipelined ``ca`` output.  The committed CSV, JSON and stderr
files are the outputs of ``eval`` and ``eval --timeline nca`` on it; any
change to them is a change in behaviour.
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
    [("speech_report", []), ("speech_report_nca", ["--timeline", "nca"])],
)
def test_speech_fixture_reports_are_byte_identical(tmp_path, name, flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-c", RUN_CLI, "eval", str(FIXTURES / "speech_traces.jsonl"),
         *flags, "-o", str(csv_path), "--json", str(json_path)],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b""
    assert proc.stderr == (FIXTURES / f"{name}.stderr").read_bytes()
    assert csv_path.read_bytes() == (FIXTURES / f"{name}.csv").read_bytes()
    assert json_path.read_bytes() == (FIXTURES / f"{name}.json").read_bytes()
