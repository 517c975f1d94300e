"""Golden ``evs`` reports, compared byte for byte.

``fixtures/evs_alignments.jsonl`` covers exact duplicate links (dropped with
a warning), links that differ only in their ``verified`` flag (one kept,
verified, and the other counted in the duplicate warning),
unverified links, a link without a ``verified`` field, a sentence whose links
are all unverified, a sentence with no links, integer-valued floats, a
negative span and one target word aligned to several source words.  The
committed CSV and stderr files are the outputs of ``evs`` in both modes; any
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
    "name, mode", [("evs_report", "verified-only"), ("evs_report_automatic", "automatic")]
)
def test_evs_fixture_reports_are_byte_identical(tmp_path, name, mode):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    csv_path = tmp_path / "report.csv"
    proc = subprocess.run(
        [sys.executable, "-c", RUN_CLI, "evs", str(FIXTURES / "evs_alignments.jsonl"),
         "--mode", mode, "-o", str(csv_path)],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b""
    assert proc.stderr == (FIXTURES / f"{name}.stderr").read_bytes()
    assert csv_path.read_bytes() == (FIXTURES / f"{name}.csv").read_bytes()
