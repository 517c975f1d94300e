"""``eval`` writes its CSV header as soon as the columns are final, then each
row as soon as its session is scored, with the bytes it would write at the end.

Each test wraps ``cli._eval_session`` to record what stdout holds whenever a
session is about to be scored.
"""

import io
import shutil
from pathlib import Path

import pytest

from simulatency import cli
from simulatency.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class Stdout(io.StringIO):
    """A stdout that keeps what it held at each ``flush``."""

    def __init__(self):
        super().__init__()
        self.flushed = []

    def flush(self):
        self.flushed.append(self.getvalue())


@pytest.fixture
def run_eval(monkeypatch):
    """``run_eval(*argv)``: the exit code, the stdout, what stdout held as each
    session was about to be scored, and what it held at each flush."""

    def run(*argv):
        out = Stdout()
        seen = []
        score = cli._eval_session

        def recorded(*args, **kwargs):
            seen.append(out.getvalue())
            return score(*args, **kwargs)

        monkeypatch.setattr("sys.stdout", out)
        monkeypatch.setattr(cli, "_eval_session", recorded)
        code = main(["eval", *map(str, argv)])
        monkeypatch.undo()
        return code, out.getvalue(), seen, out.flushed

    return run


def test_rows_of_one_kind_of_session_leave_as_they_are_scored(run_eval):
    # three unit-step sessions without a reference: one default set, final
    # once the first session has scored it
    code, text, seen, flushed = run_eval(FIXTURES / "simulate_wait_k.stdout")
    assert code == 0
    lines = text.splitlines(keepends=True)
    assert len(lines) == 5  # header, three rows, corpus
    assert seen == ["", "".join(lines[:2]), "".join(lines[:3])]
    assert flushed == ["".join(lines[:2])]  # once, after the header and the first row


def test_metrics_flag_writes_the_header_before_any_session_is_scored(run_eval):
    code, text, seen, flushed = run_eval(
        FIXTURES / "mixed_traces.jsonl", "--metrics", "al,atd"
    )
    assert code == 0
    lines = text.splitlines(keepends=True)
    assert lines[0] == "id,modality,timeline,src_len,tgt_len,al,atd\n"
    assert seen == ["".join(lines[:k + 1]) for k in range(9)]
    assert flushed == ["".join(lines[:2])]


def test_header_waits_until_every_default_metric_has_been_scored(run_eval):
    # al_ref and laal: the fourth session, the only unit-step one with a
    # reference; atd and the offsets: the fifth, the first timed one
    code, text, seen, _ = run_eval(FIXTURES / "mixed_traces.jsonl")
    assert code == 0
    assert text == (FIXTURES / "mixed_report.csv").read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    assert seen == [""] * 5 + ["".join(lines[:k]) for k in range(6, 10)]


def test_header_of_a_metric_first_scored_by_the_last_session_waits_until_the_end(
    run_eval, tmp_path
):
    # the one unit-step session with a reference moved to the end: each
    # column's values keep their order, so the report is the golden one with
    # that row moved before the corpus row
    records = (FIXTURES / "mixed_traces.jsonl").read_text(encoding="utf-8").splitlines(True)
    last = [r for r in records if '"hand-ref"' in r]
    traces = tmp_path / "traces.jsonl"
    traces.write_text("".join([r for r in records if r not in last] + last), encoding="utf-8")
    golden = (FIXTURES / "mixed_report.csv").read_text(encoding="utf-8").splitlines(True)
    moved = [row for row in golden if row.startswith("hand-ref,")]
    rest = [row for row in golden if row not in moved]

    code, text, seen, flushed = run_eval(traces)
    assert code == 0
    assert text == "".join(rest[:-1] + moved + rest[-1:])
    assert seen == [""] * 9
    assert flushed == ["".join(rest[:-1] + moved)]


def test_report_may_replace_its_own_input(tmp_path, capsys):
    # -o is opened after the read, so it may name the trace file
    traces = tmp_path / "traces.jsonl"
    shutil.copy(FIXTURES / "mixed_traces.jsonl", traces)
    assert main(["eval", str(traces), "-o", str(traces)]) == 0
    assert traces.read_bytes() == (FIXTURES / "mixed_report.csv").read_bytes()
