"""``cli.METRICS`` is the one list of metrics: each name dispatches to one
kernel per timeline, looked up in ``cli`` when called, and README documents
exactly these names."""

import csv
import json
import re
from pathlib import Path

import pytest

import simulatency
from simulatency import (
    RATIO_HYPOTHESIS,
    RATIO_LENGTH_ADAPTIVE,
    RATIO_REFERENCE,
    TraceError,
    gen_wait_k,
    read_sessions,
    session_to_record,
)
from simulatency import cli

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

STUB_VALUE = 7.25  # printed "7.25" by a unit-step kernel, "7.2" by a wall-clock one

# (metric, unit-step or timed trace file, the cli kernel it must call, that
# kernel's arguments after the first, the printed cell)
DISPATCH = [
    ("al", "steps", "average_lagging", (RATIO_HYPOTHESIS,), "7.25"),
    ("al_ref", "steps", "average_lagging", (RATIO_REFERENCE,), "7.25"),
    ("laal", "steps", "average_lagging", (RATIO_LENGTH_ADAPTIVE,), "7.25"),
    ("dal", "steps", "differentiable_average_lagging", (), "7.25"),
    ("ap", "steps", "average_proportion", (), "7.25"),
    ("cw", "steps", "consecutive_wait", (), "7.25"),
    ("atd", "steps", "atd_steps", (), "7.25"),
    ("atd", "timed", "atd_timed", (), "7.2"),
    ("start_offset", "timed", "start_offset", (), "7.2"),
    ("end_offset", "timed", "end_offset", (), "7.2"),
]


def eval_rows(capsys, *argv):
    assert cli.main(["eval", *argv]) == 0
    return list(csv.DictReader(capsys.readouterr().out.splitlines()))


def test_dispatch_cases_cover_every_kernel_of_the_table():
    step_names = [m for m, kind, *_ in DISPATCH if kind == "steps"]
    timed_names = [m for m, kind, *_ in DISPATCH if kind == "timed"]
    assert step_names == [m for m, (step, _) in cli.METRICS.items() if step is not None]
    assert timed_names == [m for m, (_, timed) in cli.METRICS.items() if timed is not None]


@pytest.mark.parametrize("metric, kind, kernel, extra_args, cell", DISPATCH)
def test_each_metric_reports_what_its_kernel_returns(
    tmp_path, capsys, monkeypatch, metric, kind, kernel, extra_args, cell
):
    if kind == "steps":
        traces = tmp_path / "steps.jsonl"
        traces.write_text(json.dumps(session_to_record(gen_wait_k(2, 4, 4))) + "\n")
    else:
        traces = FIXTURES / "contrast_traces.jsonl"
    calls = []

    def stub(*args):
        calls.append(args[1:])
        return STUB_VALUE

    monkeypatch.setattr(cli, kernel, stub)
    rows = eval_rows(capsys, str(traces), "--metrics", metric)
    assert calls and all(args == extra_args for args in calls)
    assert [row[metric] for row in rows[:-1]] == [cell] * len(calls)


def test_repeated_metric_is_refused_before_scoring(capsys):
    # scored once per mention, a repeated name would warn once per mention too
    fixture = str(FIXTURES / "speech_traces.jsonl")
    assert cli.main(["eval", fixture, "--metrics", "atd,al,atd,al,start_offset"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "simulatency eval: error: repeated metrics: atd, al\n"


def readme_metric_tables():
    """The metric column names of each table in README's Metrics section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Metrics\n", 1)[1].split("\n## ", 1)[0]
    blocks = (re.findall(r"^\| `(\w+)` \|", block, re.M) for block in section.split("\n\n"))
    return [names for names in blocks if names]


def test_readme_metric_tables_list_the_table_names():
    step, wall_clock = readme_metric_tables()
    assert step == [m for m, (kernel, _) in cli.METRICS.items() if kernel is not None]
    assert wall_clock == [m for m, (_, kernel) in cli.METRICS.items() if kernel is not None]


def readme_library_example():
    """The code block of README's Library use section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"^```python\n(.*?)^```", section, re.M | re.S)[1]


def test_readme_library_example_prints_what_eval_reports(capsys, monkeypatch):
    """Run once per session of the speech fixture, the example prints the
    values its comments give, then the session's ``atd`` as ``eval`` reports
    it, or raises ``TraceError`` where ``eval`` leaves the cell empty."""
    code = readme_library_example()
    fixture = FIXTURES / "speech_traces.jsonl"
    cells = {row["id"]: row["atd"] for row in eval_rows(capsys, str(fixture), "--metrics", "atd")[:-1]}
    commented = re.findall(r"^print\(.*\)\s+# (\S+)$", code, re.M)
    assert commented == ["9.55", "19.0"]
    printed = {}
    for session in read_sessions(fixture):
        monkeypatch.setattr(simulatency, "read_sessions", lambda path: [session])
        try:
            exec(code, {})
        except TraceError:
            printed[session.id] = ""
        lines = capsys.readouterr().out.splitlines()
        assert lines[:len(commented)] == commented
        for line in lines[len(commented):]:
            session_id, atd = line.split()
            printed[session_id] = f"{float(atd):.1f}"
    assert printed == cells and "" in cells.values()
