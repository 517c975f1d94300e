"""``cli.METRICS`` is the one list of metrics: each name dispatches to one
kernel per timeline, looked up in ``cli`` when called, and README documents
exactly these names."""

import csv
import re
from pathlib import Path

import pytest

from simulatency import (
    RATIO_HYPOTHESIS,
    RATIO_LENGTH_ADAPTIVE,
    RATIO_REFERENCE,
    gen_wait_k,
    write_sessions,
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
        write_sessions(str(traces), [gen_wait_k(2, 4, 4)])
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


def test_repeated_metric_is_scored_like_a_single_one(capsys):
    fixture = str(FIXTURES / "speech_traces.jsonl")
    once = {row["id"]: row["atd"] for row in eval_rows(capsys, fixture, "--metrics", "atd")}
    twice = {
        row["id"]: row["atd"] for row in eval_rows(capsys, fixture, "--metrics", "atd,al,atd")
    }
    assert once["s2t-zero-src"] == "" and twice == once


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
