import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from simulatency import (
    CA,
    NCA,
    SPEECH_TO_TEXT,
    STEPS,
    TEXT_TO_TEXT,
    ComputationSpan,
    SessionTrace,
    StepMetricInput,
    TimedToken,
    TraceError,
    TraceFormatError,
    atd_steps,
    average_lagging,
    differentiable_average_lagging,
    gen_chunk_k,
    gen_wait_k,
    read_alignments,
    read_sessions,
    record_to_session,
    session_to_record,
)
from simulatency import cli
from simulatency.cli import main
from simulatency.core import TokenSide
from simulatency.trace_io import _side_columns

from test_metrics_time import contrast_links, contrast_pair

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def read_csv(text):
    return list(csv.DictReader(text.splitlines()))


def write_traces(path, sessions):
    """A JSONL trace file of ``sessions``, one record a line."""
    path.write_text(
        "".join(json.dumps(session_to_record(s)) + "\n" for s in sessions), encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------

def test_session_record_round_trip(tmp_path):
    sessions = [gen_wait_k(3, 6, 7), gen_chunk_k(2, 5, 5), *contrast_pair()]
    path = tmp_path / "traces.jsonl"
    write_traces(path, sessions)
    loaded = read_sessions(str(path))
    assert [s.id for s in loaded] == [s.id for s in sessions]
    for original, parsed in zip(sessions, loaded):
        assert parsed.reads == original.reads
        assert parsed.modality == original.modality
        assert parsed.timeline_kind == original.timeline_kind
        assert [(t.text, t.start, t.end) for t in parsed.target] == [
            (t.text, t.start, t.end) for t in original.target
        ]


def test_metric_values_round_trip_bit_for_bit(tmp_path):
    sessions = [gen_chunk_k(k, 20, 20) for k in (1, 7, 19, 20)]
    path = tmp_path / "traces.jsonl"
    write_traces(path, sessions)
    loaded = read_sessions(str(path))
    for original, parsed in zip(sessions, loaded):
        for metric in (average_lagging, differentiable_average_lagging, atd_steps):
            assert metric(StepMetricInput.from_session(parsed)) == metric(
                StepMetricInput.from_session(original)
            )


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    record = json.dumps(session_to_record(gen_wait_k(1, 2, 2)))
    path.write_text(record + "\n{oops\n", encoding="utf-8")
    with pytest.raises(TraceFormatError, match="line 2"):
        read_sessions(str(path))


def test_invalid_record_reports_line_number(tmp_path):
    record = session_to_record(gen_wait_k(1, 2, 2))
    record["target"][0]["g"] = 5  # out of range
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(TraceFormatError, match="line 1"):
        read_sessions(str(path))


def speech_records():
    """Two records whose texts and span kinds repeat; the second, with an
    integer-valued float time, is read entry by entry."""
    def record(session_id, first_end):
        return {
            "id": session_id, "modality": SPEECH_TO_TEXT, "timeline": CA,
            "source": [{"text": "ja", "start": 0, "end": first_end},
                       {"text": "nein", "start": 300, "end": 600}],
            "target": [{"text": "nein", "start": 700, "end": 900, "g": 2}],
            "spans": [{"kind": "decode", "start": 600, "end": 700}],
        }
    return [record("s1", 300), record("s2", 300.0)]


def test_equal_texts_of_one_read_are_one_object(tmp_path):
    records = speech_records()
    assert _side_columns(records[1]["source"], True, False) is None
    path = tmp_path / "traces.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    first, second = read_sessions(str(path))
    assert first.source.text == second.source.text == ("ja", "nein")
    assert first.source.text[0] is second.source.text[0]
    assert first.source.text[1] is first.target.text[0] is second.target.text[0]
    assert first.spans[0].kind is second.spans[0].kind == "decode"
    # no table outlives a read, and a record read on its own gives an equal session
    again = read_sessions(str(path))
    assert again == [first, second] and again[0].source.text[0] is not first.source.text[0]
    assert [record_to_session(r) for r in speech_records()] == [first, second]


def test_missing_g_rejected():
    record = session_to_record(gen_wait_k(1, 2, 2))
    del record["target"][0]["g"]
    with pytest.raises(TraceFormatError, match="g"):
        record_to_session(record)


def test_timed_record_requires_integer_ms():
    record = session_to_record(contrast_pair()[0])
    record["target"][0]["start"] = 1200.5
    with pytest.raises(TraceFormatError, match="integer"):
        record_to_session(record)


def test_timed_record_rejects_negative_times():
    record = session_to_record(contrast_pair()[0])
    record["source"][0]["start"] = -1
    with pytest.raises(TraceFormatError, match="non-negative"):
        record_to_session(record)


def test_unknown_timeline_rejected():
    record = session_to_record(gen_wait_k(1, 2, 2))
    record["timeline"] = "warped"
    with pytest.raises(TraceFormatError, match="timeline"):
        record_to_session(record)


def test_meta_field_is_tolerated():
    record = session_to_record(gen_wait_k(1, 2, 2))
    record["meta"] = {"system": "demo", "note": [1, 2, 3]}
    session = record_to_session(record)
    assert session.reads == (1, 2)


@pytest.mark.parametrize(
    "start, end", [(0.0, 1.5), (0.5, 2.0), (0.0, math.inf)]
)
def test_session_to_record_refuses_times_it_would_truncate(start, end):
    # the source is set past the constructor, which refuses an infinite time;
    # a re-schedule onto nca whose times overflow leaves one in its target
    session = SessionTrace(
        "frac", SPEECH_TO_TEXT, NCA, (TimedToken("x", 0, 1),), (TimedToken("y", 3, 4),), (1,)
    )._derived(source=TokenSide(("x",), (start,), (end,)))
    with pytest.raises(TraceError, match=r"^frac: token time .+ is not integer milliseconds$"):
        session_to_record(session)


def test_session_to_record_refuses_fractional_span_times():
    session = replace(
        contrast_pair()[0], timeline_kind=CA, spans=(ComputationSpan("decode", 0, 2.5),)
    )
    with pytest.raises(TraceError) as info:
        session_to_record(session)
    assert str(info.value) == "contrast-balanced: span time 2.5 is not integer milliseconds"


def test_alignment_round_trip(tmp_path):
    path = tmp_path / "align.jsonl"
    records = [
        {"id": sentence_id, "links": [
            {"src": link.src_index, "tgt": link.tgt_index, "src_start": int(link.src_start),
             "tgt_start": int(link.tgt_start), "verified": link.verified}
            for link in links
        ]}
        for sentence_id, links in sorted(contrast_links().items())
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    loaded = dict(read_alignments(str(path)))
    assert loaded == contrast_links()


# ---------------------------------------------------------------------------
# eval command
# ---------------------------------------------------------------------------

def eval_csv(capsys, *argv):
    code = main(["eval", *argv])
    out = capsys.readouterr().out
    assert code == 0
    return read_csv(out)


def test_cli_eval_chunk19_al(tmp_path, capsys):
    traces = tmp_path / "traces.jsonl"
    write_traces(traces, [gen_chunk_k(19, 20, 20), gen_chunk_k(20, 20, 20)])
    rows = eval_csv(capsys, str(traces), "--metrics", "al")
    assert float(rows[0]["al"]) == 9.55
    assert float(rows[1]["al"]) == 20.0
    assert rows[2]["id"] == "corpus"
    assert float(rows[2]["al"]) == pytest.approx((9.55 + 20.0) / 2)


def test_cli_eval_wait5_defaults(tmp_path, capsys):
    traces = tmp_path / "traces.jsonl"
    write_traces(traces, [gen_wait_k(5, 20, 20)])
    rows = eval_csv(capsys, str(traces))
    row = rows[0]
    assert float(row["al"]) == pytest.approx(5.0)
    assert float(row["dal"]) == pytest.approx(5.0)
    assert float(row["atd"]) == pytest.approx(5.0)
    assert row["src_len"] == "20" and row["tgt_len"] == "20"
    assert "start_offset" not in row


def test_cli_eval_empty_file_is_a_data_error(tmp_path, capsys):
    traces = tmp_path / "empty.jsonl"
    traces.write_text("", encoding="utf-8")
    code = main(["eval", str(traces)])
    assert code == 2
    assert "no sessions" in capsys.readouterr().err


def test_cli_eval_timed_fixture(tmp_path, capsys):
    rows = eval_csv(
        capsys, str(FIXTURES / "contrast_traces.jsonl"), "--tau", "1000"
    )
    by_id = {row["id"]: row for row in rows}
    assert float(by_id["contrast-balanced"]["atd"]) == pytest.approx(5285.7)
    assert float(by_id["contrast-frontloaded"]["atd"]) == pytest.approx(5700.0)
    assert float(by_id["contrast-balanced"]["start_offset"]) == pytest.approx(3000.0)
    assert float(by_id["contrast-balanced"]["end_offset"]) == pytest.approx(4000.0)


def test_cli_eval_subsegmented_atd_keeps_fixture_ordering(capsys):
    rows = eval_csv(capsys, str(FIXTURES / "contrast_traces.jsonl"), "--tau", "300")
    by_id = {row["id"]: row for row in rows}
    assert float(by_id["contrast-frontloaded"]["atd"]) > float(by_id["contrast-balanced"]["atd"])


def test_cli_eval_incompatible_metric_warns_and_skips(tmp_path, capsys):
    traces = tmp_path / "traces.jsonl"
    write_traces(traces, [gen_wait_k(2, 4, 4)])
    rows = eval_csv(capsys, str(traces), "--metrics", "al,start_offset")
    assert float(rows[0]["al"]) == pytest.approx(2.0)
    assert rows[0]["start_offset"] == ""


def test_cli_eval_strict_escalates_warnings(tmp_path):
    traces = tmp_path / "traces.jsonl"
    write_traces(traces, [gen_wait_k(2, 4, 4)])
    code = main(["eval", str(traces), "--metrics", "start_offset", "--strict"])
    assert code == 2


def test_cli_eval_unknown_metric_is_usage_error(tmp_path):
    traces = tmp_path / "traces.jsonl"
    write_traces(traces, [gen_wait_k(2, 4, 4)])
    assert main(["eval", str(traces), "--metrics", "bleu"]) == 1


def test_cli_eval_json_report(tmp_path, capsys):
    traces = tmp_path / "traces.jsonl"
    report = tmp_path / "report.json"
    write_traces(traces, [gen_wait_k(5, 20, 20)])
    code = main(["eval", str(traces), "--json", str(report), "-o", str(tmp_path / "r.csv")])
    assert code == 0
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload["sessions"][0]["metrics"]["al"] == 5.0
    assert payload["corpus"]["n_sessions"] == 1


def test_cli_eval_json_dash_prints_the_json_report_to_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    traces = str(FIXTURES / "mixed_traces.jsonl")
    assert main(["eval", traces, "--json", "report.json", "-o", "a.csv"]) == 0
    capsys.readouterr()
    assert main(["eval", traces, "--json", "-", "-o", "b.csv"]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (tmp_path / "report.json").read_bytes()
    assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "a.csv").read_bytes()
    assert not (tmp_path / "-").exists()


@pytest.mark.parametrize("json_path", ["r.out", "./r.out", "sub/../r.out", "linked.out", "here/r.out"])
def test_cli_eval_refuses_one_file_for_csv_and_json(tmp_path, capsys, monkeypatch, json_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "here").symlink_to(tmp_path)  # here/r.out: r.out by a linked directory
    if json_path == "linked.out":  # two names of one existing file
        (tmp_path / "r.out").write_text("kept\n")
        (tmp_path / "linked.out").hardlink_to(tmp_path / "r.out")
    traces = str(FIXTURES / "contrast_traces.jsonl")
    assert main(["eval", traces, "-o", "r.out", "--json", json_path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "simulatency eval: error: -o and --json name the same file\n"
    if json_path == "linked.out":
        assert (tmp_path / "r.out").read_text() == "kept\n"
    else:
        assert not (tmp_path / "r.out").exists()


@pytest.mark.parametrize("csv_out", [[], ["-o", "-"]])
def test_cli_eval_json_dash_with_the_csv_on_stdout_is_a_usage_error(
    tmp_path, capsys, monkeypatch, csv_out
):
    monkeypatch.chdir(tmp_path)
    code = main(["eval", "missing.jsonl", "--json", "-", *csv_out])  # the error comes first
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == (
        "simulatency eval: error: --json - needs -o FILE: the CSV goes to stdout\n"
    )
    assert not (tmp_path / "-").exists()


def test_cli_eval_char_granularity(tmp_path, capsys):
    # 5-character target in one chunk; reference of 4 characters
    record = {
        "id": "chars",
        "modality": "text-to-text",
        "timeline": "steps",
        "source": [{"text": w} for w in ["a", "b", "c"]],
        "target": [{"text": c, "g": 3} for c in "abcde"],
        "reference": "ab cd",
    }
    traces = tmp_path / "traces.jsonl"
    traces.write_text(json.dumps(record) + "\n", encoding="utf-8")
    rows = eval_csv(capsys, str(traces), "--granularity", "char:2", "--metrics", "al,al_ref")
    # grouped target: 3 tokens (2 + 2 + 1), all g = 3
    expected = average_lagging(StepMetricInput((3, 3, 3), 3, 3))
    assert float(rows[0]["al"]) == pytest.approx(expected)
    expected_ref = average_lagging(
        StepMetricInput((3, 3, 3), 3, 3, ref_len=2), "reference"
    )
    assert float(rows[0]["al_ref"]) == pytest.approx(expected_ref)


def test_cli_eval_speech_to_text_record(tmp_path, capsys):
    record = {
        "id": "s2t",
        "modality": "speech-to-text",
        "timeline": "nca",
        "source": [{"start": 0, "end": 600}, {"start": 600, "end": 1500}],
        "target": [
            {"text": "a", "start": 700, "end": 700, "g": 1},
            {"text": "b", "start": 1600, "end": 1600, "g": 2},
        ],
    }
    traces = tmp_path / "traces.jsonl"
    traces.write_text(json.dumps(record) + "\n", encoding="utf-8")
    rows = eval_csv(capsys, str(traces), "--tau", "300")
    # two words against five source sub-tokens: y1 matches sub-token 1
    # (700 - 300) and y2 matches sub-token 2 (1600 - 600)
    assert float(rows[0]["atd"]) == pytest.approx(700.0)
    assert float(rows[0]["start_offset"]) == pytest.approx(700.0)
    assert float(rows[0]["end_offset"]) == pytest.approx(100.0)


def test_cli_eval_nca_timeline_conversion(tmp_path, capsys):
    record = {
        "id": "ca-session",
        "modality": "speech-to-speech",
        "timeline": "ca",
        "source": [{"start": 0, "end": 1000}],
        "target": [{"start": 1200, "end": 1800, "g": 1}],
        "spans": [{"kind": "decode", "start": 1000, "end": 1200}],
    }
    traces = tmp_path / "traces.jsonl"
    traces.write_text(json.dumps(record) + "\n", encoding="utf-8")
    rows = eval_csv(capsys, str(traces), "--timeline", "nca", "--metrics", "atd", "--tau", "1000")
    assert float(rows[0]["atd"]) == pytest.approx(600.0)  # 1600 - 1000
    rows = eval_csv(capsys, str(traces), "--metrics", "atd", "--tau", "1000")
    assert float(rows[0]["atd"]) == pytest.approx(800.0)  # CA as recorded


# ---------------------------------------------------------------------------
# simulate command
# ---------------------------------------------------------------------------

def test_cli_eval_names_input_targets_whose_pieces_leave_order(tmp_path, caplog):
    traces = tmp_path / "overlap.jsonl"
    record = {
        "id": "ov", "modality": "speech-to-speech", "timeline": "nca",
        "source": [{"start": 0, "end": 1000}],
        "target": [{"start": 1000, "end": 3000, "g": 1}, {"start": 1000, "end": 3000, "g": 1}],
    }
    traces.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with caplog.at_level("WARNING"):
        assert main(["eval", str(traces), "--tau", "1000", "-o", str(tmp_path / "r.csv")]) == 0
    assert [r.getMessage() for r in caplog.records] == [
        "ov: skipping atd (target tokens 1,2 out of order once split into sub-segments)"
    ]


@pytest.mark.parametrize(
    "chunk_end, tau", [(1_000_000, "1e-303"), (10**300, "300")], ids=["tiny tau", "huge chunk"]
)
def test_cli_eval_skips_atd_of_a_chunk_of_too_many_subtokens(tmp_path, caplog, chunk_end, tau):
    traces = tmp_path / "long.jsonl"
    record = {
        "id": "long", "modality": "speech-to-text", "timeline": "nca",
        "source": [{"start": 0, "end": chunk_end}],
        "target": [{"text": "y", "start": chunk_end, "end": chunk_end, "g": 1}],
    }
    traces.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with caplog.at_level("WARNING"):
        code = main([
            "eval", str(traces), "--tau", tau, "--metrics", "atd,end_offset",
            "-o", str(tmp_path / "r.csv"),
        ])
    assert code == 0
    assert [r.getMessage() for r in caplog.records] == [
        f"long: skipping atd (segment [0.0, {float(chunk_end)}) would split into more than "
        f"100000 sub-tokens of {float(tau)} ms)"
    ]
    row = read_csv((tmp_path / "r.csv").read_text(encoding="utf-8"))[0]
    assert row["atd"] == "" and row["end_offset"] == "0.0"


def test_cli_eval_bounds_the_subtokens_of_a_side_not_of_a_chunk(tmp_path, caplog):
    traces = tmp_path / "long.jsonl"
    record = {
        "id": "three-minutes", "modality": "speech-to-text", "timeline": "nca",
        "source": [{"start": i * 60_000, "end": (i + 1) * 60_000} for i in range(3)],
        "target": [{"text": "y", "start": 180_000, "end": 180_000, "g": 3}],
    }
    traces.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with caplog.at_level("WARNING"):
        code = main([
            "eval", str(traces), "--tau", "1", "--metrics", "atd,end_offset",
            "-o", str(tmp_path / "r.csv"),
        ])
    assert code == 0
    assert [r.getMessage() for r in caplog.records] == [
        "three-minutes: skipping atd (segment [60000.0, 120000.0) would split into more than "
        "40000 sub-tokens of 1.0 ms, the rest of the 100000 of its side)"
    ]
    row = read_csv((tmp_path / "r.csv").read_text(encoding="utf-8"))[0]
    assert row["atd"] == "" and row["end_offset"] == "0.0"


def read_strict_json(path):
    """``path`` as JSON, refusing the NaN and Infinity literals."""

    def reject_constant(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject_constant)


def test_cli_eval_leaves_a_non_finite_value_out_of_the_report(tmp_path, caplog):
    # re-scheduled onto nca, the second target token starts at 1e308 plus
    # 1.7e308, past the float range
    big = int(1.7e308)
    record = {
        "id": "huge", "modality": "speech-to-text", "timeline": "ca", "spans": [],
        "source": [{"start": 0, "end": 10**308}],
        "target": [
            {"text": "a", "start": 0, "end": big, "g": 1},
            {"text": "b", "start": big, "end": big, "g": 1},
        ],
    }
    traces = tmp_path / "huge.jsonl"
    traces.write_text(json.dumps(record) + "\n", encoding="utf-8")
    argv = ["eval", str(traces), "--timeline", "nca", "-o", str(tmp_path / "r.csv")]
    with caplog.at_level("WARNING"):
        assert main([*argv, "--json", str(tmp_path / "r.json")]) == 0
    assert "huge: skipping end_offset (value inf is not finite)" in [
        r.getMessage() for r in caplog.records
    ]
    report = read_strict_json(tmp_path / "r.json")
    assert "end_offset" not in report["sessions"][0]["metrics"]
    assert report["sessions"][0]["metrics"]["start_offset"] == 1e308
    assert "inf" not in (tmp_path / "r.csv").read_text(encoding="utf-8")
    assert main([*argv, "--strict"]) == 2


def test_cli_eval_leaves_an_overflowing_corpus_mean_empty(tmp_path, caplog):
    big = int(1.7e308)
    records = [
        {
            "id": name, "modality": "speech-to-text", "timeline": "ca",
            "source": [{"start": 0, "end": 1000}],
            "target": [{"text": "a", "start": big, "end": big, "g": 1}],
        }
        for name in ("one", "two")
    ]
    traces = tmp_path / "big.jsonl"
    traces.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    argv = ["eval", str(traces), "--metrics", "start_offset", "-o", str(tmp_path / "r.csv")]
    with caplog.at_level("WARNING"):
        assert main([*argv, "--json", str(tmp_path / "r.json")]) == 0
    assert [r.getMessage() for r in caplog.records] == [
        "corpus: skipping start_offset (mean of 2 values is not finite)"
    ]
    rows = read_csv((tmp_path / "r.csv").read_text(encoding="utf-8"))
    assert [row["start_offset"] for row in rows] == [f"{1.7e308:.1f}", f"{1.7e308:.1f}", ""]
    report = read_strict_json(tmp_path / "r.json")
    assert report["corpus"]["metrics"] == {}
    assert main([*argv, "--strict"]) == 2


def test_cli_eval_leaves_a_corpus_mean_of_steps_and_ms_empty(tmp_path, caplog):
    # atd is in unit steps on the steps session and in ms on the nca one; the
    # other columns each hold one unit and keep their means
    balanced = contrast_pair()[0]
    assert balanced.timeline_kind == NCA
    traces = tmp_path / "mixed.jsonl"
    write_traces(traces, [gen_wait_k(2, 4, 4), balanced])
    argv = ["eval", str(traces), "-o", str(tmp_path / "r.csv")]
    with caplog.at_level("WARNING"):
        assert main([*argv, "--json", str(tmp_path / "r.json")]) == 0
    assert [r.getMessage() for r in caplog.records] == [
        "corpus: skipping atd (unit-step and ms values do not average)"
    ]
    steps, nca, corpus = read_csv((tmp_path / "r.csv").read_text(encoding="utf-8"))
    assert steps["atd"] == "2.0" and nca["atd"] == "5285.7" and corpus["atd"] == ""
    assert corpus["al"] == steps["al"] and corpus["start_offset"] == nca["start_offset"]
    report = read_strict_json(tmp_path / "r.json")
    assert sorted(report["corpus"]["metrics"]) == ["al", "ap", "cw", "dal", "end_offset", "start_offset"]
    assert main([*argv, "--strict"]) == 2


def test_cli_eval_writes_a_corpus_mean_in_the_unit_of_its_rows(tmp_path, capsys):
    # the steps session scores nothing, so every atd value, and the mean, is in ms
    empty = SessionTrace("empty", TEXT_TO_TEXT, STEPS, gen_wait_k(1, 2, 2).source, (), ())
    traces = tmp_path / "traces.jsonl"
    write_traces(traces, [empty, contrast_pair()[0]])
    rows = eval_csv(capsys, str(traces))
    assert [row["atd"] for row in rows] == ["", "5285.7", "5285.7"]


SPEECH_TO_TEXT_RECORD = {
    "modality": "speech-to-text", "source": [{"start": 0, "end": 1000}],
    "target": [{"text": "y", "start": 1000, "end": 1500, "g": 1}],
}


def run_eval(tmp_path, caplog, record, *argv):
    """Exit code, skip warnings and CSV report of ``eval`` over one ``record``."""
    traces = tmp_path / "t.jsonl"
    traces.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with caplog.at_level("WARNING"):
        code = main(["eval", str(traces), *argv, "-o", str(tmp_path / "r.csv")])
    report = (tmp_path / "r.csv").read_text(encoding="utf-8")
    return code, [r.getMessage() for r in caplog.records], report


@pytest.mark.parametrize("kind, timeline, reason", [
    ("nca", "ca", "cannot realize 'ca' timeline from 'nca' trace"),
    ("ca", "nca", "missing computation-span annotations"),
], ids=["ca from nca", "nca from ca without spans"])
def test_cli_eval_skips_a_timeline_it_cannot_realize(tmp_path, caplog, kind, timeline, reason):
    record = {"id": "s1", "timeline": kind, **SPEECH_TO_TEXT_RECORD}
    code, warnings, report = run_eval(tmp_path, caplog, record, "--timeline", timeline)
    assert code == 0
    assert warnings == [f"s1: skipping {name} ({reason})" for name in ("atd", "start_offset", "end_offset")]
    assert report.splitlines()[:2] == [
        "id,modality,timeline,src_len,tgt_len", f"s1,speech-to-text,{kind},1,1"
    ]


def test_cli_eval_steps_timeline_skips_timed_metrics_of_a_timed_session(tmp_path, caplog):
    record = {"id": "c1", "timeline": "ca", "spans": [], **SPEECH_TO_TEXT_RECORD}
    code, warnings, report = run_eval(
        tmp_path, caplog, record, "--timeline", "steps", "--metrics", "al,start_offset"
    )
    assert code == 0
    assert warnings == ["c1: skipping start_offset (timed metrics disabled by --timeline steps)"]
    row = read_csv(report)[0]
    assert row["al"] == "1.0" and row["start_offset"] == ""


def test_cli_eval_skips_timed_metrics_of_a_session_with_no_input(tmp_path, caplog):
    record = {"id": "e1", "modality": "text-to-text", "timeline": "ca", "source": [], "target": []}
    code, warnings, report = run_eval(tmp_path, caplog, record)
    assert code == 0
    assert warnings == [f"e1: skipping {name} (no input)" for name in ("atd", "start_offset", "end_offset")]
    assert report.splitlines()[1] == "e1,text-to-text,ca,0,0"


@pytest.mark.parametrize("granularity", ["word", "char:2"])
def test_cli_eval_skips_step_metrics_of_a_session_with_no_target_alike_at_each_granularity(
    tmp_path, caplog, granularity
):
    record = {"id": "empty", "modality": "text-to-text", "timeline": "steps", "source": [{"text": "a"}], "target": []}
    code, warnings, report = run_eval(tmp_path, caplog, record, "--granularity", granularity, "--metrics", "al")
    assert code == 0
    assert warnings == ["empty: skipping al (empty reads: nothing was translated)"]
    assert report.splitlines()[1] == "empty,text-to-text,steps,1,0,"  # an empty al cell


def test_cli_simulate_round_trips_through_eval(tmp_path, capsys):
    traces = tmp_path / "chunk.jsonl"
    code = main(
        ["simulate", "--strategy", "chunk-k", "--k", "1..20", "-o", str(traces)]
    )
    assert code == 0
    rows = eval_csv(capsys, str(traces), "--metrics", "al,dal,atd")
    by_id = {row["id"]: row for row in rows}
    assert float(by_id["chunk19-20x20"]["al"]) == 9.55
    assert float(by_id["chunk20-20x20"]["al"]) == 20.0
    for k in range(1, 21):
        assert float(by_id[f"chunk{k}-20x20"]["dal"]) == pytest.approx(k)


def test_cli_simulate_two_segment(tmp_path, capsys):
    traces = tmp_path / "twoseg.jsonl"
    assert main(["simulate", "--strategy", "two-segment", "--first-len", "1,10,20", "-o", str(traces)]) == 0
    sessions = read_sessions(str(traces))
    assert [s.id for s in sessions] == ["twoseg-L1", "twoseg-L10", "twoseg-L20"]


def test_cli_simulate_single_read_trace(capsys):
    assert main(["simulate", "--strategy", "wait-k", "--k", "1", "--src-len", "1", "--tgt-len", "1"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["target"] == [{"text": "y1", "g": 1}]


def test_cli_simulate_requires_parameter(capsys):
    assert main(["simulate", "--strategy", "wait-k"]) == 1
    assert main(["simulate", "--strategy", "two-segment"]) == 1


# ---------------------------------------------------------------------------
# evs command
# ---------------------------------------------------------------------------

def test_cli_evs_verified(capsys):
    code = main(["evs", str(FIXTURES / "contrast_alignments.jsonl")])
    out = capsys.readouterr().out
    assert code == 0
    rows = read_csv(out)
    by_id = {row["id"]: row for row in rows}
    assert float(by_id["contrast-balanced"]["mean_evs"]) == pytest.approx(4428.6)
    assert float(by_id["contrast-frontloaded"]["mean_evs"]) == pytest.approx(5250.0)
    assert by_id["contrast-balanced"]["n_used"] == "7"
    assert float(by_id["corpus"]["mean_evs"]) == pytest.approx((31000 / 7 + 5250) / 2, abs=0.1)


def test_cli_evs_automatic_mode(capsys):
    code = main(["evs", str(FIXTURES / "contrast_alignments.jsonl"), "--mode", "automatic"])
    rows = read_csv(capsys.readouterr().out)
    assert code == 0
    by_id = {row["id"]: row for row in rows}
    assert float(by_id["contrast-balanced"]["mean_evs"]) == pytest.approx(3875.0)
    assert by_id["contrast-balanced"]["n_used"] == "8"


def test_cli_evs_absent_rows_stay_blank(tmp_path, capsys):
    records = [
        {"id": "has", "links": [{"src": 1, "tgt": 1, "src_start": 1000, "tgt_start": 3300, "verified": True}]},
        {"id": "none", "links": [{"src": 1, "tgt": 1, "src_start": 0, "tgt_start": 100, "verified": False}]},
    ]
    path = tmp_path / "align.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    rows = read_csv_main(capsys, ["evs", str(path)])
    by_id = {row["id"]: row for row in rows}
    assert float(by_id["has"]["mean_evs"]) == pytest.approx(2300.0)
    assert by_id["none"]["mean_evs"] == ""
    assert float(by_id["corpus"]["mean_evs"]) == pytest.approx(2300.0)


@pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty", "blank-lines"])
def test_cli_evs_on_a_file_with_no_sentences_is_a_data_error(tmp_path, capsys, text):
    path = tmp_path / "align.jsonl"
    path.write_text(text, encoding="utf-8")
    report = tmp_path / "report.csv"
    report.write_text("kept\n", encoding="utf-8")
    for output in ([], ["-o", str(report)]):
        assert main(["evs", str(path), *output]) == 2
        assert capsys.readouterr() == ("", f"simulatency: error: {path}: no sentences\n")
    assert report.read_text(encoding="utf-8") == "kept\n"


def verified_link(src, tgt_start):
    return {"src": src, "tgt": src, "src_start": 0, "tgt_start": tgt_start, "verified": True}


def test_cli_evs_leaves_an_overflowing_sentence_mean_empty(tmp_path, caplog):
    big = 17 * 10**307  # two spans of 1.7e308 sum past the float range
    records = [
        {"id": "huge", "links": [verified_link(1, big), verified_link(2, big)]},
        {"id": "fine", "links": [verified_link(1, 500)]},
    ]
    path = tmp_path / "huge.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    argv = ["evs", str(path), "-o", str(tmp_path / "r.csv")]
    with caplog.at_level("WARNING"):
        assert main(argv) == 0
    assert [r.getMessage() for r in caplog.records] == [
        "huge: skipping mean_evs (value inf is not finite)"
    ]
    text = (tmp_path / "r.csv").read_text(encoding="utf-8")
    assert text == "id,n_links,n_used,mean_evs\nhuge,2,2,\nfine,1,1,500.0\ncorpus,,,500.0\n"
    assert main(argv + ["--mode", "automatic"]) == 0
    assert (tmp_path / "r.csv").read_text(encoding="utf-8") == text
    assert main(argv + ["--strict"]) == 2


def test_cli_evs_leaves_an_overflowing_corpus_mean_empty(tmp_path, caplog):
    big = int(1.7e308)
    records = [{"id": name, "links": [verified_link(1, big)]} for name in ("one", "two")]
    path = tmp_path / "big.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    argv = ["evs", str(path), "-o", str(tmp_path / "r.csv")]
    with caplog.at_level("WARNING"):
        assert main(argv) == 0
    assert [r.getMessage() for r in caplog.records] == [
        "corpus: skipping mean_evs (mean of 2 values is not finite)"
    ]
    rows = read_csv((tmp_path / "r.csv").read_text(encoding="utf-8"))
    assert [row["mean_evs"] for row in rows] == [f"{1.7e308:.1f}", f"{1.7e308:.1f}", ""]
    assert main(argv + ["--strict"]) == 2


def read_csv_main(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return read_csv(out)


# ---------------------------------------------------------------------------
# correlate command
# ---------------------------------------------------------------------------

def write_report(path, rows, columns):
    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(columns)
        writer.writerows(rows)


def test_cli_correlate_identical_columns(tmp_path, capsys):
    path = tmp_path / "report.csv"
    write_report(
        path,
        [[f"s{i}", i, i] for i in range(1, 6)],
        ["id", "atd", "mean_evs"],
    )
    code = main(["correlate", str(path), "--col-a", "atd", "--col-b", "mean_evs"])
    out = capsys.readouterr().out
    assert code == 0
    assert "rho=1.000000" in out
    assert "n=5" in out


def test_cli_correlate_reversed_columns(tmp_path, capsys):
    path = tmp_path / "report.csv"
    write_report(
        path,
        [[f"s{i}", i, 10 - i] for i in range(1, 6)],
        ["id", "atd", "mean_evs"],
    )
    main(["correlate", str(path), "--col-a", "atd", "--col-b", "mean_evs"])
    assert "rho=-1.000000" in capsys.readouterr().out


def test_cli_correlate_synthetic_ranking(tmp_path, capsys):
    # token-delay column tracks the span column tightly; the offset column only loosely
    evs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    atd = [1.1, 2.2, 3.1, 4.4, 5.2, 6.3, 7.1, 8.0]
    start = [2.0, 1.0, 4.0, 3.0, 8.0, 5.0, 7.0, 6.0]
    rows = [
        [f"s{i}", atd[i], start[i], evs[i]] for i in range(8)
    ]
    path = tmp_path / "report.csv"
    write_report(path, rows, ["id", "atd", "start_offset", "mean_evs"])
    main(["correlate", str(path), "--col-a", "atd", "--col-b", "mean_evs"])
    rho_atd = float(capsys.readouterr().out.split()[0].split("=")[1])
    main(["correlate", str(path), "--col-a", "start_offset", "--col-b", "mean_evs"])
    rho_start = float(capsys.readouterr().out.split()[0].split("=")[1])
    assert rho_atd > rho_start


def test_cli_correlate_joins_reports_on_id(tmp_path, capsys):
    eval_report = tmp_path / "eval.csv"
    evs_report = tmp_path / "evs.csv"
    write_report(eval_report, [[f"s{i}", i] for i in range(1, 6)], ["id", "atd"])
    write_report(evs_report, [[f"s{i}", i * 2] for i in range(1, 5)], ["id", "mean_evs"])
    code = main(
        [
            "correlate",
            str(eval_report),
            "--col-a",
            "atd",
            "--col-b",
            "mean_evs",
            "--join",
            str(evs_report),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "rho=1.000000" in out and "n=4" in out


@pytest.mark.parametrize("repeated_in", ["report", "join"])
def test_cli_correlate_join_rejects_a_repeated_id(tmp_path, capsys, repeated_in):
    rows = {"report": [["s1", 1], ["s2", 2], ["s3", 3]], "join": [["s1", 2], ["s2", 4], ["s3", 6]]}
    rows[repeated_in].append(["s2", 9])
    paths = {name: tmp_path / f"{name}.csv" for name in rows}
    write_report(paths["report"], rows["report"], ["id", "atd"])
    write_report(paths["join"], rows["join"], ["id", "mean_evs"])
    code = main(
        ["correlate", str(paths["report"]), "--col-a", "atd", "--col-b", "mean_evs",
         "--join", str(paths["join"])]
    )
    assert code == 2
    assert f"{paths[repeated_in]}: duplicate id 's2'" in capsys.readouterr().err


def test_cli_correlate_refuses_a_column_both_joined_reports_carry(tmp_path, capsys):
    # atd rises with k; the copy gives each id the atd of the id in reverse order
    sessions = tmp_path / "waitk.jsonl"
    assert main(["simulate", "--strategy", "wait-k", "--k", "1..6", "-o", str(sessions)]) == 0
    report, reversed_report = tmp_path / "report.csv", tmp_path / "reversed.csv"
    assert main(["eval", str(sessions), "--metrics", "atd", "-o", str(report)]) == 0
    rows = read_csv(report.read_text())[:-1]
    ids = [row["id"] for row in rows][::-1]
    write_report(reversed_report, [[i, row["atd"]] for i, row in zip(ids, rows)], ["id", "atd"])
    capsys.readouterr()
    code = main(["correlate", str(report), "--join", str(reversed_report),
                 "--col-a", "atd", "--col-b", "atd"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"simulatency: error: column 'atd' is in both {report} and {reversed_report}\n"
    )


@pytest.mark.parametrize("join", [False, True])
def test_cli_correlate_names_a_column_missing_from_the_header(tmp_path, capsys, join):
    path, other = tmp_path / "report.csv", tmp_path / "evs.csv"
    write_report(path, [[f"s{i}", i] for i in range(1, 6)], ["id", "atd"])
    write_report(other, [[f"s{i}", i] for i in range(1, 6)], ["id", "mean_evs"])
    argv = ["correlate", str(path), "--col-a", "atdd", "--col-b", "mean_evs"]
    files = str(path)
    if join:
        argv += ["--join", str(other)]
        files = f"{path} or {other}"
    assert main(argv) == 2
    assert capsys.readouterr().err == f"simulatency: error: no column 'atdd' in {files}\n"


def test_cli_correlate_output_dash_writes_the_csv_to_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_report(tmp_path / "report.csv", [[f"s{i}", i, i] for i in range(1, 6)], ["id", "a", "b"])
    argv = ["correlate", "report.csv", "--col-a", "a", "--col-b", "b"]
    assert main([*argv, "-o", "result.csv"]) == 0
    line = capsys.readouterr().out
    assert line == "rho=1.000000 p=0.016667 n=5\n"
    assert main([*argv, "-o", "-"]) == 0
    assert capsys.readouterr().out == line + (tmp_path / "result.csv").read_text()
    assert not (tmp_path / "-").exists()


def test_cli_correlate_excludes_corpus_row_and_absent_cells(tmp_path, capsys):
    path = tmp_path / "report.csv"
    write_report(
        path,
        [["s1", 1, 1], ["s2", 2, 2], ["s3", 3, ""], ["s4", 4, 4], ["corpus", 99, 0]],
        ["id", "atd", "mean_evs"],
    )
    main(["correlate", str(path), "--col-a", "atd", "--col-b", "mean_evs"])
    assert "n=3" in capsys.readouterr().out


def test_cli_correlate_warns_once_per_column_about_cells_that_are_not_numbers(
    tmp_path, capsys, caplog
):
    rows = [["s1", 1, 1], ["s2", 2, 3], ["s3", "n/a", 3], ["s4", 4, "x"], ["s5", "?", 5],
            ["s6", 6, 2]]
    blank = [[cell if str(cell)[0].isdigit() else "" for cell in row] for row in rows]
    outputs = []
    for name, cells in (("blank", blank), ("words", rows)):
        write_report(tmp_path / f"{name}.csv", cells, ["id", "a", "b"])
        argv = ["correlate", str(tmp_path / f"{name}.csv"), "--col-a", "a", "--col-b", "b"]
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert main([*argv, "-o", str(tmp_path / f"{name}.out")]) == 0
        warnings = [r.getMessage() for r in caplog.records]
        outputs.append((capsys.readouterr().out, (tmp_path / f"{name}.out").read_bytes()))
    assert warnings == [
        "column 'a': 2 cells are not numbers and are left out",
        "column 'b': 1 cells are not numbers and are left out",
    ]
    assert outputs[0] == outputs[1] and outputs[1][0].endswith(" n=3\n")


def test_cli_correlate_insufficient_samples(tmp_path, capsys):
    path = tmp_path / "report.csv"
    write_report(path, [["s1", 1, 1], ["s2", 2, 2]], ["id", "a", "b"])
    assert main(["correlate", str(path), "--col-a", "a", "--col-b", "b"]) == 2


# ---------------------------------------------------------------------------
# concat command
# ---------------------------------------------------------------------------

def test_cli_concat_adjacent_pairs(tmp_path, capsys):
    traces = tmp_path / "traces.jsonl"
    write_traces(traces, [gen_wait_k(1, 1, 1), replace(gen_wait_k(1, 1, 1), id="b")])
    out_path = tmp_path / "joined.jsonl"
    assert main(["concat", str(traces), "-o", str(out_path)]) == 0
    joined = read_sessions(str(out_path))
    assert len(joined) == 1
    assert joined[0].reads == (1, 2)


def test_cli_concat_warns_on_odd_count(tmp_path, caplog):
    traces = tmp_path / "traces.jsonl"
    write_traces(traces, [replace(gen_wait_k(1, 2, 2), id=f"s{i}") for i in range(3)])
    out_path = tmp_path / "joined.jsonl"
    with caplog.at_level("WARNING"):
        assert main(["concat", str(traces), "-o", str(out_path)]) == 0
    assert len(read_sessions(str(out_path))) == 1
    assert any("unpaired" in r.message for r in caplog.records)


def test_cli_concat_sliding(tmp_path):
    traces = tmp_path / "traces.jsonl"
    write_traces(traces, [replace(gen_wait_k(1, 2, 2), id=f"s{i}") for i in range(3)])
    out_path = tmp_path / "joined.jsonl"
    assert main(["concat", str(traces), "--pairing", "sliding", "-o", str(out_path)]) == 0
    assert len(read_sessions(str(out_path))) == 2


def test_cli_concat_shifts_the_times_of_unit_step_sessions(tmp_path, capsys):
    # each record is valid alone; joined unshifted, b's tokens would precede a's
    records = [
        {
            "id": name, "modality": "text-to-text", "timeline": "steps",
            "source": [{"text": "x1", "start": 0, "end": 100},
                       {"text": "x2", "start": 100, "end": 200}],
            "target": [{"text": "y1", "g": 2}],
        }
        for name in ("a", "b")
    ]
    traces = tmp_path / "steps.jsonl"
    traces.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert main(["eval", str(traces), "-o", str(tmp_path / "r.csv")]) == 0
    out_path = tmp_path / "joined.jsonl"
    assert main(["concat", str(traces), "-o", str(out_path)]) == 0
    (joined,) = read_sessions(str(out_path))
    assert [(t.start, t.end) for t in joined.source] == [
        (0.0, 100.0), (100.0, 200.0), (200.0, 300.0), (300.0, 400.0)
    ]
    assert [t.start for t in joined.target] == [None, None] and joined.reads == (2, 4)
    assert main(["concat", str(traces), "--shift", "absolute"]) == 2
    assert "a+b: source tokens 2,3 out of order" in capsys.readouterr().err


def test_cli_eval_refuses_a_unit_step_side_out_of_order_across_untimed_tokens(tmp_path, capsys):
    record = {
        "id": "u", "modality": "text-to-text", "timeline": "steps",
        "source": [{"text": "x1", "start": 0, "end": 900}, {"text": "x2"},
                   {"text": "x3", "start": 100, "end": 200}],
        "target": [{"text": "y1", "g": 3}],
    }
    traces = tmp_path / "steps.jsonl"
    traces.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert main(["eval", str(traces)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "simulatency: error: line 1: u: source tokens 1,3 out of order\n"


def span_record(session_id, **span):
    """A one-token ca record whose one span is ``span`` with times added."""
    return {
        "id": session_id, "modality": "speech-to-text", "timeline": "ca",
        "source": [{"text": "x1", "start": 0, "end": 300}],
        "target": [{"text": "y1", "start": 500, "end": 600, "g": 1}],
        "spans": [{**span, "start": 300, "end": 500}],
    }


@pytest.mark.parametrize("kind", [None, 7, ["decode"]])
def test_cli_concat_refuses_a_span_kind_that_is_not_a_string(tmp_path, capsys, kind):
    traces = tmp_path / "spans.jsonl"
    records = [span_record("a", kind="decode"), span_record("b", kind=kind)]
    traces.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert main(["concat", str(traces)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "simulatency: error: line 2: spans kind must be a string\n"


def test_cli_concat_writes_an_absent_span_kind_as_compute(tmp_path, capsys):
    traces = tmp_path / "spans.jsonl"
    records = [span_record("a", kind="decode"), span_record("b")]
    traces.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert main(["concat", str(traces)]) == 0
    [joined] = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [span["kind"] for span in joined["spans"]] == ["decode", "compute"]


def test_cli_concat_single_session_is_data_error(tmp_path, capsys):
    traces = tmp_path / "traces.jsonl"
    write_traces(traces, [gen_wait_k(1, 2, 2)])
    assert main(["concat", str(traces)]) == 2


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_usage_error_exit_code(capsys):
    assert main(["eval"]) == 1
    assert main(["unknown-command"]) == 1


def test_bad_flag_values_are_usage_errors(tmp_path, capsys):
    traces = tmp_path / "traces.jsonl"
    write_traces(traces, [gen_wait_k(2, 4, 4)])
    assert main(["eval", str(traces), "--granularity", "bytes"]) == 1
    assert main(["eval", str(traces), "--tau", "-5"]) == 1
    assert main(["simulate", "--strategy", "wait-k", "--k", "x..y"]) == 1


def test_missing_file_is_data_error(capsys):
    assert main(["eval", "/nonexistent/path.jsonl"]) == 2


ESCAPED_BACKSLASH = '"a\\\\ud800"'


def write_exit_code_inputs(tmp_path):
    paths = {name: tmp_path / name for name in (
        "traces.jsonl", "missing.jsonl", "malformed.jsonl", "not_utf8", "late_not_utf8.jsonl",
        "deep.jsonl", "long_int.jsonl", "bad_record.jsonl", "big_field.csv", "short.csv", "three.csv",
        "repeated_id.jsonl", "repeated_sentence.jsonl", "huge_time.jsonl", "huge_link_time.jsonl",
        "surrogate.jsonl", "escaped_backslash.jsonl", "huge_pair.jsonl", "mixed_timeline.jsonl",
    )}
    good = json.dumps(session_to_record(gen_wait_k(2, 4, 4))) + "\n"
    paths["traces.jsonl"].write_text(good, encoding="utf-8")
    paths["malformed.jsonl"].write_text(good + "{oops\n", encoding="utf-8")
    paths["not_utf8"].write_bytes(b"\xff\xfe{}")
    paths["late_not_utf8.jsonl"].write_bytes(good.encode() + b"\xff\xfe{}\n")
    paths["deep.jsonl"].write_text("[" * 100_000 + "]" * 100_000 + "\n", encoding="utf-8")
    paths["long_int.jsonl"].write_text('{"id": ' + "1" * 5000 + "}\n", encoding="utf-8")
    paths["bad_record.jsonl"].write_text('{"id": "x"}\n', encoding="utf-8")
    paths["big_field.csv"].write_text("id,a,b\ns1,1,1\ns2," + "9" * 200_000 + ",2\n", encoding="utf-8")
    paths["short.csv"].write_text("id,a,b\ns1,1,1\ns2,2,2\n", encoding="utf-8")
    paths["three.csv"].write_text("id,a,b\ns1,1,1\ns2,2,3\ns3,3,2\n", encoding="utf-8")
    paths["repeated_id.jsonl"].write_text(good * 2, encoding="utf-8")
    sentence = '{"id": "a1", "links": []}\n'
    paths["repeated_sentence.jsonl"].write_text(sentence * 2, encoding="utf-8")
    huge = session_to_record(contrast_pair()[0])
    huge["target"][-1]["end"] = 10**400
    paths["huge_time.jsonl"].write_text(json.dumps(huge) + "\n", encoding="utf-8")
    link = {"src": 1, "tgt": 1, "src_start": 10**400, "tgt_start": 0}
    paths["huge_link_time.jsonl"].write_text(
        json.dumps({"id": "a1", "links": [link]}) + "\n", encoding="utf-8"
    )
    paths["surrogate.jsonl"].write_text(good.replace("wait2", "\\ud800wait2"), encoding="utf-8")
    # an escaped backslash, then "ud800": the text a\ud800, which holds no surrogate
    other = json.dumps(session_to_record(gen_wait_k(3, 4, 4))) + "\n"
    paths["escaped_backslash.jsonl"].write_text(
        good.replace('"x1"', ESCAPED_BACKSLASH) + other, encoding="utf-8"
    )
    far = {  # a chunk ending at 1e308 ms: a second one shifted after it ends at infinity
        "modality": "speech-to-text", "timeline": "nca",
        "source": [{"start": 0, "end": 10**308}],
        "target": [{"start": 10**308, "end": 10**308, "g": 1}],
    }
    paths["huge_pair.jsonl"].write_text(
        "".join(json.dumps({"id": key, **far}) + "\n" for key in "ab"), encoding="utf-8"
    )
    paths["mixed_timeline.jsonl"].write_text(
        "".join(json.dumps({"id": key, "timeline": kind, **SPEECH_TO_TEXT_RECORD}) + "\n"
                for key, kind in (("c1", "ca"), ("n1", "nca"))),
        encoding="utf-8",
    )
    return {name.split(".")[0]: str(path) for name, path in paths.items()}


CORRELATE_AB = ["--col-a", "a", "--col-b", "b"]

# (case, argv with {file} placeholders, exit code, text stderr must hold)
EXIT_CODES = [
    ("success", ["eval", "{traces}"], 0, ""),
    ("missing argument", ["eval"], 1, "error: the following arguments are required"),
    ("unknown command", ["unknown-command"], 1, "error: argument command"),
    ("bad --granularity", ["eval", "{traces}", "--granularity", "bytes"], 1, "bad granularity"),
    ("empty --granularity group",
     ["eval", "{traces}", "--granularity", "char:0"], 1, "group_size must be >= 1, got 0"),
    ("bad --tau", ["eval", "{traces}", "--tau", "-5"], 1, "tau must be positive"),
    ("bad --tau, before the file is read", ["eval", "{missing}", "--tau", "0"], 1, "tau must be"),
    ("non-finite --tau", ["eval", "{traces}", "--tau", "inf"], 1, "tau must be finite, got inf"),
    ("bad --k", ["simulate", "--strategy", "wait-k", "--k", "x..y"], 1, "error:"),
    ("repeated --k value", ["simulate", "--strategy", "wait-k", "--k", "3,3"], 1, "value 3 given twice"),
    ("--k value repeated by a range",
     ["simulate", "--strategy", "wait-k", "--k", "1..3,2"], 1, "value 2 given twice"),
    ("repeated --first-len value",
     ["simulate", "--strategy", "two-segment", "--first-len", "4,2..4"], 1, "value 4 given twice"),
    ("empty --k range in a list",
     ["simulate", "--strategy", "wait-k", "--k", "1..2,5..4", "--src-len", "3", "--tgt-len", "3"],
     1, "empty range '5..4' in '1..2,5..4'"),
    ("empty --first-len range in a list",
     ["simulate", "--strategy", "two-segment", "--first-len", "2,4..3"], 1, "empty range '4..3'"),
    ("unknown --metrics name, before the file is read",
     ["eval", "{missing}", "--metrics", "al,bogus"], 1, "unknown metrics: bogus"),
    ("empty --metrics entry", ["eval", "{traces}", "--metrics", "al,"], 1, "unknown metrics: ''"),
    ("empty --metrics value", ["eval", "{traces}", "--metrics="], 1, "unknown metrics: ''"),
    ("repeated --metrics name",
     ["eval", "{traces}", "--metrics", "al,al,start_offset,start_offset", "--strict"], 1,
     "repeated metrics: al, start_offset"),
    ("missing file", ["eval", "{missing}"], 2, "No such file"),
    ("malformed JSON", ["eval", "{malformed}"], 2, "line 2: malformed JSON"),
    ("non-UTF-8 trace", ["eval", "{not_utf8}"], 2, "line 1: not UTF-8"),
    ("non-UTF-8 line of a trace", ["eval", "{late_not_utf8}"], 2, "line 2: not UTF-8"),
    ("non-UTF-8 alignment", ["evs", "{not_utf8}"], 2, "line 1: not UTF-8"),
    ("non-UTF-8 report", ["correlate", "{not_utf8}", *CORRELATE_AB], 2, "line 1: not UTF-8"),
    ("deep nesting", ["eval", "{deep}"], 2, "line 1: malformed JSON (maximum recursion"),
    ("over-long integer", ["eval", "{long_int}"], 2, "line 1: malformed JSON"),
    ("oversized report field", ["correlate", "{big_field}", *CORRELATE_AB], 2, "line 3: field"),
    ("TraceFormatError", ["eval", "{bad_record}"], 2, "line 1: missing field"),
    ("integer time beyond float range",
     ["eval", "{huge_time}"], 2, "line 1: target end is too large"),
    ("integer link time beyond float range",
     ["evs", "{huge_link_time}"], 2, "line 1: src_start is too large"),
    ("unpaired surrogate", ["eval", "{surrogate}"], 2, "line 1: unpaired surrogate '\\ud800'"),
    ("unpaired surrogate, concat", ["concat", "{surrogate}"], 2, "line 1: unpaired surrogate"),
    ("escaped backslash before ud800, concat", ["concat", "{escaped_backslash}"], 0, ""),
    ("concat of a ca and an nca session",
     ["concat", "{mixed_timeline}"], 2, "simulatency: error: timeline mismatch: ca vs nca"),
    ("time beyond float range after concat",
     ["concat", "{huge_pair}"], 2, "a+b: source token 2: time is infinite: start 1e+308, end inf"),
    ("repeated session id", ["eval", "{repeated_id}"], 2, "line 2: duplicate id 'wait2-4x4'"),
    ("repeated session id, concat", ["concat", "{repeated_id}"], 2, "line 2: duplicate id"),
    ("repeated sentence id", ["evs", "{repeated_sentence}"], 2, "line 2: duplicate id 'a1'"),
    ("StatsError", ["correlate", "{short}", *CORRELATE_AB], 2, "insufficient samples"),
    ("empty --json value", ["eval", "{traces}", "--json="], 2, "No such file or directory: ''"),
    ("empty --join value",
     ["correlate", "{three}", *CORRELATE_AB, "--join="], 2, "No such file or directory: ''"),
    ("empty -o value, correlate",
     ["correlate", "{three}", *CORRELATE_AB, "-o="], 2, "No such file or directory: ''"),
    ("-o and --json naming one file, before the file is read",
     ["eval", "{missing}", "-o", "{short}", "--json", "{short}"], 1,
     "-o and --json name the same file"),
]


@pytest.mark.parametrize(
    "argv, code, message", [case[1:] for case in EXIT_CODES], ids=[case[0] for case in EXIT_CODES]
)
def test_exit_code_of_each_error_class(tmp_path, capsys, argv, code, message):
    files = write_exit_code_inputs(tmp_path)
    assert main([arg.format(**files) for arg in argv]) == code
    err = capsys.readouterr().err
    assert message in err
    if code == 2:
        assert err.startswith("simulatency: error: ") and err.count("\n") == 1


def test_concat_writes_an_escaped_backslash_back_byte_for_byte(tmp_path, capsys):
    files = write_exit_code_inputs(tmp_path)
    assert main(["concat", files["escaped_backslash"]]) == 0
    out = capsys.readouterr().out
    assert '"text": ' + ESCAPED_BACKSLASH in out
    assert json.loads(out)["source"][0]["text"] == "a\\ud800"


def test_concat_of_mixed_timelines_writes_nothing(tmp_path, capsys):
    files = write_exit_code_inputs(tmp_path)
    assert main(["concat", files["mixed_timeline"]]) == 2
    assert capsys.readouterr() == ("", "simulatency: error: timeline mismatch: ca vs nca\n")


@pytest.mark.parametrize("argv", [
    ["simulate", "--strategy", "wait-k", "--k", "2"],
    ["concat", str(FIXTURES / "contrast_traces.jsonl")],
    ["evs", str(FIXTURES / "contrast_alignments.jsonl")],
    ["eval", str(FIXTURES / "contrast_traces.jsonl")],
    ["eval", str(FIXTURES / "contrast_traces.jsonl"), "--json", "r.json"],
    ["correlate", str(FIXTURES / "mixed_report.csv"), "--col-a", "al", "--col-b", "atd"],
])
def test_an_empty_o_value_is_named_and_leaves_no_temporary_file(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "-o="]) == 2
    assert capsys.readouterr().err == "simulatency: error: [Errno 2] No such file or directory: ''\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("json_path", ["missing/r.json", ""])
def test_a_json_report_that_cannot_be_opened_fails_before_any_session_is_scored(
    tmp_path, monkeypatch, capsys, json_path
):
    monkeypatch.chdir(tmp_path)  # where a temporary file for an empty path would go
    given, report = str(tmp_path / json_path) if json_path else "", tmp_path / "r.csv"
    report.write_bytes(b"kept\n")
    report.chmod(0o640)
    scored, score = [], cli._eval_session
    monkeypatch.setattr(cli, "_eval_session", lambda *args: scored.append(args[0].id) or score(*args))
    assert main(["eval", str(FIXTURES / "contrast_traces.jsonl"), "--json", given, "-o", str(report)]) == 2
    assert capsys.readouterr().err == f"simulatency: error: [Errno 2] No such file or directory: {given!r}\n"
    assert report.read_bytes() == b"kept\n"
    assert report.stat().st_mode & 0o777 == 0o640
    assert os.listdir(tmp_path) == ["r.csv"]
    assert scored == []


def test_a_temporary_file_left_by_a_killed_run_with_our_pid_is_no_obstacle(tmp_path):
    report, fresh, plain = tmp_path / "r.csv", tmp_path / "fresh.csv", tmp_path / "plain"
    stale = tmp_path / f"r.csv.{os.getpid()}.tmp"
    stale.write_bytes(b"left over\n")
    stale.chmod(0o600)
    plain.write_bytes(b"")  # the mode open() gives a new file under this umask
    for path in (fresh, report):
        assert main(["eval", str(FIXTURES / "contrast_traces.jsonl"), "-o", str(path)]) == 0
    assert report.read_bytes() == fresh.read_bytes() != b""
    assert report.stat().st_mode & 0o777 == plain.stat().st_mode & 0o777
    assert stale.read_bytes() == b"left over\n"  # it may be live: not ours to remove
    assert sorted(os.listdir(tmp_path)) == ["fresh.csv", "plain", "r.csv", stale.name]


def test_two_outputs_of_one_process_on_one_path_keep_their_own_temporary_files(tmp_path):
    # as two threads that each run main with one -o: neither removes the other's file
    report = tmp_path / "r.csv"
    with cli._output(str(report)) as outer:
        outer.write("outer\n")
        with cli._output(str(report)) as inner:
            inner.write("inner\n")
        assert report.read_text() == "inner\n"
    assert report.read_text() == "outer\n"
    assert os.listdir(tmp_path) == ["r.csv"]


def test_a_replace_that_fails_names_the_output_and_leaves_it_as_it_was(tmp_path, monkeypatch, capsys):
    report = tmp_path / "r.csv"
    report.write_bytes(b"kept\n")

    def refused(src, dst):  # as in a sticky directory, for a file of another user
        raise PermissionError(1, "Operation not permitted", src, dst)

    monkeypatch.setattr(os, "replace", refused)
    assert main(["eval", str(FIXTURES / "contrast_traces.jsonl"), "-o", str(report)]) == 2
    assert capsys.readouterr().err == f"simulatency: error: [Errno 1] Operation not permitted: '{report}'\n"
    assert report.read_bytes() == b"kept\n"
    assert os.listdir(tmp_path) == ["r.csv"]


def test_correlate_prints_no_result_when_its_output_cannot_be_opened(tmp_path, capsys):
    out = tmp_path / "missing" / "r.csv"
    argv = ["correlate", str(FIXTURES / "mixed_report.csv"), "--col-a", "al", "--col-b", "atd", "-o", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"simulatency: error: [Errno 2] No such file or directory: '{out}'\n")


# ---------------------------------------------------------------------------
# logging: run in a fresh interpreter, where pytest's root handlers cannot
# hide what main leaves behind
# ---------------------------------------------------------------------------

MAIN_TWICE = """
import contextlib, io, json, logging, sys
from simulatency.cli import main

setup, argv = sys.argv[1], sys.argv[2:]
root = logging.getLogger()
if setup == "handled":
    root.addHandler(logging.NullHandler())
elif setup == "quiet":
    logging.basicConfig(level=logging.ERROR)
before = (list(root.handlers), root.level)
calls = []
for _ in range(2):
    with contextlib.redirect_stderr(io.StringIO()) as err, \\
            contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    calls.append([code, err.getvalue()])
after = (list(root.handlers), root.level)
logger = logging.getLogger("simulatency")
package = [logging.getLevelName(logger.level), *(type(h).__name__ for h in logger.handlers)]
print(json.dumps({"calls": calls, "root kept": after == before, "package": package}))
"""


def run_main_twice(tmp_path, setup, *argv):
    traces = tmp_path / "traces.jsonl"
    write_traces(traces, [gen_wait_k(k, 4, 4) for k in (1, 2, 3)])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", MAIN_TWICE, setup,
         "eval", str(traces), "--metrics", "al,start_offset", *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)


def test_main_writes_warnings_to_the_stderr_of_each_call_and_leaves_no_handler(tmp_path):
    warnings = "".join(
        f"WARNING wait{k}-4x4: skipping start_offset (unit-step session has no timed metrics)\n"
        for k in (1, 2, 3)
    )
    result = run_main_twice(tmp_path, "bare")
    assert result == {"calls": [[0, warnings]] * 2, "root kept": True, "package": ["NOTSET"]}
    result = run_main_twice(tmp_path, "bare", "--strict")
    escalated = "simulatency: error: 3 warnings escalated by --strict\n"
    assert result["calls"] == [[2, warnings + escalated]] * 2


def test_main_under_a_root_handler_prints_no_warning_but_counts_them_for_strict(tmp_path):
    escalated = "simulatency: error: 3 warnings escalated by --strict\n"
    for setup in ("handled", "quiet"):  # "quiet": the root's level is ERROR
        result = run_main_twice(tmp_path, setup, "--strict")
        assert result == {"calls": [[2, escalated]] * 2, "root kept": True, "package": ["NOTSET"]}
