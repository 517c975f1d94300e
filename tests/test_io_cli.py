import csv
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from simulatency import (
    CA,
    NCA,
    SPEECH_TO_TEXT,
    AlignedPair,
    ComputationSpan,
    SessionTrace,
    StepMetricInput,
    TimedToken,
    TraceError,
    TraceFormatError,
    atd_steps,
    average_lagging,
    differentiable_average_lagging,
    contrast_alignments,
    contrast_balanced,
    contrast_frontloaded,
    gen_chunk_k,
    gen_wait_k,
    read_alignments,
    read_sessions,
    record_to_session,
    session_to_record,
    write_alignments,
    write_sessions,
)
from simulatency.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def read_csv(text):
    return list(csv.DictReader(text.splitlines()))


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------

def test_session_record_round_trip(tmp_path):
    sessions = [gen_wait_k(3, 6, 7), gen_chunk_k(2, 5, 5), contrast_balanced(), contrast_frontloaded()]
    path = tmp_path / "traces.jsonl"
    write_sessions(str(path), sessions)
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
    write_sessions(str(path), sessions)
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


def test_missing_g_rejected():
    record = session_to_record(gen_wait_k(1, 2, 2))
    del record["target"][0]["g"]
    with pytest.raises(TraceFormatError, match="g"):
        record_to_session(record)


def test_timed_record_requires_integer_ms():
    record = session_to_record(contrast_balanced())
    record["target"][0]["start"] = 1200.5
    with pytest.raises(TraceFormatError, match="integer"):
        record_to_session(record)


def test_timed_record_rejects_negative_times():
    record = session_to_record(contrast_balanced())
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
    "start, end", [(0.0, 1.5), (0.5, 2.0), (0.0, math.inf), (0.0, math.nan)]
)
def test_session_to_record_refuses_times_it_would_truncate(start, end):
    session = SessionTrace(
        "frac", SPEECH_TO_TEXT, NCA, (TimedToken("x", start, end),), (TimedToken("y", 3, 4),), (1,)
    )
    with pytest.raises(TraceError, match=r"^frac: token time .+ is not integer milliseconds$"):
        session_to_record(session)


def test_session_to_record_refuses_fractional_span_times():
    session = replace(
        contrast_balanced(), timeline_kind=CA, spans=(ComputationSpan("decode", 0, 2.5),)
    )
    with pytest.raises(TraceError) as info:
        session_to_record(session)
    assert str(info.value) == "contrast-balanced: span time 2.5 is not integer milliseconds"


def test_write_alignments_refuses_fractional_link_times(tmp_path):
    with pytest.raises(TraceError) as info:
        write_alignments(str(tmp_path / "a.jsonl"), [("a1", [AlignedPair(1, 1, 0.5, 3)])])
    assert str(info.value) == "a1: link time 0.5 is not integer milliseconds"


def test_alignment_round_trip(tmp_path):
    path = tmp_path / "align.jsonl"
    write_alignments(str(path), sorted(contrast_alignments().items()))
    loaded = dict(read_alignments(str(path)))
    assert loaded == contrast_alignments()


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
    write_sessions(str(traces), [gen_chunk_k(19, 20, 20), gen_chunk_k(20, 20, 20)])
    rows = eval_csv(capsys, str(traces), "--metrics", "al")
    assert float(rows[0]["al"]) == 9.55
    assert float(rows[1]["al"]) == 20.0
    assert rows[2]["id"] == "corpus"
    assert float(rows[2]["al"]) == pytest.approx((9.55 + 20.0) / 2)


def test_cli_eval_wait5_defaults(tmp_path, capsys):
    traces = tmp_path / "traces.jsonl"
    write_sessions(str(traces), [gen_wait_k(5, 20, 20)])
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
    write_sessions(str(traces), [gen_wait_k(2, 4, 4)])
    rows = eval_csv(capsys, str(traces), "--metrics", "al,start_offset")
    assert float(rows[0]["al"]) == pytest.approx(2.0)
    assert rows[0]["start_offset"] == ""


def test_cli_eval_strict_escalates_warnings(tmp_path):
    traces = tmp_path / "traces.jsonl"
    write_sessions(str(traces), [gen_wait_k(2, 4, 4)])
    code = main(["eval", str(traces), "--metrics", "start_offset", "--strict"])
    assert code == 2


def test_cli_eval_unknown_metric_is_usage_error(tmp_path):
    traces = tmp_path / "traces.jsonl"
    write_sessions(str(traces), [gen_wait_k(2, 4, 4)])
    assert main(["eval", str(traces), "--metrics", "bleu"]) == 1


def test_cli_eval_json_report(tmp_path, capsys):
    traces = tmp_path / "traces.jsonl"
    report = tmp_path / "report.json"
    write_sessions(str(traces), [gen_wait_k(5, 20, 20)])
    code = main(["eval", str(traces), "--json", str(report), "-o", str(tmp_path / "r.csv")])
    assert code == 0
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload["sessions"][0]["metrics"]["al"] == 5.0
    assert payload["corpus"]["n_sessions"] == 1


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
        "ov: skipping atd (ov: target tokens 1,2 out of order once split into sub-segments)"
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


def test_cli_correlate_excludes_corpus_row_and_absent_cells(tmp_path, capsys):
    path = tmp_path / "report.csv"
    write_report(
        path,
        [["s1", 1, 1], ["s2", 2, 2], ["s3", 3, ""], ["s4", 4, 4], ["corpus", 99, 0]],
        ["id", "atd", "mean_evs"],
    )
    main(["correlate", str(path), "--col-a", "atd", "--col-b", "mean_evs"])
    assert "n=3" in capsys.readouterr().out


def test_cli_correlate_insufficient_samples(tmp_path, capsys):
    path = tmp_path / "report.csv"
    write_report(path, [["s1", 1, 1], ["s2", 2, 2]], ["id", "a", "b"])
    assert main(["correlate", str(path), "--col-a", "a", "--col-b", "b"]) == 2


# ---------------------------------------------------------------------------
# concat command
# ---------------------------------------------------------------------------

def test_cli_concat_adjacent_pairs(tmp_path, capsys):
    traces = tmp_path / "traces.jsonl"
    write_sessions(str(traces), [gen_wait_k(1, 1, 1), replace(gen_wait_k(1, 1, 1), id="b")])
    out_path = tmp_path / "joined.jsonl"
    assert main(["concat", str(traces), "-o", str(out_path)]) == 0
    joined = read_sessions(str(out_path))
    assert len(joined) == 1
    assert joined[0].reads == (1, 2)


def test_cli_concat_warns_on_odd_count(tmp_path, caplog):
    traces = tmp_path / "traces.jsonl"
    write_sessions(str(traces), [replace(gen_wait_k(1, 2, 2), id=f"s{i}") for i in range(3)])
    out_path = tmp_path / "joined.jsonl"
    with caplog.at_level("WARNING"):
        assert main(["concat", str(traces), "-o", str(out_path)]) == 0
    assert len(read_sessions(str(out_path))) == 1
    assert any("unpaired" in r.message for r in caplog.records)


def test_cli_concat_sliding(tmp_path):
    traces = tmp_path / "traces.jsonl"
    write_sessions(str(traces), [replace(gen_wait_k(1, 2, 2), id=f"s{i}") for i in range(3)])
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


def test_cli_concat_single_session_is_data_error(tmp_path, capsys):
    traces = tmp_path / "traces.jsonl"
    write_sessions(str(traces), [gen_wait_k(1, 2, 2)])
    assert main(["concat", str(traces)]) == 2


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_usage_error_exit_code(capsys):
    assert main(["eval"]) == 1
    assert main(["unknown-command"]) == 1


def test_bad_flag_values_are_usage_errors(tmp_path, capsys):
    traces = tmp_path / "traces.jsonl"
    write_sessions(str(traces), [gen_wait_k(2, 4, 4)])
    assert main(["eval", str(traces), "--granularity", "bytes"]) == 1
    assert main(["eval", str(traces), "--tau", "-5"]) == 1
    assert main(["simulate", "--strategy", "wait-k", "--k", "x..y"]) == 1


def test_missing_file_is_data_error(capsys):
    assert main(["eval", "/nonexistent/path.jsonl"]) == 2


def write_exit_code_inputs(tmp_path):
    paths = {name: tmp_path / name for name in (
        "traces.jsonl", "missing.jsonl", "malformed.jsonl", "not_utf8", "late_not_utf8.jsonl",
        "deep.jsonl", "long_int.jsonl", "bad_record.jsonl", "big_field.csv", "short.csv",
        "repeated_id.jsonl", "repeated_sentence.jsonl", "huge_time.jsonl", "huge_link_time.jsonl",
        "surrogate.jsonl", "huge_pair.jsonl",
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
    paths["repeated_id.jsonl"].write_text(good * 2, encoding="utf-8")
    sentence = '{"id": "a1", "links": []}\n'
    paths["repeated_sentence.jsonl"].write_text(sentence * 2, encoding="utf-8")
    huge = session_to_record(contrast_balanced())
    huge["target"][-1]["end"] = 10**400
    paths["huge_time.jsonl"].write_text(json.dumps(huge) + "\n", encoding="utf-8")
    link = {"src": 1, "tgt": 1, "src_start": 10**400, "tgt_start": 0}
    paths["huge_link_time.jsonl"].write_text(
        json.dumps({"id": "a1", "links": [link]}) + "\n", encoding="utf-8"
    )
    paths["surrogate.jsonl"].write_text(good.replace("wait2", "\\ud800wait2"), encoding="utf-8")
    far = {  # a chunk ending at 1e308 ms: a second one shifted after it ends at infinity
        "modality": "speech-to-text", "timeline": "nca",
        "source": [{"start": 0, "end": 10**308}],
        "target": [{"start": 10**308, "end": 10**308, "g": 1}],
    }
    paths["huge_pair.jsonl"].write_text(
        "".join(json.dumps({"id": key, **far}) + "\n" for key in "ab"), encoding="utf-8"
    )
    return {name.split(".")[0]: str(path) for name, path in paths.items()}


CORRELATE_AB = ["--col-a", "a", "--col-b", "b"]

# (case, argv with {file} placeholders, exit code, text stderr must hold)
EXIT_CODES = [
    ("success", ["eval", "{traces}"], 0, ""),
    ("missing argument", ["eval"], 1, "error: the following arguments are required"),
    ("unknown command", ["unknown-command"], 1, "error: argument command"),
    ("bad --granularity", ["eval", "{traces}", "--granularity", "bytes"], 1, "bad granularity"),
    ("bad --tau", ["eval", "{traces}", "--tau", "-5"], 1, "tau must be positive"),
    ("bad --tau, before the file is read", ["eval", "{missing}", "--tau", "0"], 1, "tau must be"),
    ("non-finite --tau", ["eval", "{traces}", "--tau", "inf"], 1, "tau must be finite, got inf"),
    ("bad --k", ["simulate", "--strategy", "wait-k", "--k", "x..y"], 1, "error:"),
    ("repeated --k value", ["simulate", "--strategy", "wait-k", "--k", "3,3"], 1, "value 3 given twice"),
    ("--k value repeated by a range",
     ["simulate", "--strategy", "wait-k", "--k", "1..3,2"], 1, "value 2 given twice"),
    ("repeated --first-len value",
     ["simulate", "--strategy", "two-segment", "--first-len", "4,2..4"], 1, "value 4 given twice"),
    ("unknown --metrics name, before the file is read",
     ["eval", "{missing}", "--metrics", "al,bogus"], 1, "unknown metrics: bogus"),
    ("empty --metrics entry", ["eval", "{traces}", "--metrics", "al,"], 1, "unknown metrics: ''"),
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
    ("time beyond float range after concat",
     ["concat", "{huge_pair}"], 2, "a+b: token time inf is not integer milliseconds"),
    ("repeated session id", ["eval", "{repeated_id}"], 2, "line 2: duplicate id 'wait2-4x4'"),
    ("repeated session id, concat", ["concat", "{repeated_id}"], 2, "line 2: duplicate id"),
    ("repeated sentence id", ["evs", "{repeated_sentence}"], 2, "line 2: duplicate id 'a1'"),
    ("StatsError", ["correlate", "{short}", *CORRELATE_AB], 2, "insufficient samples"),
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
