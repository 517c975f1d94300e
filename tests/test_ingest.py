"""Malformed trace and alignment records: a TraceFormatError naming the line,
and exit code 2 from the CLI, never a traceback."""

import json
from dataclasses import replace

import pytest

from simulatency import (
    TraceError,
    TraceFormatError,
    gen_wait_k,
    record_to_session,
    session_to_record,
)
from simulatency.cli import main
from simulatency.trace_io import read_alignments, read_sessions, record_to_alignment

from test_metrics_time import contrast_pair


def good_trace():
    record = session_to_record(contrast_pair()[0])
    record["spans"] = [{"kind": "decode", "start": 0, "end": 100}]
    return record


def good_alignment():
    return {
        "id": "a1",
        "links": [{"src": 1, "tgt": 2, "src_start": 0, "tgt_start": 300, "verified": True}],
    }


def write_lines(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return str(path)


def trace_with(**fields):
    record = good_trace()
    record.update(fields)
    return record


def alignment_with(**fields):
    record = good_alignment()
    record["links"] = [{**record["links"][0], **fields}]
    return record


MALFORMED_TRACES = {
    "source not a list": trace_with(source=5),
    "target not a list": trace_with(target=5),
    "spans not a list": trace_with(spans=5),
    "spans null": trace_with(spans=None),
    "span entry not an object": trace_with(spans=[5]),
    "span entry a string": trace_with(spans=["decode"]),
    "span ends before it starts": trace_with(spans=[{"start": 500, "end": 400}]),
    "token ends before it starts": trace_with(
        source=[{"text": "x", "start": 500, "end": 400}]
    ),
    "record not an object": [good_trace()],
    "id empty": trace_with(id=""),
    "id not a string": trace_with(id=5),
    "token text not a string": trace_with(source=[{"text": 5, "start": 0, "end": 400}]),
    "g fractional": trace_with(target=[{"text": "y", "start": 3000, "end": 4000, "g": 1.5}]),
    "g a bool": trace_with(target=[{"text": "y", "start": 3000, "end": 4000, "g": True}]),
    "reference not a string": trace_with(reference=5),
    "time a 400-digit integer": trace_with(source=[{"text": "x", "start": 0, "end": 10**400}]),
    "span time a 400-digit integer": trace_with(spans=[{"start": 10**400, "end": 10**400}]),
}


@pytest.mark.parametrize("record", MALFORMED_TRACES.values(), ids=MALFORMED_TRACES.keys())
def test_malformed_trace_record_raises_format_error(record):
    with pytest.raises(TraceFormatError) as info:
        record_to_session(record, 7)
    assert str(info.value).startswith("line 7: ")
    assert str(info.value).count("line 7") == 1


@pytest.mark.parametrize("record", MALFORMED_TRACES.values(), ids=MALFORMED_TRACES.keys())
@pytest.mark.parametrize("command", [["eval"], ["eval", "--timeline", "nca"], ["concat"]])
def test_malformed_trace_record_exits_2(tmp_path, capsys, record, command):
    path = write_lines(tmp_path / "t.jsonl", [good_trace(), record])
    assert main([*command, path]) == 2
    err = capsys.readouterr().err
    assert "simulatency: error: line 2: " in err
    assert "Traceback" not in err


# The full stderr of `eval` on each malformed record above, on line 2 after a
# good one.
MALFORMED_TRACE_ERRORS = {
    "source not a list": "source must be a JSON array",
    "target not a list": "target must be a JSON array",
    "spans not a list": "spans must be a JSON array",
    "spans null": "spans must be a JSON array",
    "span entry not an object": "spans entry must be an object",
    "span entry a string": "spans entry must be an object",
    "span ends before it starts": "invalid computation span [500.0, 400.0)",
    "token ends before it starts": "source token 1: end 400.0 precedes start 500.0",
    "record not an object": "record must be a JSON object",
    "id empty": "id must be a non-empty string",
    "id not a string": "id must be a non-empty string",
    "token text not a string": "source text must be a string",
    "g fractional": "target g must be an integer",
    "g a bool": "target g must be an integer",
    "reference not a string": "reference must be a string",
    "time a 400-digit integer": "source end is too large",
    "span time a 400-digit integer": "span start is too large",
}


def source_tokens(*times):
    return [{"text": f"x{i}", "start": s, "end": e} for i, (s, e) in enumerate(times, 1)]


# Records with two faults, and the one of them that eval reports.
TWO_FAULT_TRACES = {
    "g a string on target 2, source tokens out of order": (
        trace_with(
            source=source_tokens((1000, 2000), (0, 1000), (2000, 3000)),
            target=[{"text": "y1", "start": 3000, "end": 4000, "g": 3},
                    {"text": "y2", "start": 4000, "end": 5000, "g": "3"}],
        ),
        "target g must be an integer",
    ),
    "fractional time on source 3, reference not a string": (
        trace_with(source=source_tokens((0, 1000), (1000, 2000), (2000.5, 3000)), reference=5),
        "source start must be integer milliseconds",
    ),
    "source 2 ends before it starts, target 1 text not a string": (
        trace_with(
            source=source_tokens((0, 1000), (2500, 2000), (2000, 3000)),
            target=[{"text": 7, "start": 3000, "end": 4000, "g": 3}],
        ),
        "source token 2: end 2000.0 precedes start 2500.0",
    ),
    "g past the source, target tokens out of order": (
        trace_with(
            source=source_tokens((0, 1000), (1000, 2000)),
            target=[{"text": "y1", "start": 4000, "end": 5000, "g": 1},
                    {"text": "y2", "start": 3000, "end": 4000, "g": 9}],
        ),
        "contrast-balanced: target tokens 1,2 out of order",
    ),
    "unknown modality, source tokens out of order": (
        trace_with(modality="speech", source=source_tokens((1000, 2000), (0, 1000))),
        "contrast-balanced: unknown modality 'speech'",
    ),
    "span ends before it starts, source tokens out of order": (
        trace_with(
            source=source_tokens((1000, 2000), (0, 1000)), spans=[{"start": 500, "end": 400}]
        ),
        "invalid computation span [500.0, 400.0)",
    ),
    "g missing on target 1, negative time on target 2": (
        trace_with(target=[{"text": "y1", "start": 3000, "end": 4000},
                           {"text": "y2", "start": -1, "end": 4000, "g": 3}]),
        "missing field 'g'",
    ),
    "unit-step token with a start only, g past the source": (
        trace_with(
            timeline="steps", source=[{"text": "x1"}, {"text": "x2", "start": 5}],
            target=[{"text": "y1", "g": 4}],
        ),
        "source end must be a number, got None",
    ),
    "target without source, target tokens out of order": (
        trace_with(
            source=[],
            target=[{"text": "y1", "start": 4000, "end": 5000, "g": 1},
                    {"text": "y2", "start": 3000, "end": 4000, "g": 1}],
        ),
        "contrast-balanced: target tokens without source tokens",
    ),
}

ERROR_TEXTS = {
    **{name: (MALFORMED_TRACES[name], text) for name, text in MALFORMED_TRACE_ERRORS.items()},
    **TWO_FAULT_TRACES,
}


def test_every_malformed_trace_has_its_error_text():
    assert MALFORMED_TRACE_ERRORS.keys() == MALFORMED_TRACES.keys()


@pytest.mark.parametrize("record, message", ERROR_TEXTS.values(), ids=ERROR_TEXTS.keys())
def test_eval_error_text_and_exit_code(tmp_path, capsys, record, message):
    path = write_lines(tmp_path / "t.jsonl", [good_trace(), record])
    assert main(["eval", path]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"simulatency: error: line 2: {message}\n"
    assert captured.out == ""


MALFORMED_ALIGNMENTS = {
    "links not a list": {"id": "a1", "links": 5},
    "link not an object": {"id": "a1", "links": [5]},
    "link a list": {"id": "a1", "links": [[1, 2]]},
    "src fractional": alignment_with(src=1.7),
    "src a string": alignment_with(src="x"),
    "src a numeric string": alignment_with(src="3"),
    "src a bool": alignment_with(src=True),
    "tgt fractional": alignment_with(tgt=2.5),
    "tgt null": alignment_with(tgt=None),
    "src zero": alignment_with(src=0),
    "src_start negative": alignment_with(src_start=-1),
    "record not an object": [good_alignment()],
    "id empty": {**good_alignment(), "id": ""},
    "verified not a bool": alignment_with(verified="yes"),
    "src_start a 400-digit integer": alignment_with(src_start=10**400),
    "tgt_start a 400-digit integer": alignment_with(tgt_start=10**400),
}


@pytest.mark.parametrize(
    "record", MALFORMED_ALIGNMENTS.values(), ids=MALFORMED_ALIGNMENTS.keys()
)
def test_malformed_alignment_record_raises_format_error(record):
    with pytest.raises(TraceFormatError) as info:
        record_to_alignment(record, 4)
    # the line number is stated once, not once per wrapping layer
    assert str(info.value).startswith("line 4: ")
    assert str(info.value).count("line 4") == 1


@pytest.mark.parametrize(
    "record", MALFORMED_ALIGNMENTS.values(), ids=MALFORMED_ALIGNMENTS.keys()
)
def test_malformed_alignment_record_exits_2(tmp_path, capsys, record):
    path = write_lines(tmp_path / "a.jsonl", [good_alignment(), record])
    assert main(["evs", path]) == 2
    err = capsys.readouterr().err
    assert "simulatency: error: line 2: " in err
    assert "Traceback" not in err


# The full stderr of `evs` on each malformed record above, on line 2 after a
# good one.
MALFORMED_ALIGNMENT_ERRORS = {
    "links not a list": "links must be a JSON array",
    "link not an object": "links entry must be an object",
    "link a list": "links entry must be an object",
    "src fractional": "src must be an integer, got 1.7",
    "src a string": "src must be an integer, got 'x'",
    "src a numeric string": "src must be an integer, got '3'",
    "src a bool": "src must be an integer, got True",
    "tgt fractional": "tgt must be an integer, got 2.5",
    "tgt null": "tgt must be an integer, got None",
    "src zero": "alignment indices must be >= 1, got (0, 2)",
    "src_start negative": "src_start must be non-negative",
    "record not an object": "record must be a JSON object",
    "id empty": "id must be a non-empty string",
    "verified not a bool": "verified must be a boolean",
    "src_start a 400-digit integer": "src_start is too large",
    "tgt_start a 400-digit integer": "tgt_start is too large",
}

# Links with two faults, and the one of them that evs reports.
TWO_FAULT_ALIGNMENTS = {
    "verified a string, src zero": (
        alignment_with(verified="yes", src=0), "verified must be a boolean"
    ),
    "src fractional, tgt_start negative": (
        alignment_with(src=1.7, tgt_start=-1), "src must be an integer, got 1.7"
    ),
    "src missing, tgt fractional": (
        {"id": "a1", "links": [{"tgt": 2.5, "src_start": 0, "tgt_start": 300}]},
        "missing field 'src'",
    ),
    "src zero, src_start negative": (
        alignment_with(src=0, src_start=-1), "src_start must be non-negative"
    ),
    "src zero, tgt negative": (
        alignment_with(src=0, tgt=-1), "alignment indices must be >= 1, got (0, -1)"
    ),
    "tgt zero, tgt_start a 400-digit integer": (
        alignment_with(tgt=0, tgt_start=10**400), "tgt_start is too large"
    ),
    "link 1 src zero, link 2 not an object": (
        {"id": "a1", "links": [{"src": 0, "tgt": 2, "src_start": 0, "tgt_start": 300}, 5]},
        "alignment indices must be >= 1, got (0, 2)",
    ),
}

ALIGNMENT_ERROR_TEXTS = {
    **{
        name: (MALFORMED_ALIGNMENTS[name], text)
        for name, text in MALFORMED_ALIGNMENT_ERRORS.items()
    },
    **TWO_FAULT_ALIGNMENTS,
}


def test_every_malformed_alignment_has_its_error_text():
    assert MALFORMED_ALIGNMENT_ERRORS.keys() == MALFORMED_ALIGNMENTS.keys()


@pytest.mark.parametrize(
    "record, message", ALIGNMENT_ERROR_TEXTS.values(), ids=ALIGNMENT_ERROR_TEXTS.keys()
)
@pytest.mark.parametrize("mode", ["verified-only", "automatic"])
def test_evs_error_text_and_exit_code(tmp_path, capsys, record, message, mode):
    path = write_lines(tmp_path / "a.jsonl", [good_alignment(), record])
    assert main(["evs", path, "--mode", mode]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"simulatency: error: line 2: {message}\n"
    # each row is written as its sentence is read: the good one is out before the fault
    assert captured.out == "id,n_links,n_used,mean_evs\na1,1,1,300.0\n"


def test_fractional_link_index_is_not_truncated():
    with pytest.raises(TraceFormatError, match="src must be an integer, got 1.7"):
        record_to_alignment(alignment_with(src=1.7))


def test_integer_valued_float_link_index_is_accepted():
    _, links = record_to_alignment(alignment_with(src=3.0, tgt=4.0))
    assert (links[0].src_index, links[0].tgt_index) == (3, 4)
    assert type(links[0].src_index) is int and type(links[0].tgt_index) is int


# The full text of the token-ordering errors, as a user sees it after "error: ".
TOKEN_ORDER_ERRORS = {
    "source token ends before it starts": (
        trace_with(source=[{"text": "x", "start": 500, "end": 400}]),
        "line 7: source token 1: end 400.0 precedes start 500.0",
    ),
    "target token ends before it starts": (
        trace_with(target=[
            {"text": "y", "start": 3000, "end": 4000, "g": 3},
            {"text": "z", "start": 500, "end": 400, "g": 3},
        ]),
        "line 7: target token 2: end 400.0 precedes start 500.0",
    ),
    "source tokens out of order": (
        trace_with(source=[
            {"text": "x", "start": 500, "end": 900},
            {"text": "y", "start": 400, "end": 1000},
        ], target=[{"text": "z", "start": 1000, "end": 1100, "g": 2}]),
        "line 7: contrast-balanced: source tokens 1,2 out of order",
    ),
}


@pytest.mark.parametrize(
    "record, message", TOKEN_ORDER_ERRORS.values(), ids=TOKEN_ORDER_ERRORS.keys()
)
def test_token_order_error_text(record, message):
    with pytest.raises(TraceFormatError) as info:
        record_to_session(record, 7)
    assert str(info.value) == message


def test_untimed_token_on_timed_session_error_text():
    with pytest.raises(TraceError) as info:
        replace(gen_wait_k(2, 4, 4), timeline_kind="ca")
    assert str(info.value) == "wait2-4x4: source token 1 lacks times on a timed session"


def test_repeated_session_id_raises_format_error(tmp_path):
    path = write_lines(tmp_path / "t.jsonl", [good_trace(), trace_with(id="other"), good_trace()])
    with pytest.raises(TraceFormatError) as info:
        read_sessions(path)
    assert str(info.value) == "line 3: duplicate id 'contrast-balanced' (first on line 1)"


def test_repeated_sentence_id_raises_format_error(tmp_path):
    other = {**good_alignment(), "id": "a2"}
    path = write_lines(tmp_path / "a.jsonl", [other, good_alignment(), good_alignment()])
    with pytest.raises(TraceFormatError) as info:
        read_alignments(path)
    assert str(info.value) == "line 3: duplicate id 'a1' (first on line 2)"
