"""Property and fuzz tests of the JSONL wire format.

Writing and reading back a session with integer-millisecond times gives the
same session, whose sides behave as the tuples of their tokens.  Any JSON
value, and any mutation of a valid trace or alignment record, run through
``eval``, ``concat`` and ``evs`` exits 0 or 2 and raises nothing: a bad
record is a data error naming its line, never a traceback.
"""

import contextlib
import copy
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulatency import (
    MODALITIES,
    STEPS,
    TIMELINES,
    ComputationSpan,
    SessionTrace,
    TimedToken,
    record_to_session,
    session_to_record,
)
from simulatency.cli import main
from simulatency.core import TokenSide

from test_metrics_time import contrast_pair

FUZZ = settings(max_examples=40, deadline=None)

times_ms = st.integers(min_value=0, max_value=10**12)
# ASCII, a two-byte, a three-byte and a four-byte character, and the
# characters JSON and CSV escape; a fixed alphabet spares hypothesis from
# building its Unicode tables on a fresh checkout
ALPHABET = "ab é中𝄞\"\\,\n\t"


def texts(min_size=0, max_size=6):
    return st.text(ALPHABET, min_size=min_size, max_size=max_size)


@st.composite
def ordered_times(draw, n):
    """n (start, end) pairs as integer-valued floats, starts and ends
    non-decreasing and each end at or after its start."""
    starts = sorted(draw(st.lists(times_ms, min_size=n, max_size=n)))
    pairs = []
    prev_end = 0
    for start in starts:
        prev_end = max(prev_end, start + draw(st.integers(0, 10**6)))
        pairs.append((float(start), float(prev_end)))
    return pairs


@st.composite
def integer_ms_sessions(draw):
    timeline = draw(st.sampled_from(TIMELINES))
    timed = timeline != STEPS or draw(st.booleans())
    n_src = draw(st.integers(0, 6))
    n_tgt = draw(st.integers(0, 6)) if n_src else 0
    g_values = st.integers(1, max(n_src, 1))

    def side(n):
        words = draw(st.lists(st.none() | texts(max_size=4), min_size=n, max_size=n))
        if not timed:
            return tuple(TimedToken(text) for text in words)
        times = draw(ordered_times(n))
        return tuple(TimedToken(text, start, end) for text, (start, end) in zip(words, times))

    spans = None
    if draw(st.booleans()):
        spans = tuple(
            ComputationSpan(kind, start, start + length)
            for kind, start, length in draw(
                st.lists(st.tuples(texts(), times_ms, times_ms), max_size=3)
            )
        )
    return SessionTrace(
        id=draw(texts(min_size=1, max_size=8)),
        modality=draw(st.sampled_from(MODALITIES)),
        timeline_kind=timeline,
        source=side(n_src),
        target=side(n_tgt),
        reads=tuple(sorted(draw(st.lists(g_values, min_size=n_tgt, max_size=n_tgt)))),
        reference=draw(st.none() | texts(max_size=8)),
        spans=spans,
    )


@settings(max_examples=50, deadline=None)
@given(integer_ms_sessions())
def test_record_round_trip_is_the_identity_on_integer_ms_sessions(session):
    line = json.dumps(session_to_record(session), ensure_ascii=False)
    assert record_to_session(json.loads(line)) == session


def tokens_of(entries):
    """The tokens of a record's source or target entries, built one by one."""
    return tuple(TimedToken(e.get("text"), e.get("start"), e.get("end")) for e in entries)


slice_bounds = st.none() | st.integers(-8, 8)


@settings(max_examples=50, deadline=None)
@given(integer_ms_sessions(), st.data())
def test_a_parsed_side_behaves_as_the_tuple_of_its_tokens(session, data):
    record = session_to_record(session)
    parsed = record_to_session(record)
    sides = [
        (parsed.source, tokens_of(record["source"])),
        (parsed.target, tokens_of(record["target"])),
    ]
    for side, tokens in sides:
        assert isinstance(side, TokenSide)
        assert len(side) == len(tokens)
        for i in range(-len(tokens), len(tokens)):
            assert side[i] == tokens[i]
        for i in (len(tokens), -len(tokens) - 1):
            with pytest.raises(IndexError):
                side[i]
        cut = slice(
            data.draw(slice_bounds), data.draw(slice_bounds),
            data.draw(st.none() | st.integers(-3, 3).filter(bool)),
        )
        assert side[cut] == tokens[cut] and tuple(side[cut]) == tokens[cut]
        assert list(side) == list(tokens)
        assert side == tokens and tokens == side and hash(side) == hash(tokens)
        if tokens:
            changed = tokens[:-1] + (TimedToken("~", tokens[-1].start, tokens[-1].end),)
            assert side != changed and changed != side and side != tokens[:-1]
        other = tokens[::-1] + (TimedToken("~"),)
        assert TokenSide.of(other) == other and TokenSide.of(side) is side
    assert replace(parsed, source=sides[0][1], target=sides[1][1]) == parsed


# ---------------------------------------------------------------------------
# fuzzing the readers through the CLI
# ---------------------------------------------------------------------------

# values that have broken readers: integers beyond a float's range, beyond
# 2**63 and just under the JSON decoder's digit limit, NaN and infinities
# (written as JSON literals), fractions, negatives, empty containers and an
# unpaired surrogate (escaped by json.dumps); each draw is a fresh object, so
# an edit to one cannot reach another
EDGE_VALUES = [
    10**309, -(10**400), 2**64, 10**4000, float("nan"), float("inf"), -float("inf"), 1e308,
    -1, 0.5, True, None, "", "\ud800", [], {},
]
edge_values = st.sampled_from(EDGE_VALUES).map(copy.deepcopy)
scalars = (
    edge_values
    | st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | texts()
)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(texts(), children, max_size=4),
    max_leaves=12,
)
# keys a reader looks up, so that an added key can collide with a real one
FIELD_NAMES = st.sampled_from(
    ["id", "modality", "timeline", "source", "target", "reference", "spans", "meta", "text",
     "start", "end", "g", "kind", "links", "src", "tgt", "src_start", "tgt_start", "verified"]
)


def value_paths(value, path=()):
    """The path of ``value`` and of every value nested in it."""
    yield path
    if isinstance(value, dict):
        for key, child in value.items():
            yield from value_paths(child, path + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from value_paths(child, path + (i,))


def at(value, path):
    for key in path:
        value = value[key]
    return value


@st.composite
def mutated(draw, record):
    """``record`` after one to three edits: a value swapped for any JSON value
    (a type swap), a key or entry deleted, or a key or entry added."""
    record = copy.deepcopy(record)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(value_paths(record))))
        target = at(record, path)
        edit = draw(st.sampled_from(["swap", "delete", "add"]))
        if edit == "add" and isinstance(target, dict):
            target[draw(FIELD_NAMES | texts(max_size=4))] = draw(json_values)
        elif edit == "add" and isinstance(target, list):
            target.append(draw(json_values | st.sampled_from(target or [0]).map(copy.deepcopy)))
        elif path and edit == "delete":
            del at(record, path[:-1])[path[-1]]
        elif path:
            at(record, path[:-1])[path[-1]] = draw(edge_values | json_values)
    return record


def good_trace(session_id):
    record = session_to_record(contrast_pair()[0])
    record["id"] = session_id
    record["spans"] = [{"kind": "decode", "start": 0, "end": 100}]
    return record


def good_alignment(sentence_id):
    links = [{"src": 1, "tgt": 2, "src_start": 0, "tgt_start": 300, "verified": True}]
    return {"id": sentence_id, "links": links}


def run_cli(argv):
    """Exit code of ``main(argv)``, with stdout and stderr encoded as UTF-8
    like a terminal's, so a string that cannot be written fails here too."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main(argv)


def assert_data_error_or_success(lines, commands):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        for command in commands:
            assert run_cli([*command, str(path)]) in (0, 2), command


TRACE_COMMANDS = [["eval"], ["eval", "--timeline", "nca"], ["concat"]]


@FUZZ
@given(json_values)
def test_any_json_value_as_a_record_is_refused_or_read(value):
    assert_data_error_or_success([value], [*TRACE_COMMANDS, ["evs"]])


def good_or_mutated(good):
    """Two records, ``good("a")`` and ``good("b")``, each possibly mutated."""
    return st.tuples(*(st.just(good(key)) | mutated(good(key)) for key in "ab"))


@FUZZ
@given(good_or_mutated(good_trace))
def test_mutated_trace_records_are_refused_or_read(records):
    assert_data_error_or_success(records, TRACE_COMMANDS)


@FUZZ
@given(good_or_mutated(good_alignment))
def test_mutated_alignment_records_are_refused_or_read(records):
    assert_data_error_or_success(records, [["evs"]])
