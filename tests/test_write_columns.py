"""The column paths of the writer and the session join against their
token-by-token forms, and the bound of the reader's shared text table.

``session_to_record`` builds the token objects of a side with texts that is
timed in integer milliseconds by columns; every other side goes token by
token, which names the first bad time.  ``oracle_session_to_record``
below is the token-by-token writer kept as it was before the column path, and
``oracle_concat`` the join likewise: both sides of each test must give the
same records, sessions and error texts.
"""

import json
import math
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulatency import (
    CA,
    MODALITIES,
    NCA,
    SPEECH_TO_TEXT,
    STEPS,
    TIMELINES,
    ComputationSpan,
    SessionTrace,
    TraceError,
    concat_sessions,
    record_to_session,
    session_to_record,
)
from simulatency import trace_io
from simulatency.core import TokenSide
from simulatency.trace_io import _wire_ms

DIFF = settings(max_examples=150, deadline=None)

words = st.text("ab é中", max_size=3)


def oracle_session_to_record(s: SessionTrace) -> dict:
    """The writer as it was: one token object at a time."""

    def token_obj(text, start, end, g=None) -> dict:
        obj: dict = {}
        if text is not None:
            obj["text"] = text
        if start is not None:
            obj["start"] = _wire_ms(start, s.id, "token")
            obj["end"] = _wire_ms(end, s.id, "token")
        if g is not None:
            obj["g"] = g
        return obj

    record: dict = {
        "id": s.id,
        "modality": s.modality,
        "timeline": s.timeline_kind,
        "source": [token_obj(*t) for t in zip(s.source.text, s.source.start, s.source.end)],
        "target": [token_obj(*t) for t in zip(s.target.text, s.target.start, s.target.end, s.reads)],
    }
    if s.reference is not None:
        record["reference"] = s.reference
    if s.spans is not None:
        record["spans"] = [
            {
                "kind": sp.kind,
                "start": _wire_ms(sp.start, s.id, "span"),
                "end": _wire_ms(sp.end, s.id, "span"),
            }
            for sp in s.spans
        ]
    return record


def oracle_concat(a: SessionTrace, b: SessionTrace, mode: str) -> SessionTrace:
    """The join as it was: b's times and reads moved one element at a time."""
    offset = 0.0
    if mode == "relative":
        ends = (t for side in (a.source, a.target) for t in side.end if t is not None)
        offset = max(ends, default=0.0)

    def join(x: TokenSide, y: TokenSide) -> TokenSide:
        start, end = (
            tuple(t if t is None else t + offset for t in col) for col in (y.start, y.end)
        )
        return TokenSide(x.text + y.text, x.start + start, x.end + end)

    spans = None
    if a.spans is not None or b.spans is not None:
        spans = tuple(a.spans or ()) + tuple(
            ComputationSpan(s.kind, s.start + offset, s.end + offset) for s in (b.spans or ())
        )
    reference = None
    if a.reference is not None and b.reference is not None:
        reference = f"{a.reference} {b.reference}"
    return SessionTrace(
        f"{a.id}+{b.id}", a.modality, a.timeline_kind, join(a.source, b.source),
        join(a.target, b.target), a.reads + tuple(g + a.src_len for g in b.reads), reference, spans,
    )


def outcome(fn, *args):
    """``fn(*args)``, or the type and text of the TraceError it raises."""
    try:
        return fn(*args)
    except TraceError as exc:
        return type(exc), str(exc)


@st.composite
def sides(draw, n: int, timeline: str, number):
    """A side of ``n`` tokens with None or str texts: timed, or on a steps
    timeline also untimed or partly timed; each time is ``number(ms)``."""
    text = st.none() | words if draw(st.booleans()) else words  # half the sides have every text
    texts = tuple(draw(st.lists(text, min_size=n, max_size=n)))
    shape = draw(st.sampled_from(["timed", "untimed", "partly"])) if timeline == STEPS else "timed"
    if shape == "untimed":
        return TokenSide(texts, (None,) * n, (None,) * n)
    starts = sorted(draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n)))
    ends, prev = [], 0
    for start in starts:
        prev = max(prev, start + draw(st.integers(0, 5000)))
        ends.append(prev)
    timed = [shape == "timed" or draw(st.booleans()) for _ in range(n)]
    starts = tuple(number(t) if keep else None for t, keep in zip(starts, timed))
    ends = tuple(number(t) if keep else None for t, keep in zip(ends, timed))
    return TokenSide(texts, starts, ends)


# integer ms as int and as float, and times a record cannot hold: a fraction
# (a half, or near the float's precision) and infinity on the last end
NUMBERS = {
    "int": int,
    "float": float,
    "half": lambda t: t + 0.5 if t % 3 == 1 else float(t),
    "tiny": lambda t: t + 1e-9 if t % 4 == 2 else float(t),
}


@st.composite
def sessions(draw, timeline=None, number=None):
    timeline = timeline or draw(st.sampled_from(TIMELINES))
    number = number or NUMBERS[draw(st.sampled_from(["float", "float", *NUMBERS]))]
    n_src = draw(st.integers(0, 6))
    n_tgt = draw(st.integers(0, 6)) if n_src else 0
    target = draw(sides(n_tgt, timeline, number))
    if n_tgt and timeline != STEPS and draw(st.integers(0, 3)) == 0:  # an infinite last end
        target = TokenSide(target.text, target.start, target.end[:-1] + (math.inf,))
    span_list = None
    if draw(st.booleans()):
        span_list = [
            ComputationSpan(kind, number(start), number(start + length))
            for kind, start, length in draw(
                st.lists(st.tuples(words, st.integers(0, 10**6), st.integers(0, 500)), max_size=3)
            )
        ]
    return SessionTrace(
        id=draw(st.text("xyz", min_size=1, max_size=4)),
        modality=draw(st.sampled_from(MODALITIES)),
        timeline_kind=timeline,
        source=draw(sides(n_src, timeline, number)),
        target=target,
        reads=sorted(draw(st.lists(st.integers(1, max(n_src, 1)), min_size=n_tgt, max_size=n_tgt))),
        reference=draw(st.none() | words),
        spans=span_list,
    )


@DIFF
@given(sessions())
def test_session_to_record_matches_the_token_by_token_writer(session):
    expected = outcome(oracle_session_to_record, session)
    got = outcome(session_to_record, session)
    assert got == expected
    if isinstance(expected, dict):  # key order is part of the bytes written
        assert json.dumps(got) == json.dumps(expected)


def integer_ms_session() -> SessionTrace:
    return SessionTrace(
        "bad", SPEECH_TO_TEXT, NCA,
        TokenSide(("a", "b"), (0.0, 300.0), (300.0, 600.0)),
        TokenSide(("c", "d"), (700.0, 900.0), (900.0, 1000.0)), (1, 2),
    )


def with_times(session: SessionTrace, side_name: str, **columns) -> SessionTrace:
    """``session`` with columns of one side replaced past the session's own
    checks, which refuse NaN and negative times before a writer sees them."""
    side = getattr(session, side_name)
    columns = {"text": side.text, "start": side.start, "end": side.end, **columns}
    object.__setattr__(session, side_name, TokenSide(**columns))
    return session


@pytest.mark.parametrize("bad", [0.5, 1e-9, 2.0**53 + 0.5, math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("where", ["source start", "source end", "target start", "target end"])
def test_a_time_a_record_cannot_hold_raises_the_same_error(bad, where):
    side_name, column = where.split()
    session = integer_ms_session()
    times = list(getattr(getattr(session, side_name), column))
    times[1] = bad
    session = with_times(session, side_name, **{column: tuple(times)})
    expected = outcome(oracle_session_to_record, session)
    if bad == 2.0**53 + 0.5:  # rounds to an integer-valued float: written as one
        assert isinstance(expected, dict)
    else:
        assert expected == (TraceError, f"bad: token time {bad} is not integer milliseconds")
    assert outcome(session_to_record, session) == expected


@pytest.mark.parametrize(
    "side_name, starts, ends, named",
    [
        ("source", (0.0, 300.5), (300.25, 600.0), 300.25),  # token 1's end before token 2's start
        ("source", (0.0, 300.5), (300.0, 600.5), 300.5),  # a token's start before its end
        ("target", (700.0, 900.5), (900.0, 1000.0), 900.5),
        ("target", (700.0, 900.0), (900.0, math.inf), math.inf),
    ],
)
def test_the_first_bad_time_is_named_token_by_token(side_name, starts, ends, named):
    session = with_times(integer_ms_session(), side_name, start=starts, end=ends)
    message = f"bad: token time {named} is not integer milliseconds"
    assert outcome(oracle_session_to_record, session) == (TraceError, message)
    assert outcome(session_to_record, session) == (TraceError, message)


@DIFF
@given(st.data(), st.sampled_from(["relative", "absolute"]))
def test_concat_matches_the_element_by_element_join(data, mode):
    timeline = data.draw(st.sampled_from(TIMELINES))
    number = NUMBERS[data.draw(st.sampled_from(["int", "float"]))]
    a = data.draw(sessions(timeline, number))
    b = data.draw(sessions(timeline, number))
    b = SessionTrace(b.id, a.modality, *[getattr(b, f) for f in (
        "timeline_kind", "source", "target", "reads", "reference", "spans")])
    expected = outcome(oracle_concat, a, b, mode)
    got = outcome(concat_sessions, a, b, mode)
    assert got == expected
    if isinstance(got, SessionTrace):  # and the times keep their types
        for side in ("source", "target"):
            for column in ("start", "end"):
                assert list(map(type, getattr(getattr(got, side), column))) == list(
                    map(type, getattr(getattr(expected, side), column))
                )


def test_relative_concat_shifts_by_the_latest_end_of_a_partly_timed_side():
    a = SessionTrace("a", SPEECH_TO_TEXT, STEPS, TokenSide(("x", "y"), (None, 100), (None, 250)),
                     TokenSide(("z",), (None,), (None,)), (2,))
    b = SessionTrace("b", SPEECH_TO_TEXT, STEPS, TokenSide(("w", "u"), (None, 5), (None, 9)),
                     TokenSide(("v",), (None,), (None,)), (1,))
    joined = concat_sessions(a, b)
    assert joined.source.start == (None, 100, None, 255)
    assert joined.source.end == (None, 250, None, 259)
    assert joined.reads == (2, 3)
    assert joined == oracle_concat(a, b, "relative")


def test_the_shared_table_stops_growing_at_its_bound(monkeypatch):
    monkeypatch.setattr(trace_io, "MAX_SHARED_TEXTS", 3)

    def record(i, texts):  # decoded, so that each text is a str of its own
        return json.loads(json.dumps({
            "id": f"s{i}", "modality": SPEECH_TO_TEXT, "timeline": STEPS,
            "source": [{"text": t} for t in texts], "target": [],
            "spans": [{"kind": "decode", "start": 0, "end": 1}],
        }))

    shared: dict = {}
    first = record_to_session(record(1, ["alpha", "beta"]), 1, shared)  # below the bound: kept
    assert set(shared) == {"alpha", "beta", "decode"}
    second = record_to_session(record(2, ["alpha", "gamma", "gamma"]), 2, shared)  # at it: looked up
    assert set(shared) == {"alpha", "beta", "decode"}
    assert second.source.text[0] is first.source.text[0]
    assert second.spans[0].kind is first.spans[0].kind
    assert second.source.text[1] == second.source.text[2] == "gamma"
    assert second.source.text[1] is not second.source.text[2]
    # entry by entry (an integer-valued float time) follows the same bound
    third = record(3, ["beta", "delta"])
    third["source"][0].update(start=0.0, end=1)
    third = record_to_session(third, 3, shared)
    assert third.source.text[0] is first.source.text[1] and "delta" not in shared


def distinct_texts_file(path, sides) -> None:
    """A steps trace file with one session for each list of source texts."""
    path.write_text("".join(json.dumps({
        "id": f"s{i}", "modality": SPEECH_TO_TEXT, "timeline": STEPS,
        "source": [{"text": t} for t in texts], "target": [],
    }) + "\n" for i, texts in enumerate(sides)), encoding="utf-8")


def read_shared(path, shared: dict) -> list[SessionTrace]:
    return list(trace_io._iter_records(
        str(path), lambda record, lineno: record_to_session(record, lineno, shared)
    ))


def test_the_bound_keeps_the_table_small_when_no_word_repeats(tmp_path):
    bound = trace_io.MAX_SHARED_TEXTS
    texts = [f"w{i}" for i in range(bound + 6000)]
    path = tmp_path / "distinct.jsonl"
    # a side that starts below the bound keeps all of its texts, one past it none
    distinct_texts_file(path, [texts[:1000], texts[1000:bound + 5000], texts[bound + 5000:]])
    shared: dict = {}
    sessions_read = read_shared(path, shared)
    assert list(shared) == texts[:bound + 5000]
    assert list(chain(*(s.source.text for s in sessions_read))) == texts
    assert sessions_read == trace_io.read_sessions(str(path))


def test_a_side_longer_than_the_bound_shares_its_repeated_words(tmp_path):
    words_used = [f"w{i}" for i in range(400)]
    texts = [words_used[i % 400] for i in range(trace_io.MAX_SHARED_TEXTS + 1000)]
    path = tmp_path / "repeated.jsonl"
    distinct_texts_file(path, [texts])
    shared: dict = {}
    (session,) = read_shared(path, shared)
    assert list(shared) == words_used
    assert session.source.text == tuple(texts)
    assert all(t is shared[t] for t in session.source.text)
