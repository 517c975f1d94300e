import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulatency import (
    STEPS,
    TEXT_TO_TEXT,
    SPEECH_TO_SPEECH,
    ComputationSpan,
    SessionTrace,
    SubSegmentConfig,
    TimedToken,
    TokenGranularity,
    TraceError,
    chunk_ends_from_reads,
    concat_sessions,
    regroup_tokens,
    subsegment_session,
)
from simulatency.core import MAX_SUBTOKENS_PER_SIDE, TokenSide


def step_session(session_id, reads, src_len, modality=TEXT_TO_TEXT):
    return SessionTrace(
        id=session_id,
        modality=modality,
        timeline_kind=STEPS,
        source=tuple(TimedToken() for _ in range(src_len)),
        target=tuple(TimedToken() for _ in reads),
        reads=tuple(reads),
    )


def timed_session(session_id, src_times, tgt_times, reads, modality=SPEECH_TO_SPEECH, timeline="nca", spans=None):
    return SessionTrace(
        id=session_id,
        modality=modality,
        timeline_kind=timeline,
        source=tuple(
            TimedToken(start=s, end=e) for s, e in src_times
        ),
        target=tuple(
            TimedToken(start=s, end=e) for s, e in tgt_times
        ),
        reads=tuple(reads),
        spans=spans,
    )


# ---------------------------------------------------------------------------
# TimedToken / SessionTrace validation
# ---------------------------------------------------------------------------

def test_token_end_before_start_rejected():
    with pytest.raises(TraceError):
        TimedToken(start=500, end=400)


def test_token_times_must_come_together():
    with pytest.raises(TraceError):
        TimedToken(start=500)


@pytest.mark.parametrize("start, end", [(math.nan, math.nan), (0.0, math.nan), (math.nan, 5.0)])
def test_token_refuses_nan_times(start, end):
    with pytest.raises(TraceError) as info:
        TimedToken("x", start, end)
    assert str(info.value) == f"time is NaN: start {start}, end {end}"


@pytest.mark.parametrize("start, end", [(math.nan, 1.0), (0.0, math.nan)])
def test_span_refuses_nan_times(start, end):
    with pytest.raises(TraceError) as info:
        ComputationSpan("decode", start, end)
    assert str(info.value) == f"invalid computation span [{start}, {end})"


def test_session_rejects_non_monotone_reads():
    with pytest.raises(TraceError, match="monotone"):
        step_session("bad", [2, 1], 3)


def test_session_rejects_reads_out_of_range():
    with pytest.raises(TraceError):
        step_session("bad", [0, 1], 3)
    with pytest.raises(TraceError):
        step_session("bad", [1, 4], 3)


def test_session_rejects_reads_length_mismatch():
    with pytest.raises(TraceError, match="reads"):
        SessionTrace(
            id="bad",
            modality=TEXT_TO_TEXT,
            timeline_kind=STEPS,
            source=(TimedToken(),),
            target=(TimedToken(), TimedToken()),
            reads=(1,),
        )


def test_timed_session_requires_times():
    with pytest.raises(TraceError, match="lacks times"):
        SessionTrace(
            id="bad",
            modality=SPEECH_TO_SPEECH,
            timeline_kind="ca",
            source=(TimedToken(),),
            target=(),
            reads=(),
        )


def test_session_rejects_out_of_order_times():
    with pytest.raises(TraceError, match="out of order"):
        timed_session("bad", [(0, 1000), (500, 900)], [(1000, 1100)], [1])


def unit_step_source(*times):
    return SessionTrace(
        id="u", modality=TEXT_TO_TEXT, timeline_kind=STEPS,
        source=tuple(TimedToken(f"x{i}", *t) for i, t in enumerate(times, start=1)),
        target=(TimedToken("y1"),), reads=(1,),
    )


def test_unit_step_side_is_ordered_across_untimed_tokens():
    with pytest.raises(TraceError, match=r"^u: source tokens 1,3 out of order$"):
        unit_step_source((0, 900), (), (100, 200))
    with pytest.raises(TraceError, match=r"^u: source tokens 1,2 out of order$"):
        unit_step_source((0, 900), (100, 200))
    with pytest.raises(TraceError, match=r"^u: source tokens 3,4 out of order$"):
        unit_step_source((), (0, 900), (900, 950), (100, 200))
    assert unit_step_source((0, 100), (), (), (100, 200), ()).src_len == 5


@pytest.mark.parametrize("g", [1.5, 2.0, True])
def test_session_refuses_a_read_that_is_not_an_int(g):
    with pytest.raises(TraceError, match=rf"^s: g\(2\) = {g!r} is not an integer$"):
        step_session("s", (1, g), 3)


def full_session(**fields):
    """A valid speech-to-speech nca session with ``fields`` replaced."""
    base = dict(
        id="s", modality=SPEECH_TO_SPEECH, timeline_kind="nca",
        source=(TimedToken(start=0, end=100), TimedToken(start=100, end=200),
                TimedToken(start=200, end=300)),
        target=(TimedToken(start=300, end=400), TimedToken(start=400, end=500)),
        reads=(1, 3),
    )
    return SessionTrace(**{**base, **fields})


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"modality": "bogus"}, "s: unknown modality 'bogus'"),
        ({"timeline_kind": "bogus"}, "s: unknown timeline 'bogus'"),
        ({"reads": (1,)}, "s: 1 reads for 2 target tokens"),
        ({"source": ()}, "s: target tokens without source tokens"),
        ({"source": (TimedToken(start=0, end=100), TimedToken())},
         "s: source token 2 lacks times on a timed session"),
        ({"reads": (0, 1)}, "s: g(1) = 0 outside 1..3"),
        ({"reads": (1, 4)}, "s: g(2) = 4 outside 1..3"),
        ({"reads": (3, 2)}, "s: reads not monotone at position 2"),
        ({"reads": (1, 2.0)}, "s: g(2) = 2.0 is not an integer"),
        ({"target": (TimedToken(start=300, end=400), TimedToken(start=200, end=500))},
         "s: target tokens 1,2 out of order"),
        # a side given as columns gets the checks a TimedToken makes
        ({"target": TokenSide(("c",), (30.0,), (1.0,)), "reads": (3,)},
         "s: target token 1: end 1.0 precedes start 30.0"),
        ({"source": TokenSide(("a", "b", "c"), (-5.0, 100.0, 200.0), (100.0, 200.0, 300.0))},
         "s: source token 1: negative start time -5.0"),
        ({"target": TokenSide(("a", "b"), (300.0, 400.0), (400.0, None))},
         "s: target token 2: start and end must be set together"),
        ({"timeline_kind": STEPS,
          "source": TokenSide(("a", "b", "c"), (None,) * 3, (None, 5.0, None))},
         "s: source token 2: start and end must be set together"),
        # a text without times would count as a token no metric can time
        ({"source": TokenSide(("a", "b"), (0.0,), (100.0,)), "reads": (1, 2)},
         "s: source columns differ in length: text 2, start 1, end 1"),
        ({"target": TokenSide(("c",), (300.0, 400.0), (400.0, 500.0)), "reads": (3,)},
         "s: target columns differ in length: text 1, start 2, end 2"),
        ({"source": TokenSide(("a", "b", "c"), (0.0, math.nan, 200.0), (100.0, math.nan, 300.0))},
         "s: source token 2: time is NaN: start nan, end nan"),
    ],
)
def test_session_errors_name_the_session_once(fields, message):
    with pytest.raises(TraceError) as info:
        full_session(**fields)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"source": TokenSide(("a", "b", "c"), ("0", 100.0, 200.0), (100.0, 200.0, 300.0))},
         "s: source token 1: start must be a number, got '0'"),
        ({"target": TokenSide(("x", "y"), (300.0, 400.0), (400.0, "500"))},
         "s: target token 2: end must be a number, got '500'"),
        ({"timeline_kind": STEPS,
          "source": TokenSide(("a", "b", "c"), (None, "0", None), (None, "1", None))},
         "s: source token 2: start must be a number, got '0'"),
    ],
)
def test_session_names_a_time_that_is_no_number(fields, message):
    # as the reader names it, not as a TypeError from a comparison
    with pytest.raises(TraceError) as info:
        full_session(**fields)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"timeline_kind": STEPS,
          "source": TokenSide(("a", "b", "c"), (None, True, None), (None, True, None))},
         "s: source token 2: start must be a number, got True"),
        ({"source": TokenSide(("a", "b", "c"), (False, 200.0, 100.0), (100.0, 300.0, 300.0))},
         "s: source token 1: start must be a number, got False"),
    ],
)
def test_bool_column_times_are_refused_where_each_token_is_checked(fields, message):
    # a side that is checked token by token (on unit steps, or out of order) meets _check_times
    with pytest.raises(TraceError) as info:
        full_session(**fields)
    assert str(info.value) == message


def test_bool_column_times_pass_on_a_timed_side_in_order():
    # the column check of a timed side in order lets bools by; ROADMAP item 5 holds it
    session = full_session(source=TokenSide(("a", "b", "c"), (False, True, 200.0), (True, 200.0, 300.0)))
    assert session.source.start == (False, True, 200.0)


@pytest.mark.parametrize(
    "start, end, message",
    [("0", "1", "start must be a number, got '0'"), (0.0, b"1", "end must be a number, got b'1'"),
     # bool is an int to Python, but the reader refuses "start": true
     (True, True, "start must be a number, got True"), (0, True, "end must be a number, got True"),
     (False, 5.0, "start must be a number, got False"),
     # the type of each time before any range
     (-1.0, "5", "end must be a number, got '5'")],
)
def test_token_names_a_time_that_is_no_number(start, end, message):
    with pytest.raises(TraceError) as info:
        TimedToken("x", start, end)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "start, end, message",
    [(False, True, "span start must be a number, got False"),
     (0, True, "span end must be a number, got True"),
     ("a", "b", "span start must be a number, got 'a'"),
     (0.0, None, "span end must be a number, got None")],
)
def test_span_names_a_time_that_is_no_number_as_the_reader_does(start, end, message):
    with pytest.raises(TraceError) as info:
        ComputationSpan("x", start, end)
    assert str(info.value) == message


@pytest.mark.parametrize("session_id", [7, "", None, True, ("s",)])
def test_session_refuses_an_id_that_is_not_a_non_empty_string(session_id):
    # session_to_record would write it, and the reader refuse it
    with pytest.raises(TraceError) as info:
        full_session(id=session_id)
    assert str(info.value) == "id must be a non-empty string"


@pytest.mark.parametrize("reference", [5, b"x y", ["x", "y"], False])
def test_session_refuses_a_reference_that_is_not_a_string(reference):
    with pytest.raises(TraceError) as info:
        full_session(reference=reference)
    assert str(info.value) == "s: reference must be a string"


def per_token_fault(side_name, side, timed):
    """The first fault of one side as the per-token loops name it, or None:
    the reference for the column checks ``SessionTrace`` runs first."""
    text, starts, ends = side.text, side.start, side.end
    if not len(text) == len(starts) == len(ends):
        return (f"{side_name} columns differ in length: "
                f"text {len(text)}, start {len(starts)}, end {len(ends)}")
    if timed and None in starts:
        return f"{side_name} token {starts.index(None) + 1} lacks times on a timed session"
    for pos, (start, end) in enumerate(zip(starts, ends), start=1):
        if (start is None) != (end is None):
            return f"{side_name} token {pos}: start and end must be set together"
        if start is not None and start < 0:
            return f"{side_name} token {pos}: negative start time {start}"
        if start is not None and end < start:
            return f"{side_name} token {pos}: end {end} precedes start {start}"
        if start is not None and (math.isnan(start) or math.isnan(end)):
            return f"{side_name} token {pos}: time is NaN: start {start}, end {end}"
    timed_tokens = [(pos, s, e) for pos, (s, e) in enumerate(zip(starts, ends), 1) if s is not None]
    for (last, prev_start, prev_end), (pos, start, end) in zip(timed_tokens, timed_tokens[1:]):
        if start < prev_start or end < prev_end:
            return f"{side_name} tokens {last},{pos} out of order"
    return None


side_times = st.sampled_from([None, -1.0, math.nan, -0.0, 0.0, 1.0, 2, 2.0, 2.0, 5.0, math.inf])


@st.composite
def token_sides(draw):
    """Sides of up to 6 tokens: in order; each token valid but the side
    perhaps out of order; or with times drawn at random (None, negative,
    NaN, signed zeros, an int among floats, infinity, equal and decreasing
    ones); and now and then a column one entry
    longer or shorter than the others."""
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["ordered", "tokens valid", "random"]))
    if kind == "ordered":
        bounds = sorted(draw(st.lists(st.integers(0, 9), min_size=2 * n, max_size=2 * n)))
        starts, ends = [float(b) for b in bounds[::2]], [float(b) for b in bounds[1::2]]
    elif kind == "tokens valid":
        starts = [float(b) for b in draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))]
        durations = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        ends = [start + d for start, d in zip(starts, durations)]
    else:
        starts, ends = (draw(st.lists(side_times, min_size=n, max_size=n)) for _ in range(2))
    lengths = draw(st.sampled_from([(n, n, n)] * 8 + [(n + 1, n, n), (n, n + 1, n), (n, n, n + 1)]))
    starts += [1.0] * (lengths[1] - n)
    ends += [1.0] * (lengths[2] - n)
    return TokenSide(("w",) * lengths[0], tuple(starts), tuple(ends))


@settings(max_examples=400, deadline=None)
@given(token_sides(), st.sampled_from(["ca", "nca", STEPS]), st.booleans())
def test_side_checks_by_columns_equal_the_per_token_loop(side, timeline, as_target):
    # the side under test is the source, or the target of a one-token source
    other = TokenSide(("x",), (0.0,), (0.0,))
    source, target = (other, side) if as_target else (side, TokenSide())
    try:
        SessionTrace("v", SPEECH_TO_SPEECH, timeline, source, target, (1,) * len(target))
        got = None
    except TraceError as exc:
        got = str(exc)
    fault = per_token_fault("target" if as_target else "source", side, timeline != STEPS)
    assert got == (None if fault is None else f"v: {fault}")


# ---------------------------------------------------------------------------
# subsegment_session: the source chunks of a session
# ---------------------------------------------------------------------------

def split_source(segments, tau=300):
    """The source side of a session whose source chunks are ``segments``,
    once ``subsegment_session`` has split it."""
    return subsegment_session(timed_session("s", segments, [], []), SubSegmentConfig(tau=tau)).source


def test_subsegment_exact_multiple():
    tokens = split_source([(0, 900)])
    assert [t.end for t in tokens] == [300, 600, 900]
    assert [t.start for t in tokens] == [0, 300, 600]


def test_subsegment_remainder_forms_short_final_token():
    tokens = split_source([(0, 750)])
    assert [t.end for t in tokens] == [300, 600, 750]
    assert tokens[-1].end - tokens[-1].start == 150


def test_subsegment_silence_belongs_to_no_token():
    tokens = split_source([(0, 600), (1000, 1300)])
    assert [t.end for t in tokens] == [300, 600, 1300]
    assert tokens[2].start == 1000


@pytest.mark.parametrize("segments", [[(0, 900)], [(0, 750)], [(100, 450), (700, 1900)]])
def test_subsegment_durations_bounded_by_tau(segments):
    tau = 300
    tokens = split_source(segments, tau)
    chunk_finals = {min(i for i, t in enumerate(tokens, 1) if t.end == e) for _, e in segments}
    for token in tokens:
        assert token.end - token.start <= tau + 1e-9
        is_final = any(token.end == e for _, e in segments)
        if not is_final:
            assert token.end - token.start == pytest.approx(tau)
    assert len(chunk_finals) == len(segments)


def test_subsegment_last_piece_ends_at_chunk_end_within_tolerance():
    # 300 ms is one tau plus 1e-7 ms, inside the count's tolerance: one piece,
    # which must still end at the chunk's end
    tokens = split_source([(0, 300)], tau=299.9999999)
    assert [(t.start, t.end) for t in tokens] == [(0, 300.0)]


def test_subsegment_empty_input_rejected():
    with pytest.raises(TraceError, match="no input"):
        split_source([])


def test_subsegment_overlapping_chunks_rejected():
    with pytest.raises(TraceError, match="overlaps"):
        split_source([(0, 600), (500, 900)])


def test_non_positive_tau_rejected():
    with pytest.raises(ValueError):
        SubSegmentConfig(tau=0)
    with pytest.raises(ValueError):
        SubSegmentConfig(tau=-5)


def test_non_finite_tau_rejected():
    with pytest.raises(ValueError, match="tau must be finite, got inf"):
        SubSegmentConfig(tau=math.inf)


@pytest.mark.parametrize(
    "segment, tau",
    [((0, 1_000_000), 1e-303), ((0, 300), 1e-6), ((0, 10**300), 300.0)],
    ids=["tau underflows the count", "tiny tau", "chunk of 10**300 ms"],
)
def test_chunk_of_too_many_subtokens_rejected(segment, tau):
    with pytest.raises(TraceError, match=f"more than {MAX_SUBTOKENS_PER_SIDE} sub-tokens"):
        split_source([segment], tau)


def test_chunk_at_the_subtoken_bound_is_split():
    tokens = split_source([(0, MAX_SUBTOKENS_PER_SIDE)], tau=1)
    assert len(tokens) == MAX_SUBTOKENS_PER_SIDE


# ---------------------------------------------------------------------------
# regroup_tokens
# ---------------------------------------------------------------------------

def chars(n, reads):
    tokens = tuple(TimedToken(text=chr(ord("a") + i)) for i in range(n))
    return tokens, tuple(reads)


def test_regroup_even_chunk():
    tokens, reads = chars(4, [1, 1, 1, 1])
    grouped, g = regroup_tokens(tokens, reads, TokenGranularity("character-group", 2), (4,))
    assert len(grouped) == 2
    assert [t.text for t in grouped] == ["ab", "cd"]
    assert g == (1, 1)


def test_regroup_odd_chunk_keeps_remainder_token():
    tokens, reads = chars(5, [1, 1, 1, 1, 1])
    grouped, g = regroup_tokens(tokens, reads, TokenGranularity("character-group", 2), (5,))
    assert [t.text for t in grouped] == ["ab", "cd", "e"]


def test_regroup_respects_chunk_boundaries():
    tokens, reads = chars(5, [1, 1, 1, 2, 2])
    grouped, g = regroup_tokens(tokens, reads, TokenGranularity("character-group", 2), (3, 5))
    assert [t.text for t in grouped] == ["ab", "c", "de"]
    assert g == (1, 1, 2)


def test_regroup_group_carries_g_of_last_character():
    tokens, _ = chars(4, [])
    grouped, g = regroup_tokens(
        tokens, (1, 2, 2, 3), TokenGranularity("character-group", 2), (4,)
    )
    assert g == (2, 3)


def test_regroup_size_one_is_identity():
    tokens, reads = chars(5, [1, 1, 2, 2, 3])
    grouped, g = regroup_tokens(
        tokens, reads, TokenGranularity("character-group", 1), (2, 5)
    )
    assert [t.text for t in grouped] == [t.text for t in tokens]
    assert g == reads


def test_regroup_word_granularity_is_identity():
    tokens, reads = chars(3, [1, 2, 3])
    grouped, g = regroup_tokens(tokens, reads, TokenGranularity(), (3,))
    assert grouped == tokens
    assert g == reads


def test_regroup_bad_boundaries_rejected():
    tokens, reads = chars(4, [1, 1, 1, 1])
    gran = TokenGranularity("character-group", 2)
    with pytest.raises(TraceError):
        regroup_tokens(tokens, reads, gran, (5,))
    with pytest.raises(TraceError):
        regroup_tokens(tokens, reads, gran, (2,))
    with pytest.raises(TraceError, match=r"^chunk boundary 0 out of range$"):
        regroup_tokens(tokens, reads, gran, (0, 4))
    with pytest.raises(TraceError, match="^3 reads for 4 tokens$"):
        regroup_tokens(tokens, reads[:3], gran, (4,))


def test_granularity_from_spec():
    assert TokenGranularity.from_spec("word") == TokenGranularity("word", 1)
    assert TokenGranularity.from_spec("char:2") == TokenGranularity("character-group", 2)
    with pytest.raises(ValueError):
        TokenGranularity.from_spec("char:x")
    with pytest.raises(ValueError):
        TokenGranularity.from_spec("bytes")
    with pytest.raises(ValueError, match="^unknown granularity unit 'syllable'$"):
        TokenGranularity("syllable")


def test_chunk_ends_from_reads():
    assert chunk_ends_from_reads((3, 3, 3, 10, 10)) == (3, 5)
    assert chunk_ends_from_reads((1, 2, 3)) == (1, 2, 3)
    assert chunk_ends_from_reads(()) == ()


# ---------------------------------------------------------------------------
# concat_sessions
# ---------------------------------------------------------------------------

def test_concat_with_empty_is_identity():
    s = step_session("s", [1, 2], 2)
    empty = SessionTrace(
        id="empty", modality=TEXT_TO_TEXT, timeline_kind=STEPS, source=(), target=(), reads=()
    )
    joined = concat_sessions(s, empty)
    assert joined.reads == s.reads
    assert [t.text for t in joined.source] == [t.text for t in s.source]
    assert joined.tgt_len == s.tgt_len


def test_concat_offsets_reads_by_first_source_length():
    a = step_session("a", [1], 1)
    b = step_session("b", [1], 1)
    joined = concat_sessions(a, b)
    assert joined.reads == (1, 2)
    assert joined.src_len == 2 and joined.tgt_len == 2
    assert joined.source == tuple(a.source) + tuple(b.source)


def test_concat_relative_shifts_by_last_event():
    a = timed_session("a", [(0, 1500)], [(1500, 2000)], [1])
    b = timed_session("b", [(0, 500)], [(500, 800)], [1])
    joined = concat_sessions(a, b, mode="relative")
    assert joined.source[1].start == 2000 and joined.source[1].end == 2500
    assert joined.target[1].start == 2500 and joined.target[1].end == 2800
    assert joined.reads == (1, 2)


def test_concat_relative_shifts_unit_step_times_past_the_latest_end():
    # a unit-step session's tokens need not all carry times, so a's last end
    # (200, on the target) need not be its latest (900, on the source)
    a = SessionTrace(
        id="a", modality=TEXT_TO_TEXT, timeline_kind=STEPS,
        source=(TimedToken("x1", 0, 900), TimedToken("x2")),
        target=(TimedToken("y1", 100, 200),), reads=(2,),
    )
    b = replace(
        a, id="b", source=(TimedToken("z1", 0, 50),), target=(TimedToken("w1", 5, 10),), reads=(1,)
    )
    joined = concat_sessions(a, b)
    assert joined.source[-1] == TimedToken("z1", 900, 950)
    assert joined.target[-1] == TimedToken("w1", 905, 910)
    untimed = replace(a, source=(TimedToken("x1"),), target=(TimedToken("y1"),), reads=(1,))
    assert concat_sessions(untimed, b).source[-1] == TimedToken("z1", 0, 50)


def test_concat_absolute_keeps_timestamps():
    a = timed_session("a", [(0, 1000)], [(1000, 1500)], [1])
    b = timed_session("b", [(3000, 4000)], [(4000, 4500)], [1])
    joined = concat_sessions(a, b, mode="absolute")
    assert joined.source[1].start == 3000
    assert joined.target[1].end == 4500


def test_concat_preserves_monotone_reads_and_order():
    a = timed_session("a", [(0, 1000), (1000, 2000)], [(2000, 2500), (2500, 3000)], [2, 2])
    b = timed_session("b", [(0, 700)], [(700, 1000)], [1])
    joined = concat_sessions(a, b)
    assert list(joined.reads) == sorted(joined.reads)
    ends = [t.end for t in joined.target]
    assert ends == sorted(ends)


def test_concat_modality_mismatch_rejected():
    a = step_session("a", [1], 1, modality=SPEECH_TO_SPEECH)
    b = step_session("b", [1], 1, modality=TEXT_TO_TEXT)
    with pytest.raises(TraceError, match="modality"):
        concat_sessions(a, b)
    with pytest.raises(ValueError, match="^unknown concat mode 'sideways'$"):
        concat_sessions(a, a, mode="sideways")


def test_concat_joins_references():
    a = replace(step_session("a", [1], 1), reference="guten tag")
    b = replace(step_session("b", [1], 1), reference="welt")
    assert concat_sessions(a, b).reference == "guten tag welt"


# ---------------------------------------------------------------------------
# subsegment_session
# ---------------------------------------------------------------------------

def test_subsegment_session_remaps_reads_to_subtokens():
    # two source chunks of 600 and 900 ms; one output chunk after each read
    s = timed_session(
        "s",
        [(0, 600), (600, 1500)],
        [(600, 1200), (1500, 1800)],
        [1, 2],
    )
    fine = subsegment_session(s, SubSegmentConfig(tau=300))
    assert fine.src_len == 5  # 2 + 3 sub-tokens
    # first output chunk read 1 chunk = 2 sub-tokens; second read all 5
    assert fine.reads == (2, 2, 5)
    assert fine.tgt_len == 3  # 600 -> 2 pieces, 300 -> 1 piece


def test_subsegment_session_is_idempotent():
    s = timed_session(
        "s",
        [(0, 600), (600, 1500)],
        [(600, 1200), (1500, 1800)],
        [1, 2],
    )
    once = subsegment_session(s, SubSegmentConfig(tau=300))
    twice = subsegment_session(once, SubSegmentConfig(tau=300))
    assert twice.reads == once.reads
    assert [(t.start, t.end) for t in twice.target] == [
        (t.start, t.end) for t in once.target
    ]


def test_subsegment_session_names_input_targets_whose_pieces_leave_order():
    # each chunk splits in order, but chunk 2's first piece starts before
    # chunk 1's last one; chunks that overlap less still split in order
    overlapping = timed_session("ov", [(0, 1000)], [(1000, 3000), (1000, 3000)], [1, 1])
    with pytest.raises(TraceError, match=r"^target tokens 1,2 out of order"):
        subsegment_session(overlapping, SubSegmentConfig(tau=1000))
    in_order = timed_session("ok", [(0, 1000)], [(1000, 1250), (1200, 1900)], [1, 1])
    assert subsegment_session(in_order, SubSegmentConfig(tau=300)).tgt_len == 4


def test_subsegment_session_speech_to_text_keeps_target():
    # text target: emission timestamps, zero duration; only the source splits
    s = SessionTrace(
        id="s2t",
        modality="speech-to-text",
        timeline_kind="nca",
        source=(TimedToken(start=0, end=600), TimedToken(start=600, end=1500)),
        target=(TimedToken(text="a", start=700, end=700),
                TimedToken(text="b", start=1600, end=1600)),
        reads=(1, 2),
    )
    fine = subsegment_session(s, SubSegmentConfig(tau=300))
    assert fine.src_len == 5
    assert fine.reads == (2, 5)
    assert [t.text for t in fine.target] == ["a", "b"]
    assert [(t.start, t.end) for t in fine.target] == [(700, 700), (1600, 1600)]


def test_subsegment_session_rejects_unit_step():
    with pytest.raises(TraceError):
        subsegment_session(step_session("s", [1], 1), SubSegmentConfig(tau=300))
