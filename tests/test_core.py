import math
from dataclasses import replace

import pytest

from simulatency import (
    STEPS,
    TEXT_TO_TEXT,
    SPEECH_TO_SPEECH,
    SessionTrace,
    SubSegmentConfig,
    TimedToken,
    TokenGranularity,
    TraceError,
    chunk_ends_from_reads,
    concat_sessions,
    regroup_tokens,
    subsegment_session,
    subsegment_speech,
)
from simulatency.core import MAX_SUBTOKENS_PER_SIDE


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


# ---------------------------------------------------------------------------
# subsegment_speech
# ---------------------------------------------------------------------------

def test_subsegment_exact_multiple():
    tokens = subsegment_speech([(0, 900)], SubSegmentConfig(tau=300))
    assert [t.end for t in tokens] == [300, 600, 900]
    assert [t.start for t in tokens] == [0, 300, 600]


def test_subsegment_remainder_forms_short_final_token():
    tokens = subsegment_speech([(0, 750)], SubSegmentConfig(tau=300))
    assert [t.end for t in tokens] == [300, 600, 750]
    assert tokens[-1].duration == 150


def test_subsegment_silence_belongs_to_no_token():
    tokens = subsegment_speech([(0, 600), (1000, 1300)], SubSegmentConfig(tau=300))
    assert [t.end for t in tokens] == [300, 600, 1300]
    assert tokens[2].start == 1000


@pytest.mark.parametrize("segments", [[(0, 900)], [(0, 750)], [(100, 450), (700, 1900)]])
def test_subsegment_durations_bounded_by_tau(segments):
    cfg = SubSegmentConfig(tau=300)
    tokens = subsegment_speech(segments, cfg)
    chunk_finals = {min(i for i, t in enumerate(tokens, 1) if t.end == e) for _, e in segments}
    for token in tokens:
        assert token.duration <= cfg.tau + 1e-9
        is_final = any(token.end == e for _, e in segments)
        if not is_final:
            assert token.duration == pytest.approx(cfg.tau)
    assert len(chunk_finals) == len(segments)


def test_subsegment_last_piece_ends_at_chunk_end_within_tolerance():
    # 300 ms is one tau plus 1e-7 ms, inside the count's tolerance: one piece,
    # which must still end at the chunk's end
    tokens = subsegment_speech([(0, 300)], SubSegmentConfig(tau=299.9999999))
    assert [(t.start, t.end) for t in tokens] == [(0, 300.0)]


def test_subsegment_empty_input_rejected():
    with pytest.raises(TraceError, match="no input"):
        subsegment_speech([], SubSegmentConfig(tau=300))


def test_subsegment_overlapping_chunks_rejected():
    with pytest.raises(TraceError, match="overlaps"):
        subsegment_speech([(0, 600), (500, 900)], SubSegmentConfig(tau=300))


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
        subsegment_speech([segment], SubSegmentConfig(tau=tau))


def test_chunk_at_the_subtoken_bound_is_split():
    tokens = subsegment_speech([(0, MAX_SUBTOKENS_PER_SIDE)], SubSegmentConfig(tau=1))
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


def test_granularity_from_spec():
    assert TokenGranularity.from_spec("word") == TokenGranularity("word", 1)
    assert TokenGranularity.from_spec("char:2") == TokenGranularity("character-group", 2)
    with pytest.raises(ValueError):
        TokenGranularity.from_spec("char:x")
    with pytest.raises(ValueError):
        TokenGranularity.from_spec("bytes")


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
    assert joined.source == a.source + b.source


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
    with pytest.raises(TraceError, match=r"^ov: target tokens 1,2 out of order"):
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
