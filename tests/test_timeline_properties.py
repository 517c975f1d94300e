"""Property tests for tau sub-segmentation and nca re-scheduling.

The oracles below are literal transcriptions of the per-token algorithms
these functions used to run: one ``subsegment_speech`` call per target token
and one ``dataclasses.replace`` per piece, with two rules added since: a
chunk's last piece ends exactly at the chunk's end, and speech-to-speech
target chunks whose pieces would come out of order are rejected by their
input positions.  The arithmetic versions must agree with them token for
token, error message for error message.
"""

import math
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from simulatency import (
    CA,
    NCA,
    SPEECH_TO_SPEECH,
    SPEECH_TO_TEXT,
    SessionTrace,
    SubSegmentConfig,
    TimedToken,
    TraceError,
    build_nca_timeline,
    subsegment_session,
    subsegment_speech,
)

PROPERTY = settings(max_examples=150, deadline=None)


# ---------------------------------------------------------------------------
# reference oracles
# ---------------------------------------------------------------------------

def oracle_subsegment_speech(segments, cfg):
    if not segments:
        raise TraceError("no input: empty segment list")
    tokens = []
    prev_end = None
    for seg_start, seg_end in segments:
        if seg_end <= seg_start:
            raise TraceError(f"segment [{seg_start}, {seg_end}) has no duration")
        if prev_end is not None and seg_start < prev_end:
            raise TraceError(f"segment starting at {seg_start} overlaps previous chunk")
        prev_end = seg_end
        count = max(1, math.ceil((seg_end - seg_start) / cfg.tau - 1e-9))
        for i in range(count):
            start = seg_start + i * cfg.tau
            end = seg_end if i == count - 1 else seg_start + (i + 1) * cfg.tau
            tokens.append(TimedToken(index=len(tokens) + 1, start=start, end=end))
    return tuple(tokens)


def oracle_subsegment_session(s, cfg):
    if not s.is_timed:
        raise TraceError(f"{s.id}: unit-step session has no speech timeline")
    if not s.source:
        raise TraceError(f"{s.id}: no input")

    src_tokens = oracle_subsegment_speech([(t.start, t.end) for t in s.source], cfg)
    counts = []
    total = 0
    for token in s.source:
        n = max(1, math.ceil((token.end - token.start) / cfg.tau - 1e-9))
        total += n
        counts.append(total)
    remapped = [counts[g - 1] for g in s.reads]

    if s.modality == SPEECH_TO_SPEECH:
        tgt_tokens = []
        tgt_reads = []
        for t, (token, g) in enumerate(zip(s.target, remapped), start=1):
            pieces = oracle_subsegment_speech([(token.start, token.end)], cfg)
            if tgt_tokens and (
                pieces[0].start < tgt_tokens[-1].start or pieces[0].end < tgt_tokens[-1].end
            ):
                raise TraceError(
                    f"{s.id}: target tokens {t - 1},{t} out of order once split into sub-segments"
                )
            text = token.text if len(pieces) == 1 else None
            for piece in pieces:
                tgt_tokens.append(replace(piece, index=len(tgt_tokens) + 1, text=text))
                tgt_reads.append(g)
        target = tuple(tgt_tokens)
        reads = tuple(tgt_reads)
    else:
        target = s.target
        reads = tuple(remapped)

    return replace(s, source=src_tokens, target=target, reads=reads)


def oracle_build_nca_timeline(s):
    new_target = []
    prev_end = 0.0
    for t, token in enumerate(s.target, start=1):
        trigger = s.source[s.reads[t - 1] - 1].end
        start = max(trigger, prev_end)
        end = start + token.duration
        new_target.append(replace(token, start=start, end=end))
        prev_end = end
    return replace(s, timeline_kind=NCA, target=tuple(new_target), spans=None)


def outcome(fn, *args):
    """The result of ``fn``, or the message of the TraceError it raised."""
    try:
        return fn(*args)
    except TraceError as exc:
        return f"TraceError: {exc}"


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

def monotone_times(draw, n, min_duration):
    """n (start, end) integer pairs with non-decreasing starts and ends; they
    may overlap, and may be empty if ``min_duration`` is 0."""
    steps = draw(st.lists(st.integers(0, 700), min_size=n, max_size=n))
    durations = draw(st.lists(st.integers(min_duration, 1500), min_size=n, max_size=n))
    times = []
    start = end = 0
    for step, duration in zip(steps, durations):
        start += step
        end = max(end, start + duration)
        times.append((start, end))
    return times


def chunk_times(draw, n):
    """n non-empty (start, end) integer pairs, each starting after the last ends."""
    gaps = draw(st.lists(st.integers(0, 400), min_size=n, max_size=n))
    durations = draw(st.lists(st.integers(1, 1500), min_size=n, max_size=n))
    times = []
    end = 0
    for gap, duration in zip(gaps, durations):
        start = end + gap
        end = start + duration
        times.append((start, end))
    return times


@st.composite
def speech_sessions(draw, valid=True):
    """Timed ca speech sessions.  ``valid`` keeps every speech chunk apart and
    non-empty; otherwise chunks may overlap or have no duration."""
    modality = draw(st.sampled_from([SPEECH_TO_SPEECH, SPEECH_TO_TEXT]))
    n_src = draw(st.integers(min_value=1, max_value=8))
    n_tgt = draw(st.integers(min_value=0, max_value=8))
    if not valid:
        src_times = monotone_times(draw, n_src, 0)
        tgt_times = monotone_times(draw, n_tgt, 0)
    elif modality == SPEECH_TO_SPEECH:
        src_times = chunk_times(draw, n_src)
        tgt_times = chunk_times(draw, n_tgt)
    else:
        src_times = chunk_times(draw, n_src)
        tgt_times = monotone_times(draw, n_tgt, 0)
    reads = sorted(draw(st.lists(st.integers(1, n_src), min_size=n_tgt, max_size=n_tgt)))
    texts = draw(st.lists(st.sampled_from([None, "a", "bc"]), min_size=n_tgt, max_size=n_tgt))
    return SessionTrace(
        id="p",
        modality=modality,
        timeline_kind=CA,
        source=tuple(
            TimedToken(i, f"x{i}", float(s), float(e)) for i, (s, e) in enumerate(src_times, 1)
        ),
        target=tuple(
            TimedToken(i, text, float(s), float(e))
            for i, ((s, e), text) in enumerate(zip(tgt_times, texts), 1)
        ),
        reads=tuple(reads),
        spans=(),
    )


# Half-millisecond tau values keep every bound exact in binary floating point,
# so that coverage and idempotence can be asserted with ==.
exact_taus = st.integers(min_value=2, max_value=2000).map(lambda n: n / 2)
any_taus = st.floats(min_value=0.5, max_value=2000, allow_nan=False)
any_sessions = st.one_of(speech_sessions(), speech_sessions(valid=False))


# ---------------------------------------------------------------------------
# sub-segmentation
# ---------------------------------------------------------------------------

@PROPERTY
@given(any_sessions, any_taus)
def test_subsegment_session_equals_oracle(session, tau):
    cfg = SubSegmentConfig(tau=tau)
    assert outcome(subsegment_session, session, cfg) == outcome(
        oracle_subsegment_session, session, cfg
    )


@PROPERTY
@given(
    st.lists(st.tuples(st.integers(0, 3000), st.integers(0, 3000)), max_size=6),
    any_taus,
)
def test_subsegment_speech_equals_oracle(segments, tau):
    cfg = SubSegmentConfig(tau=tau)
    assert outcome(subsegment_speech, segments, cfg) == outcome(
        oracle_subsegment_speech, segments, cfg
    )


@PROPERTY
@given(speech_sessions(), exact_taus)
def test_subtokens_last_at_most_tau_and_cover_each_chunk(session, tau):
    fine = subsegment_session(session, SubSegmentConfig(tau=tau))
    sides = [(session.source, fine.source)]
    if session.modality == SPEECH_TO_SPEECH:
        sides.append((session.target, fine.target))
    for chunks, pieces in sides:
        assert [p.index for p in pieces] == list(range(1, len(pieces) + 1))
        assert all(0 < p.end - p.start <= tau for p in pieces)
        pos = 0
        for chunk in chunks:
            n = max(1, math.ceil(chunk.duration / tau - 1e-9))
            run = pieces[pos : pos + n]
            assert run[0].start == chunk.start and run[-1].end == chunk.end
            assert all(a.end == b.start for a, b in zip(run, run[1:]))
            pos += n
        assert pos == len(pieces)


ONE_CHUNK = SessionTrace(
    "one", SPEECH_TO_SPEECH, CA, (TimedToken(1, None, 0.0, 300.0),), (), ()
)


@PROPERTY
@given(speech_sessions(), any_taus)
@example(ONE_CHUNK, 299.9999999)  # one tau plus less than the count's tolerance
def test_each_chunk_is_covered_from_its_start_to_its_end(session, tau):
    fine = subsegment_session(session, SubSegmentConfig(tau=tau))
    sides = [(session.source, fine.source)]
    if session.modality == SPEECH_TO_SPEECH:
        sides.append((session.target, fine.target))
    for chunks, pieces in sides:
        for chunk in chunks:
            run = [p for p in pieces if chunk.start <= p.start < chunk.end]
            assert run[0].start == chunk.start and run[-1].end == chunk.end
            assert all(a.end == b.start for a, b in zip(run, run[1:]))


@PROPERTY
@given(speech_sessions(), exact_taus)
def test_subsegment_session_is_idempotent(session, tau):
    cfg = SubSegmentConfig(tau=tau)
    fine = subsegment_session(session, cfg)
    assert subsegment_session(fine, cfg) == fine


@PROPERTY
@given(speech_sessions(), any_taus)
def test_reads_are_remapped_to_cumulative_subtoken_counts(session, tau):
    fine = subsegment_session(session, SubSegmentConfig(tau=tau))
    cumulative = []
    for chunk in session.source:
        n = sum(1 for p in fine.source if chunk.start <= p.start < chunk.end)
        cumulative.append((cumulative[-1] if cumulative else 0) + n)
    assert cumulative[-1] == len(fine.source)
    expected = []
    for token, g in zip(session.target, session.reads):
        pieces = 1
        if session.modality == SPEECH_TO_SPEECH:
            pieces = max(1, math.ceil(token.duration / tau - 1e-9))
        expected.extend([cumulative[g - 1]] * pieces)
    assert list(fine.reads) == expected


# ---------------------------------------------------------------------------
# nca re-scheduling
# ---------------------------------------------------------------------------

@PROPERTY
@given(any_sessions.filter(lambda s: s.target))
def test_build_nca_timeline_equals_oracle(session):
    assert build_nca_timeline(session) == oracle_build_nca_timeline(session)


@PROPERTY
@given(any_sessions.filter(lambda s: s.target))
def test_nca_output_follows_its_trigger_keeps_durations_and_is_serialized(session):
    nca = build_nca_timeline(session)
    assert nca.timeline_kind == NCA and nca.spans is None
    assert nca.source == session.source and nca.reads == session.reads
    prev_end = 0.0
    for before, after, g in zip(session.target, nca.target, nca.reads):
        assert (after.index, after.text) == (before.index, before.text)
        assert after.start >= session.source[g - 1].end
        assert after.start >= prev_end
        assert after.duration == before.duration
        prev_end = after.end
