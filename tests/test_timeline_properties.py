"""Property tests for tau sub-segmentation and nca re-scheduling.

The oracles below are literal transcriptions of the per-token algorithms
these functions used to run: one chunk-list split per target token and one
``dataclasses.replace`` per piece, with two rules added since: a
chunk's last piece ends exactly at the chunk's end, and speech-to-speech
target chunks whose pieces would come out of order are rejected by their
input positions.  The arithmetic versions must agree with them token for
token, error message for error message.
"""

import math
from dataclasses import replace
from itertools import islice

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
)
from simulatency.core import _split_chunks

PROPERTY = settings(max_examples=150, deadline=None)


# ---------------------------------------------------------------------------
# reference oracles
# ---------------------------------------------------------------------------

def oracle_split_chunks(segments, cfg):
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
            start = seg_start if count == 1 else seg_start + i * cfg.tau  # unsplit: as given
            end = seg_end if i == count - 1 else seg_start + (i + 1) * cfg.tau
            tokens.append(TimedToken(start=start, end=end))
    return tuple(tokens)


def oracle_split_target(segments, cfg):
    """Speech-to-speech target chunks, split one at a time.  Chunks may
    overlap, but a chunk whose first piece comes before the last piece so
    far is refused by its input position."""
    tokens = []
    for t, segment in enumerate(segments, start=1):
        pieces = oracle_split_chunks([segment], cfg)
        if tokens and (pieces[0].start < tokens[-1].start or pieces[0].end < tokens[-1].end):
            raise TraceError(f"target tokens {t - 1},{t} out of order once split into sub-segments")
        tokens.extend(pieces)
    return tuple(tokens)


def oracle_subsegment_session(s, cfg):
    if not s.is_timed:
        raise TraceError("unit-step session has no speech timeline")
    if not s.source:
        raise TraceError("no input")

    src_tokens = oracle_split_chunks([(t.start, t.end) for t in s.source], cfg)
    counts = []
    total = 0
    for token in s.source:
        n = max(1, math.ceil((token.end - token.start) / cfg.tau - 1e-9))
        total += n
        counts.append(total)
    remapped = [counts[g - 1] for g in s.reads]

    if s.modality == SPEECH_TO_SPEECH:
        pieces = iter(oracle_split_target([(t.start, t.end) for t in s.target], cfg))
        tgt_tokens = []
        tgt_reads = []
        for token, g in zip(s.target, remapped):
            n = len(oracle_split_chunks([(token.start, token.end)], cfg))
            text = token.text if n == 1 else None
            for piece in islice(pieces, n):
                tgt_tokens.append(replace(piece, text=text))
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
        end = start + (token.end - token.start)
        new_target.append(replace(token, start=start, end=end))
        prev_end = end
    return replace(s, timeline_kind=NCA, target=tuple(new_target), spans=None)


def outcome(fn, *args):
    """The result of ``fn``, or the message of the TraceError it raised."""
    try:
        return fn(*args)
    except TraceError as exc:
        return f"TraceError: {exc}"


def exact(result):
    """A session compared bit for bit: each time as its type and ``float.hex``,
    so that 300 differs from 300.0 and -0.0 from 0.0; anything else as it is."""
    if not isinstance(result, SessionTrace):
        return result

    def time(t):
        return t if t is None else (type(t), float(t).hex())

    def side(tokens):
        return [(token.text, time(token.start), time(token.end)) for token in tokens]

    return {**vars(result), "source": side(result.source), "target": side(result.target)}


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
    non-empty; otherwise chunks may overlap, have no duration or be absent."""
    modality = draw(st.sampled_from([SPEECH_TO_SPEECH, SPEECH_TO_TEXT]))
    n_src = draw(st.integers(min_value=1 if valid else 0, max_value=8))
    n_tgt = draw(st.integers(min_value=0, max_value=8 if n_src else 0))
    if not valid:
        src_times = monotone_times(draw, n_src, 0)
        tgt_times = monotone_times(draw, n_tgt, 0)
    elif modality == SPEECH_TO_SPEECH:
        src_times = chunk_times(draw, n_src)
        tgt_times = chunk_times(draw, n_tgt)
    else:
        src_times = chunk_times(draw, n_src)
        tgt_times = monotone_times(draw, n_tgt, 0)
    reads = sorted(draw(st.lists(st.integers(1, max(n_src, 1)), min_size=n_tgt, max_size=n_tgt)))
    texts = draw(st.lists(st.sampled_from([None, "a", "bc"]), min_size=n_tgt, max_size=n_tgt))
    return SessionTrace(
        id="p",
        modality=modality,
        timeline_kind=CA,
        source=tuple(
            TimedToken(f"x{i}", float(s), float(e)) for i, (s, e) in enumerate(src_times, 1)
        ),
        target=tuple(
            TimedToken(text, float(s), float(e)) for (s, e), text in zip(tgt_times, texts)
        ),
        reads=tuple(reads),
        spans=(),
    )


# times as a record or a library call may give them: an int, and -0.0
GIVEN = SessionTrace(
    "given", SPEECH_TO_SPEECH, CA, (TimedToken("x", -0.0, 300.0), TimedToken("y", 300, 600)),
    (TimedToken("z", 600, 900), TimedToken(None, 900, 1000)), (1, 2), spans=(),
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
@example(SessionTrace("none", SPEECH_TO_TEXT, CA, (), (), ()), 300.0)  # no chunk to split
@example(  # target chunk 2 leaves order before chunk 3, which has no duration, is reached
    SessionTrace(
        "order", SPEECH_TO_SPEECH, CA, (TimedToken("x", 0.0, 1.0),),
        tuple(TimedToken("y", float(s), float(e)) for s, e in ((0, 2), (0, 2), (2, 2))), (1, 1, 1),
    ),
    1.0,
)
@example(GIVEN, 300.0)
def test_subsegment_session_equals_oracle(session, tau):
    cfg = SubSegmentConfig(tau=tau)
    assert exact(outcome(subsegment_session, session, cfg)) == exact(
        outcome(oracle_subsegment_session, session, cfg)
    )


@PROPERTY
@given(
    st.lists(st.tuples(st.integers(0, 3000), st.integers(0, 3000)), max_size=6),
    any_taus,
)
@example([(0, 21), (21, 42)], 0.7)  # 21 / 0.7 is 30.000000000000004: 30 pieces, not 31
@example([(0, 900)], 299.99999999)  # 3 pieces, the last 300.00000002 ms long
@example([(0, 2_000_000_001)], 2e9)  # outlasts tau by 5e-10 tau: one piece
@example([(0, 900)], 299.99995)  # outlasts 3 tau by 5e-7 tau: a fourth, 0.00015 ms piece
@example([(0, 700), (500, 750)], 300.0)  # a target chunk starts before the last piece [600, 700)
@example(  # a target chunk starts at the last piece but its first piece ends before it does
    [(0, 900), (2 * 299.99999999, 1500)], 299.99999999
)
def test_subsegment_speech_equals_oracle(segments, tau):
    # the chunk-list split that subsegment_session runs over each side, on any
    # list of (start, end) pairs: reversed, empty and overlapping ones too;
    # times compare by their exact binary values, not by ==
    cfg = SubSegmentConfig(tau=tau)

    def times(column):
        return [(type(t), float(t).hex()) for t in column]

    def split(segments, cfg, target):
        starts, ends, counts = _split_chunks(
            [s for s, _ in segments], [e for _, e in segments], cfg.tau, target=target
        )
        return times(starts), times(ends), counts

    def oracle(segments, cfg, target):
        pieces = (oracle_split_target if target else oracle_split_chunks)(segments, cfg)
        counts = [len(oracle_split_chunks([segment], cfg)) for segment in segments]
        return times(p.start for p in pieces), times(p.end for p in pieces), counts

    for target in (False, True):
        assert outcome(split, segments, cfg, target) == outcome(oracle, segments, cfg, target)


def test_split_keeps_an_unsplit_chunks_times_as_given():
    # an unsplit chunk keeps its start and end values, int or -0.0; a split
    # chunk's pieces start at start + i*tau, so at a float tau they are floats
    starts, ends, counts = _split_chunks([-0.0, 300, 700], [100, 600, 1300], 300.0)
    assert counts == [1, 1, 2]
    assert [type(t) for t in starts] == [float, int, float, float]
    assert [type(t) for t in ends] == [int, int, float, int]
    assert [float(t).hex() for t in starts] == [
        float(t).hex() for t in (-0.0, 300, 700, 1000)
    ]
    assert ends == [100, 600, 1000.0, 1300]
    # a side where no chunk splits comes back with its own values
    starts, ends, counts = _split_chunks([-0.0, 300], [100, 600], 300.0, target=True)
    assert [(type(t), float(t).hex()) for t in starts] == [
        (float, (-0.0).hex()), (int, (300.0).hex())
    ]
    assert ends == [100, 600] and [type(t) for t in ends] == [int, int]
    assert counts == [1, 1]
    assert _split_chunks((), (), 300.0) == ([], [], [])


@PROPERTY
@given(speech_sessions(), exact_taus)
def test_subtokens_last_at_most_tau_and_cover_each_chunk(session, tau):
    fine = subsegment_session(session, SubSegmentConfig(tau=tau))
    sides = [(session.source, fine.source)]
    if session.modality == SPEECH_TO_SPEECH:
        sides.append((session.target, fine.target))
    for chunks, pieces in sides:
        assert all(0 < p.end - p.start <= tau for p in pieces)
        pos = 0
        for chunk in chunks:
            n = max(1, math.ceil((chunk.end - chunk.start) / tau - 1e-9))
            run = pieces[pos : pos + n]
            assert run[0].start == chunk.start and run[-1].end == chunk.end
            assert all(a.end == b.start for a, b in zip(run, run[1:]))
            pos += n
        assert pos == len(pieces)


ONE_CHUNK = SessionTrace(
    "one", SPEECH_TO_SPEECH, CA, (TimedToken(None, 0.0, 300.0),), (), ()
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
            pieces = max(1, math.ceil((token.end - token.start) / tau - 1e-9))
        expected.extend([cumulative[g - 1]] * pieces)
    assert list(fine.reads) == expected


# ---------------------------------------------------------------------------
# nca re-scheduling
# ---------------------------------------------------------------------------

@PROPERTY
@given(any_sessions.filter(lambda s: s.target))
@example(GIVEN)
def test_build_nca_timeline_equals_oracle(session):
    assert exact(build_nca_timeline(session)) == exact(oracle_build_nca_timeline(session))


@PROPERTY
@given(any_sessions.filter(lambda s: s.target))
def test_nca_output_follows_its_trigger_keeps_durations_and_is_serialized(session):
    nca = build_nca_timeline(session)
    assert nca.timeline_kind == NCA and nca.spans is None
    assert nca.source == session.source and nca.reads == session.reads
    prev_end = 0.0
    for before, after, g in zip(session.target, nca.target, nca.reads):
        assert after.text == before.text
        assert after.start >= session.source[g - 1].end
        assert after.start >= prev_end
        assert after.end - after.start == before.end - before.start
        prev_end = after.end


# ---------------------------------------------------------------------------
# derived sessions
# ---------------------------------------------------------------------------

def chunk_session(source, target):
    """A ca speech-to-speech session of (start, end) chunks; target chunk t
    has read min(t, number of source chunks) of them."""
    return SessionTrace(
        "d",
        SPEECH_TO_SPEECH,
        CA,
        tuple(TimedToken(None, start, end) for start, end in source),
        tuple(TimedToken("y", start, end) for start, end in target),
        tuple(min(t, len(source)) for t in range(1, len(target) + 1)),
        spans=(),
    )


ALMOST = 1 + 1e-10  # a multiple of tau this much longer is outlasted by less than the tolerance


@PROPERTY
@given(any_sessions, any_taus)
@example(  # chunks of exact multiples of tau, and of multiples outlasted by 1e-10 of them
    chunk_session(
        [(0.0, 900.0), (900.0, 900.0 + 300.0 * ALMOST), (1500.0, 1500.0 + 900.0 * ALMOST)],
        [(1000.0, 1600.0), (1600.0, 1600.0 + 600.0 * ALMOST)],
    ),
    300.0,
)
@example(chunk_session([(0.0, 21.0), (21.0, 21.0 + 21.0 * ALMOST)], [(50.0, 71.0)]), 0.7)
@example(  # 50,000 pieces a side, far below the times' resolution of 0.125 ms
    chunk_session([(1e15, 1e15 + 0.5)], [(1e15 + 0.5, 1e15 + 1.0)]), 1e-5
)
@example(chunk_session([(-0.0, 300.0)], [(-0.0, 300.0)]), 300.0)  # unsplit, -0.0 stays
@example(chunk_session([(0.0, 900.0)], []), 300.0)  # no target: nca refuses it
@example(  # source chunks that overlap: refused, the pieces would leave order
    chunk_session([(0.0, 700.0), (500.0, 750.0)], [(800.0, 900.0)]), 300.0
)
@example(  # target chunks that overlap: refused by input position, as above
    chunk_session([(0.0, 1000.0)], [(0.0, 700.0), (500.0, 750.0)]), 300.0
)
def test_derived_sessions_pass_every_check_of_the_constructor(session, tau):
    # subsegment_session and build_nca_timeline build their result from the
    # input's checked columns without the constructor's checks; the full
    # constructor takes each result as it is, field by field, reads included
    cfg = SubSegmentConfig(tau=tau)
    nca = outcome(build_nca_timeline, session)
    derived = [outcome(subsegment_session, session, cfg), nca]
    if isinstance(nca, SessionTrace):  # eval --timeline nca splits the re-scheduled session
        derived.append(outcome(subsegment_session, nca, cfg))
    for result in derived:
        if isinstance(result, SessionTrace):
            checked = replace(result)
            assert checked == result
            assert list(map(type, vars(checked).values())) == list(map(type, vars(result).values()))
