from dataclasses import replace
from math import inf
from pathlib import Path

import pytest

from simulatency import (
    CA,
    NCA,
    SPEECH_TO_SPEECH,
    SPEECH_TO_TEXT,
    ComputationSpan,
    SessionTrace,
    StepMetricInput,
    TimedToken,
    TraceError,
    atd_timed,
    average_lagging,
    build_nca_timeline,
    differentiable_average_lagging,
    end_offset,
    read_alignments,
    read_sessions,
    start_offset,
)
from simulatency import concat_sessions
from simulatency.core import TokenSide

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def contrast_pair():
    """The balanced and the front-loaded session of the committed contrast fixture."""
    return read_sessions(str(FIXTURES / "contrast_traces.jsonl"))


def contrast_links():
    """The contrast fixture's word alignment links, keyed by session id."""
    return dict(read_alignments(str(FIXTURES / "contrast_alignments.jsonl")))


def session(src_times, tgt_times, reads, timeline=NCA, spans=None, session_id="s"):
    return SessionTrace(
        id=session_id,
        modality=SPEECH_TO_SPEECH,
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


def shifted(s, offset):
    return replace(
        s,
        source=tuple(
            replace(t, start=t.start + offset, end=t.end + offset) for t in s.source
        ),
        target=tuple(
            replace(t, start=t.start + offset, end=t.end + offset) for t in s.target
        ),
    )


# ---------------------------------------------------------------------------
# ATD on the wall clock
# ---------------------------------------------------------------------------

def test_atd_single_pair():
    s = session([(0, 1000)], [(1200, 1500)], [1])
    assert atd_timed(s) == pytest.approx(500.0)


def test_atd_alternating_schedule_is_constant_delay():
    delta = 250.0
    src = [((t - 1) * 1000.0, t * 1000.0) for t in range(1, 9)]
    tgt = [(t * 1000.0 + delta - 100.0, t * 1000.0 + delta) for t in range(1, 9)]
    s = session(src, tgt, list(range(1, 9)))
    assert atd_timed(s) == pytest.approx(delta)


def test_atd_zero_when_target_mirrors_source():
    src = [((t - 1) * 500.0, t * 500.0) for t in range(1, 6)]
    s = session(src, src, list(range(1, 6)))
    assert atd_timed(s) == pytest.approx(0.0)


@pytest.mark.parametrize("offset", [1.0, 1000.0, 10.0**6])
def test_atd_shift_invariance(offset):
    for s in contrast_pair():
        assert atd_timed(shifted(s, offset)) == pytest.approx(atd_timed(s))


def test_fixture_orderings_between_the_two_cases():
    c1, c2 = contrast_pair()
    i1 = StepMetricInput.from_session(c1)
    i2 = StepMetricInput.from_session(c2)
    assert atd_timed(c2) > atd_timed(c1)
    assert average_lagging(i2) < average_lagging(i1)
    assert differentiable_average_lagging(i2) < differentiable_average_lagging(i1)


def test_atd_warns_on_pipelined_ca_output(caplog):
    s = session([(0, 1000)], [(500, 1500)], [1], timeline=CA, spans=())
    with caplog.at_level("WARNING"):
        value = atd_timed(s)
    assert value == pytest.approx(500.0)
    assert any("before their read source" in r.message for r in caplog.records)


def test_atd_requires_output():
    s = session([(0, 1000)], [], [])
    with pytest.raises(TraceError, match="no output"):
        atd_timed(s)


def test_atd_rejects_unit_step_sessions():
    s = SessionTrace(
        id="steps",
        modality="text-to-text",
        timeline_kind="steps",
        source=(TimedToken(),),
        target=(TimedToken(),),
        reads=(1,),
    )
    with pytest.raises(TraceError, match="timed"):
        atd_timed(s)


# ---------------------------------------------------------------------------
# offsets
# ---------------------------------------------------------------------------

def test_start_offset_simple():
    s = session([(0, 1000)], [(2000, 2600)], [1])
    assert start_offset(s) == pytest.approx(2000.0)


def test_start_offset_zero_for_passthrough():
    s = session([(0, 1000)], [(0, 900)], [1])
    assert start_offset(s) == pytest.approx(0.0)


def test_start_offset_of_concatenation_is_first_sentence_only():
    a = session([(0, 1000)], [(1500, 2000)], [1], session_id="a")
    b = session([(0, 1000)], [(4000, 4500)], [1], session_id="b")
    joined = concat_sessions(a, b, mode="relative")
    assert start_offset(joined) == start_offset(a)


def test_end_offset_simple():
    s = session([(0, 1000)], [(1200, 1500)], [1])
    assert end_offset(s) == pytest.approx(500.0)


def test_end_offset_negative_when_output_finishes_early():
    s = session([(0, 1000), (1000, 3000)], [(1000, 1400), (1400, 2000)], [1, 2])
    assert end_offset(s) == pytest.approx(-1000.0)


def test_end_offset_is_last_end_difference():
    s = contrast_pair()[0]
    assert end_offset(s) == pytest.approx(s.target[-1].end - s.source[-1].end)


# ---------------------------------------------------------------------------
# NCA re-scheduling
# ---------------------------------------------------------------------------

def test_nca_rebuild_is_identity_without_computation():
    s = session(
        [(0, 1000)],
        [(1000, 1600), (1600, 2200)],
        [1, 1],
        timeline=CA,
        spans=(),
    )
    rebuilt = build_nca_timeline(s)
    assert rebuilt.timeline_kind == NCA
    assert [(t.start, t.end) for t in rebuilt.target] == [
        (t.start, t.end) for t in s.target
    ]


def test_nca_rebuild_removes_decode_time():
    s = session(
        [(0, 1000)],
        [(1200, 1800)],
        [1],
        timeline=CA,
        spans=(ComputationSpan("decode", 1000, 1200),),
    )
    rebuilt = build_nca_timeline(s)
    assert (rebuilt.target[0].start, rebuilt.target[0].end) == (1000, 1600)


def test_nca_rebuild_serializes_overlapping_output():
    s = session(
        [(0, 1000)],
        [(1500, 2500), (3000, 3600)],
        [1, 1],
        timeline=CA,
        spans=(
            ComputationSpan("decode", 1000, 1500),
            ComputationSpan("decode", 2500, 3000),
        ),
    )
    rebuilt = build_nca_timeline(s)
    first, second = rebuilt.target
    assert (first.start, first.end) == (1000, 2000)
    assert (second.start, second.end) == (2000, 2600)  # clamped to first chunk end


def test_nca_rebuild_requires_span_annotations():
    s = session([(0, 1000)], [(1200, 1800)], [1], timeline=CA, spans=None)
    with pytest.raises(TraceError, match="span"):
        build_nca_timeline(s)


def test_nca_rebuild_rejects_non_ca_sessions():
    s = session([(0, 1000)], [(1200, 1800)], [1], timeline=NCA)
    with pytest.raises(TraceError, match="computation-aware"):
        build_nca_timeline(s)


def test_nca_rebuild_of_finite_times_may_overflow_to_an_infinite_end():
    # the constructor refuses an infinite time, so no duration is inf - inf;
    # finite times near the float range may still add up past it, and the
    # re-scheduled session keeps the infinite end, whose non-finite ATD or
    # end offset eval leaves out with a warning
    source = TokenSide(("a",), (0.0,), (100.0,))
    with pytest.raises(TraceError) as err:
        SessionTrace(
            "x", SPEECH_TO_TEXT, CA, source, TokenSide(("b", "c"), (50.0, 60.0), (90.0, inf)), (1, 1),
            None, (),
        )
    assert str(err.value) == "x: target token 2: time is infinite: start 60.0, end inf"
    source = TokenSide(("a",), (0.0,), (1e308,))
    s = SessionTrace("x", SPEECH_TO_TEXT, CA, source, TokenSide(("b",), (0.0,), (1.7e308,)), (1,), None, ())
    nca = build_nca_timeline(s)
    assert nca.target.start == (1e308,) and nca.target.end == (inf,)
    assert (start_offset(nca), end_offset(nca), atd_timed(nca)) == (1e308, inf, inf)


def test_nca_output_never_overlaps():
    import random

    rng = random.Random(7)
    for _ in range(50):
        n_src = rng.randint(1, 5)
        src = []
        t = 0.0
        for _ in range(n_src):
            dur = rng.randint(1, 6) * 250.0
            src.append((t, t + dur))
            t += dur
        n_tgt = rng.randint(1, 6)
        reads = sorted(rng.randint(1, n_src) for _ in range(n_tgt))
        tgt = []
        cursor = src[-1][1] + 5000.0  # place CA output safely late
        for _ in range(n_tgt):
            dur = rng.randint(1, 4) * 250.0
            tgt.append((cursor, cursor + dur))
            cursor += dur + rng.randint(0, 2) * 100.0
        s = session(src, tgt, reads, timeline=CA, spans=())
        rebuilt = build_nca_timeline(s)
        for prev, cur in zip(rebuilt.target, rebuilt.target[1:]):
            assert cur.start >= prev.end - 1e-9
        for token, g in zip(rebuilt.target, rebuilt.reads):
            assert token.start >= rebuilt.source[g - 1].end - 1e-9


def test_longer_first_chunk_does_not_decrease_atd():
    # source: two 1s chunks; first output chunk grows, second re-schedules after it
    previous = None
    for first_len in range(400, 4001, 400):
        chunk1 = (1000.0, 1000.0 + first_len)
        chunk2_start = max(2000.0, chunk1[1])
        s = session(
            [(0.0, 1000.0), (1000.0, 2000.0)],
            [chunk1, (chunk2_start, chunk2_start + 600.0)],
            [1, 2],
        )
        value = atd_timed(s)
        if previous is not None:
            assert value >= previous - 1e-9
        previous = value
