"""Synthetic read/write schedules for studying the latency metrics.

The generators produce unit-step sessions for the two classic incremental
policies (wait-k and fixed-size chunking) and for a two-segment scenario
whose first output length varies, plus a pair of hand-built timed sessions
contrasting a balanced translation with one that front-loads a verbose first
chunk.
"""

from __future__ import annotations

import math

from .core import (
    NCA,
    SPEECH_TO_SPEECH,
    STEPS,
    TEXT_TO_TEXT,
    SessionTrace,
    TimedToken,
)
from .evs import AlignedPair


def _step_session(session_id: str, reads: list[int], src_len: int) -> SessionTrace:
    source = tuple(TimedToken(f"x{j}") for j in range(1, src_len + 1))
    target = tuple(TimedToken(f"y{t}") for t in range(1, len(reads) + 1))
    return SessionTrace(
        id=session_id,
        modality=TEXT_TO_TEXT,
        timeline_kind=STEPS,
        source=source,
        target=target,
        reads=tuple(reads),
    )


def gen_wait_k(k: int, src_len: int, tgt_len: int) -> SessionTrace:
    """Wait for k tokens, then alternate one write and one read."""
    if k < 1 or src_len < 1 or tgt_len < 1:
        raise ValueError("k and lengths must be >= 1")
    reads = [min(k + t - 1, src_len) for t in range(1, tgt_len + 1)]
    return _step_session(f"wait{k}-{src_len}x{tgt_len}", reads, src_len)


def gen_chunk_k(k: int, src_len: int, tgt_len: int) -> SessionTrace:
    """Alternate k-token input and output chunks (final chunks may be shorter)."""
    if k < 1 or src_len < 1 or tgt_len < 1:
        raise ValueError("k and lengths must be >= 1")
    reads = [min(math.ceil(t / k) * k, src_len) for t in range(1, tgt_len + 1)]
    return _step_session(f"chunk{k}-{src_len}x{tgt_len}", reads, src_len)


def gen_two_segment(first_len: int) -> SessionTrace:
    """Two 10-token input segments translated into first_len + 10 output tokens."""
    if first_len < 1:
        raise ValueError("first_len must be >= 1")
    reads = [10] * first_len + [20] * 10
    return _step_session(f"twoseg-L{first_len}", reads, 20)


# ---------------------------------------------------------------------------
# Hand-built two-chunk contrast fixture.
#
# Both sessions translate the same 10-token input, read as chunks of 3 and 7
# tokens.  The balanced session answers with 3 + 4 tokens; the front-loaded
# one spends 9 tokens on the first chunk and squeezes the rest into a single
# final token.  Token timings sit on a 1-second grid with no computation
# time.  The exact geometry is one plausible layout: the contract is the
# direction of the metric differences between the two sessions, not the
# absolute values.
# ---------------------------------------------------------------------------

_GRID_MS = 1000.0


def _grid_tokens(prefix: str, slots: list[int]) -> tuple[TimedToken, ...]:
    return tuple(
        TimedToken(f"{prefix}{i}", slot * _GRID_MS, (slot + 1) * _GRID_MS)
        for i, slot in enumerate(slots, start=1)
    )


def _contrast_session(session_id: str, tgt_slots: list[int], reads: list[int]) -> SessionTrace:
    return SessionTrace(
        id=session_id,
        modality=SPEECH_TO_SPEECH,
        timeline_kind=NCA,
        source=_grid_tokens("x", list(range(10))),
        target=_grid_tokens("y", tgt_slots),
        reads=tuple(reads),
    )


def contrast_balanced() -> SessionTrace:
    """Balanced translation: output chunks of 3 and 4 tokens."""
    return _contrast_session(
        "contrast-balanced",
        tgt_slots=[3, 4, 5, 10, 11, 12, 13],
        reads=[3, 3, 3, 10, 10, 10, 10],
    )


def contrast_frontloaded() -> SessionTrace:
    """Front-loaded translation: a 9-token first chunk, then one final token."""
    return _contrast_session(
        "contrast-frontloaded",
        tgt_slots=[3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
        reads=[3, 3, 3, 3, 3, 3, 3, 3, 3, 10],
    )


def contrast_alignments() -> dict[str, tuple[AlignedPair, ...]]:
    """Word alignment links for the contrast fixture, keyed by session id.

    Verified links connect the content words; each session also carries one
    wrong automatic link so the two averaging modes differ.
    """
    balanced = (
        AlignedPair(1, 1, 0.0, 3000.0, verified=True),
        AlignedPair(2, 2, 1000.0, 4000.0, verified=True),
        AlignedPair(3, 3, 2000.0, 5000.0, verified=True),
        AlignedPair(4, 4, 3000.0, 10000.0, verified=True),
        AlignedPair(6, 5, 5000.0, 11000.0, verified=True),
        AlignedPair(8, 6, 7000.0, 12000.0, verified=True),
        AlignedPair(10, 7, 9000.0, 13000.0, verified=True),
        AlignedPair(5, 2, 4000.0, 4000.0, verified=False),
    )
    frontloaded = (
        AlignedPair(1, 1, 0.0, 3000.0, verified=True),
        AlignedPair(2, 4, 1000.0, 6000.0, verified=True),
        AlignedPair(3, 7, 2000.0, 9000.0, verified=True),
        AlignedPair(7, 10, 6000.0, 12000.0, verified=True),
        AlignedPair(4, 2, 3000.0, 4000.0, verified=False),
    )
    return {"contrast-balanced": balanced, "contrast-frontloaded": frontloaded}
