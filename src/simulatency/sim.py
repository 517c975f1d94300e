"""Synthetic read/write schedules for studying the latency metrics.

The generators produce unit-step sessions for the two classic incremental
policies (wait-k and fixed-size chunking) and for a two-segment scenario
whose first output length varies.
"""

from __future__ import annotations

import math

from .core import STEPS, TEXT_TO_TEXT, SessionTrace, TimedToken


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
