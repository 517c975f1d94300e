"""Wall-clock latency metrics for timed sessions.

ATD works on token *end* times while the offsets use the outermost start/end
pair; this asymmetry is deliberate and matches how the ear-voice-span style
measurements treat speech.  Values are milliseconds and may legitimately be
negative (a system can finish speaking before the input ends).
"""

from __future__ import annotations

import logging

from .core import CA, NCA, SessionTrace, TokenSide, TraceError
from .metrics_step import _serialized_starts, _token_delay

logger = logging.getLogger(__name__)


def _require_timed(s: SessionTrace, what: str) -> None:
    if not s.is_timed:
        raise TraceError(f"{what} needs a timed session, not unit steps")
    if not s.source:
        raise TraceError("no input")
    if not s.target:
        raise TraceError("no output produced")


def atd_timed(s: SessionTrace) -> float:
    """Average token delay in milliseconds: mean of end-time differences
    between each output token and its matched input token."""
    _require_timed(s, "ATD")
    if s.timeline_kind == CA:
        late = sum(1 for start, g in zip(s.target.start, s.reads) if start < s.source.end[g - 1])
        if late:
            logger.warning(
                "%s: %d target tokens start before their read source token ends "
                "(pipelined output?); scoring as recorded",
                s.id,
                late,
            )
    return _token_delay(s.source.end, s.target.end, s.reads)


def start_offset(s: SessionTrace) -> float:
    """Time from the start of the source to the start of the output, ms."""
    _require_timed(s, "start offset")
    return s.target.start[0] - s.source.start[0]


def end_offset(s: SessionTrace) -> float:
    """Time from the end of the source to the end of the output, ms."""
    _require_timed(s, "end offset")
    return s.target.end[-1] - s.source.end[-1]


def build_nca_timeline(s: SessionTrace) -> SessionTrace:
    """Re-schedule a computation-aware session onto the ideal clock.

    With computation collapsed to zero, each piece of output starts at the
    later of the end of the source prefix that triggered it and the end of
    the previous output (speech synthesis cannot start while still
    speaking); durations are preserved.  The session must carry its
    computation-span annotations, even if the list is empty, as evidence
    that the wall-clock trace declared its computation structure.
    """
    if s.timeline_kind != CA:
        raise TraceError("only computation-aware sessions can be re-scheduled")
    if s.spans is None:
        raise TraceError("missing computation-span annotations")
    _require_timed(s, "re-scheduling")

    durations = [end - start for start, end in zip(s.target.start, s.target.end)]
    starts = tuple(_serialized_starts([s.source.end[g - 1] for g in s.reads], durations))
    ends = tuple(start + duration for start, duration in zip(starts, durations))
    target = TokenSide(s.target.text, starts, ends)
    return SessionTrace(s.id, s.modality, NCA, s.source, target, s.reads, s.reference, None)
