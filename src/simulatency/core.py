"""Core session model for simultaneous-translation latency evaluation.

A session is one evaluation unit: the timed (or unit-step) source tokens, the
timed target tokens, and the read schedule g(t) = number of source tokens read
before the t-th target token was emitted.  All types are immutable after
construction and every operation is a pure function, so sessions can be scored
in parallel without shared state.

Times are milliseconds on the "ca" (wall clock including model computation)
and "nca" (ideal clock with computation removed) timelines; "steps" sessions
carry no times and are scored by the step-based metrics only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

TEXT_TO_TEXT = "text-to-text"
SPEECH_TO_TEXT = "speech-to-text"
SPEECH_TO_SPEECH = "speech-to-speech"
MODALITIES = (TEXT_TO_TEXT, SPEECH_TO_TEXT, SPEECH_TO_SPEECH)

CA = "ca"
NCA = "nca"
STEPS = "steps"
TIMELINES = (CA, NCA, STEPS)

WORD = "word"
CHARACTER_GROUP = "character-group"


class TraceError(ValueError):
    """A session or trace violates the data contract."""


@dataclass(frozen=True)
class TimedToken:
    """One source or target token.

    ``start``/``end`` are milliseconds on a timed timeline; unit-step sessions
    leave them unset.  Either both are present or neither.
    """

    index: int  # 1-based position within its side
    text: str | None = None
    start: float | None = None
    end: float | None = None

    def __post_init__(self) -> None:
        if self.index < 1:
            raise TraceError(f"token index must be >= 1, got {self.index}")
        if (self.start is None) != (self.end is None):
            raise TraceError(f"token {self.index}: start and end must be set together")
        if self.start is not None:
            if self.start < 0:
                raise TraceError(f"token {self.index}: negative start time {self.start}")
            if self.end < self.start:
                raise TraceError(
                    f"token {self.index}: end {self.end} precedes start {self.start}"
                )

    @property
    def timed(self) -> bool:
        return self.start is not None

    @property
    def duration(self) -> float:
        if self.start is None:
            raise TraceError(f"token {self.index} carries no times")
        return self.end - self.start


@dataclass(frozen=True)
class ComputationSpan:
    """A computation interval on the wall clock (encode/decide, decode, ASR)."""

    kind: str
    start: float  # ms
    end: float  # ms

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise TraceError(f"invalid computation span [{self.start}, {self.end})")


@dataclass(frozen=True)
class TokenGranularity:
    """Token unit for step metrics: whole words, or fixed-size character groups."""

    unit: str = WORD
    group_size: int = 1

    def __post_init__(self) -> None:
        if self.unit not in (WORD, CHARACTER_GROUP):
            raise ValueError(f"unknown granularity unit {self.unit!r}")
        if self.group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {self.group_size}")

    @classmethod
    def from_spec(cls, spec: str) -> "TokenGranularity":
        """Parse a CLI-style spec: ``word`` or ``char:N``."""
        if spec == WORD:
            return cls(WORD, 1)
        if spec.startswith("char:"):
            try:
                size = int(spec.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"bad granularity spec {spec!r}") from None
            return cls(CHARACTER_GROUP, size)
        raise ValueError(f"bad granularity spec {spec!r}")


@dataclass(frozen=True)
class SubSegmentConfig:
    """Sub-segmentation of speech chunks: one token per ``tau`` ms of speech."""

    tau: float = 300.0  # ms

    def __post_init__(self) -> None:
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau}")


def _as_token_tuple(tokens) -> tuple[TimedToken, ...]:
    return tuple(tokens)


@dataclass(frozen=True)
class SessionTrace:
    """One evaluation unit: source/target tokens plus the read schedule.

    ``reads[t-1]`` is g(t), the number of source tokens read before target
    token t was emitted; it is monotone non-decreasing and bounded by the
    source length.  ``reference`` is the raw reference translation text, kept
    untokenized so step metrics can re-tokenize it per granularity.
    """

    id: str
    modality: str
    timeline_kind: str
    source: tuple[TimedToken, ...]
    target: tuple[TimedToken, ...]
    reads: tuple[int, ...]
    reference: str | None = None
    spans: tuple[ComputationSpan, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "source", _as_token_tuple(self.source))
        object.__setattr__(self, "target", _as_token_tuple(self.target))
        object.__setattr__(self, "reads", tuple(map(int, self.reads)))
        if self.spans is not None:
            object.__setattr__(self, "spans", tuple(self.spans))
        self._validate()

    def _validate(self) -> None:
        if self.modality not in MODALITIES:
            raise TraceError(f"{self.id}: unknown modality {self.modality!r}")
        if self.timeline_kind not in TIMELINES:
            raise TraceError(f"{self.id}: unknown timeline {self.timeline_kind!r}")
        if len(self.reads) != len(self.target):
            raise TraceError(
                f"{self.id}: {len(self.reads)} reads for {len(self.target)} target tokens"
            )
        if self.target and not self.source:
            raise TraceError(f"{self.id}: target tokens without source tokens")
        for side_name, side in (("source", self.source), ("target", self.target)):
            self._validate_side(side_name, side)
        prev = 0
        for t, g in enumerate(self.reads, start=1):
            if g < 1 or g > len(self.source):
                raise TraceError(
                    f"{self.id}: g({t}) = {g} outside 1..{len(self.source)}"
                )
            if g < prev:
                raise TraceError(f"{self.id}: reads not monotone at position {t}")
            prev = g

    def _validate_side(self, side_name: str, side: tuple[TimedToken, ...]) -> None:
        timed_required = self.timeline_kind != STEPS
        for pos, token in enumerate(side, start=1):
            if token.index != pos:
                raise TraceError(
                    f"{self.id}: {side_name} token at position {pos} has index {token.index}"
                )
            if timed_required and token.start is None:
                raise TraceError(
                    f"{self.id}: {side_name} token {pos} lacks times on a timed session"
                )
        # indices equal positions now, so a pair is (pos - 1, pos)
        prev_start = prev_end = None
        for pos, token in enumerate(side, start=1):
            start = token.start
            if start is not None and prev_start is not None:
                if start < prev_start or token.end < prev_end:
                    raise TraceError(
                        f"{self.id}: {side_name} tokens {pos - 1},{pos} out of order"
                    )
            prev_start, prev_end = start, token.end

    @property
    def src_len(self) -> int:
        return len(self.source)

    @property
    def tgt_len(self) -> int:
        return len(self.target)

    @property
    def is_timed(self) -> bool:
        return self.timeline_kind != STEPS


def _tau_bounds(
    start: float, end: float, tau: float, prev_end: float | None = None
) -> list[tuple[float, float]]:
    """Sub-token bounds of the speech chunk [start, end): one per ``tau`` ms.

    The pieces are [start + i*tau, start + (i+1)*tau) except the last, which
    ends exactly at ``end``.  A chunk without duration, or one starting
    before ``prev_end`` (the end of the chunk before it), is rejected.
    """
    if end <= start:
        raise TraceError(f"segment [{start}, {end}) has no duration")
    if prev_end is not None and start < prev_end:
        raise TraceError(f"segment starting at {start} overlaps previous chunk")
    # the tolerance keeps exact multiples of tau from making a zero-length tail;
    # a chunk that outlasts a multiple by less gives the excess to its last piece
    count = max(1, math.ceil((end - start) / tau - 1e-9))
    bounds = [(start + i * tau, start + (i + 1) * tau) for i in range(count - 1)]
    bounds.append((start + (count - 1) * tau, end))
    return bounds


def _split_chunks(
    chunks: Iterable[tuple[float, float]], tau: float
) -> tuple[list[TimedToken], list[int]]:
    """Sub-tokens of consecutive speech chunks, and after each chunk the
    number of sub-tokens so far."""
    tokens: list[TimedToken] = []
    counts: list[int] = []
    prev_end = None
    for chunk_start, chunk_end in chunks:
        for start, end in _tau_bounds(chunk_start, chunk_end, tau, prev_end):
            tokens.append(TimedToken(len(tokens) + 1, None, start, end))
        counts.append(len(tokens))
        prev_end = chunk_end
    return tokens, counts


def subsegment_speech(
    segments: list[tuple[float, float]] | tuple[tuple[float, float], ...],
    cfg: SubSegmentConfig = SubSegmentConfig(),
) -> tuple[TimedToken, ...]:
    """Split speech chunks into tokens of at most ``tau`` ms.

    Each chunk [s, e) becomes tokens [s, s+tau), [s+tau, s+2*tau), ...; the
    final token of a chunk ends exactly at e, so a remainder shorter than tau
    forms its own shorter token.  Silence between chunks belongs to no token.
    Token indices are global and 1-based across all chunks.
    """
    if not segments:
        raise TraceError("no input: empty segment list")
    return tuple(_split_chunks(segments, cfg.tau)[0])


def chunk_ends_from_reads(reads: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """Output chunk boundaries implied by the read schedule.

    A new output chunk begins exactly when more source has been read, so
    chunks are the maximal runs of equal g.  Returns cumulative 1-based end
    indices partitioning the target list.
    """
    ends: list[int] = []
    for t in range(1, len(reads) + 1):
        if t == len(reads) or reads[t] != reads[t - 1]:
            ends.append(t)
    return tuple(ends)


def regroup_tokens(
    tokens: tuple[TimedToken, ...] | list[TimedToken],
    reads: tuple[int, ...] | list[int],
    gran: TokenGranularity,
    chunk_ends: tuple[int, ...] | list[int],
) -> tuple[tuple[TimedToken, ...], tuple[int, ...]]:
    """Re-tokenize a target side into fixed-size character groups per chunk.

    Within each output chunk, consecutive character tokens are grouped into
    tokens of ``group_size``; a trailing remainder shorter than the group size
    forms its own token.  The read count carried by a group is the g of its
    last character: the group is not determined until that character is
    emitted.  Word granularity is the identity.
    """
    tokens = tuple(tokens)
    reads = tuple(reads)
    if len(tokens) != len(reads):
        raise TraceError(f"{len(reads)} reads for {len(tokens)} tokens")
    if gran.unit == WORD:
        return tokens, reads

    bounds = list(chunk_ends)
    if not bounds or bounds[-1] != len(tokens) or bounds != sorted(set(bounds)):
        raise TraceError(f"chunk boundaries {bounds} do not partition {len(tokens)} tokens")
    if bounds[0] < 1:
        raise TraceError(f"chunk boundary {bounds[0]} out of range")

    new_tokens: list[TimedToken] = []
    new_reads: list[int] = []
    chunk_start = 0
    for bound in bounds:
        chunk = tokens[chunk_start:bound]
        chunk_reads = reads[chunk_start:bound]
        for i in range(0, len(chunk), gran.group_size):
            group = chunk[i : i + gran.group_size]
            texts = [tok.text for tok in group]
            text = "".join(texts) if all(t is not None for t in texts) else None
            start = group[0].start if group[0].timed and group[-1].timed else None
            end = group[-1].end if start is not None else None
            new_tokens.append(
                TimedToken(index=len(new_tokens) + 1, text=text, start=start, end=end)
            )
            new_reads.append(chunk_reads[i + len(group) - 1])
        chunk_start = bound
    return tuple(new_tokens), tuple(new_reads)


def _shift_token(token: TimedToken, index: int, offset: float) -> TimedToken:
    if token.start is not None:
        return TimedToken(index, token.text, token.start + offset, token.end + offset)
    return TimedToken(index, token.text)


def concat_sessions(
    a: SessionTrace, b: SessionTrace, mode: str = "relative"
) -> SessionTrace:
    """Join two sessions into one streaming session.

    ``mode="relative"`` treats b's timestamps as starting from zero and shifts
    them past a's final event (latest of a's last source end and last target
    end): b cannot exist on the timeline before a has finished happening.
    ``mode="absolute"`` keeps b's timestamps as recorded (already on a's
    clock).  b's reads are offset by a's source length.
    """
    if a.modality != b.modality:
        raise TraceError(f"modality mismatch: {a.modality} vs {b.modality}")
    if a.timeline_kind != b.timeline_kind:
        raise TraceError(f"timeline mismatch: {a.timeline_kind} vs {b.timeline_kind}")
    if mode not in ("relative", "absolute"):
        raise ValueError(f"unknown concat mode {mode!r}")

    offset = 0.0
    if mode == "relative" and a.is_timed:
        last_ends = [tok.end for tok in (a.source[-1:] + a.target[-1:]) if tok.timed]
        offset = max(last_ends) if last_ends else 0.0

    source = list(a.source)
    for token in b.source:
        source.append(_shift_token(token, len(source) + 1, offset))
    target = list(a.target)
    for token in b.target:
        target.append(_shift_token(token, len(target) + 1, offset))
    reads = list(a.reads) + [g + a.src_len for g in b.reads]

    reference = None
    if a.reference is not None and b.reference is not None:
        reference = f"{a.reference} {b.reference}"

    spans = None
    if a.spans is not None or b.spans is not None:
        spans = tuple(a.spans or ()) + tuple(
            ComputationSpan(s.kind, s.start + offset, s.end + offset)
            for s in (b.spans or ())
        )

    return SessionTrace(
        id=f"{a.id}+{b.id}",
        modality=a.modality,
        timeline_kind=a.timeline_kind,
        source=tuple(source),
        target=tuple(target),
        reads=tuple(reads),
        reference=reference,
        spans=spans,
    )


def subsegment_session(s: SessionTrace, cfg: SubSegmentConfig) -> SessionTrace:
    """Re-express a timed speech session in sub-segment tokens.

    Source chunks are split into tau-sized tokens and the read schedule is
    re-stated in sub-token units (the g of a target token becomes the total
    sub-token count of the source chunks it had read).  For speech-to-speech
    sessions the target chunks are split the same way, every sub-token of a
    chunk inheriting the chunk's g.  Splitting already-fine tokens is the
    identity, so the operation is idempotent.
    """
    if not s.is_timed:
        raise TraceError(f"{s.id}: unit-step session has no speech timeline")
    if not s.source:
        raise TraceError(f"{s.id}: no input")

    tau = cfg.tau
    # counts[g-1] = number of sub-tokens covering the first g source chunks
    source, counts = _split_chunks(((t.start, t.end) for t in s.source), tau)
    reads = [counts[g - 1] for g in s.reads]

    target = s.target
    if s.modality == SPEECH_TO_SPEECH:
        pieces_target: list[TimedToken] = []
        pieces_reads: list[int] = []
        for t, (token, g) in enumerate(zip(target, reads), start=1):
            bounds = _tau_bounds(token.start, token.end, tau)
            # pieces within a chunk are in order; chunks that overlap may not be
            if pieces_target and (
                bounds[0][0] < pieces_target[-1].start or bounds[0][1] < pieces_target[-1].end
            ):
                raise TraceError(
                    f"{s.id}: target tokens {t - 1},{t} out of order once split into sub-segments"
                )
            text = token.text if len(bounds) == 1 else None
            for start, end in bounds:
                pieces_target.append(TimedToken(len(pieces_target) + 1, text, start, end))
            pieces_reads.extend([g] * len(bounds))
        target, reads = pieces_target, pieces_reads

    return SessionTrace(
        s.id, s.modality, s.timeline_kind, tuple(source), tuple(target), tuple(reads),
        s.reference, s.spans,
    )
