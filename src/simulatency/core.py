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
from collections.abc import Sequence
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

# the most sub-tokens the speech chunks of one session side may split into;
# longer chunks, or a smaller tau, are refused rather than materialized
MAX_SUBTOKENS_PER_SIDE = 100_000


class TraceError(ValueError):
    """A session or trace violates the data contract."""


def _check_times(start: float | None, end: float | None) -> None:
    """A token's times are both set or both unset, and ``0 <= start <= end``."""
    if (start is None) != (end is None):
        raise TraceError("start and end must be set together")
    if start is not None:
        if start < 0:
            raise TraceError(f"negative start time {start}")
        if end < start:
            raise TraceError(f"end {end} precedes start {start}")


@dataclass(frozen=True)
class TimedToken:
    """One source or target token.

    ``start``/``end`` are milliseconds on a timed timeline; unit-step sessions
    leave them unset.  Either both are present or neither.  A token's number
    is its 1-based position within its side.
    """

    text: str | None = None
    start: float | None = None
    end: float | None = None

    def __post_init__(self) -> None:
        _check_times(self.start, self.end)

    @property
    def timed(self) -> bool:
        return self.start is not None

    @property
    def duration(self) -> float:
        if self.start is None:
            raise TraceError("token carries no times")
        return self.end - self.start


@dataclass(frozen=True, eq=False, slots=True)
class TokenSide(Sequence):
    """The tokens of one session side, as three parallel columns.

    Indexing or iterating builds each ``TimedToken`` on demand; a slice is a
    side.  A side equals, and hashes as, the tuple of its tokens.  The
    columns are taken as given: ``TokenSide.of`` builds a side from tokens.
    """

    text: tuple[str | None, ...] = ()
    start: tuple[float | None, ...] = ()
    end: tuple[float | None, ...] = ()

    @classmethod
    def of(cls, tokens: Iterable[TimedToken]) -> "TokenSide":
        if isinstance(tokens, TokenSide):
            return tokens
        tokens = tuple(tokens)
        return cls(*(tuple(getattr(t, f) for t in tokens) for f in ("text", "start", "end")))

    def __len__(self) -> int:
        return len(self.text)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TokenSide(self.text[index], self.start[index], self.end[index])
        return TimedToken(self.text[index], self.start[index], self.end[index])

    def __iter__(self):
        return map(TimedToken, self.text, self.start, self.end)

    def __eq__(self, other) -> bool:
        if isinstance(other, TokenSide):
            return (self.text, self.start, self.end) == (other.text, other.start, other.end)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __add__(self, other):
        if not isinstance(other, (TokenSide, tuple)):
            return NotImplemented
        other = TokenSide.of(other)
        return TokenSide(self.text + other.text, self.start + other.start, self.end + other.end)

    def __radd__(self, other):
        return TokenSide.of(other) + self if isinstance(other, tuple) else NotImplemented


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
        if self.tau == math.inf:
            raise ValueError(f"tau must be finite, got {self.tau}")


def _check_reads(reads: tuple[int, ...], src_len: int, context: str = "") -> None:
    """Every g an int in 1..src_len and never decreasing; errors start with ``context``."""
    prev = 0
    for t, g in enumerate(reads, start=1):
        if type(g) is not int:  # no bool, and no float to truncate
            raise TraceError(f"{context}g({t}) = {g!r} is not an integer")
        if g < 1 or g > src_len:
            raise TraceError(f"{context}g({t}) = {g} outside 1..{src_len}")
        if g < prev:
            raise TraceError(f"{context}reads not monotone at position {t}")
        prev = g


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
    source: TokenSide
    target: TokenSide
    reads: tuple[int, ...]
    reference: str | None = None
    spans: tuple[ComputationSpan, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "source", TokenSide.of(self.source))
        object.__setattr__(self, "target", TokenSide.of(self.target))
        object.__setattr__(self, "reads", tuple(self.reads))
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
        _check_reads(self.reads, len(self.source), f"{self.id}: ")

    def _validate_side(self, side_name: str, side: TokenSide) -> None:
        if self.timeline_kind != STEPS and None in side.start:
            raise TraceError(
                f"{self.id}: {side_name} token {side.start.index(None) + 1} "
                "lacks times on a timed session"
            )
        last = prev_start = prev_end = None  # the last timed token's position and times
        for pos, (start, end) in enumerate(zip(side.start, side.end), start=1):
            if start is not None:
                if last is not None and (start < prev_start or end < prev_end):
                    raise TraceError(f"{self.id}: {side_name} tokens {last},{pos} out of order")
                last, prev_start, prev_end = pos, start, end

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
    start: float, end: float, tau: float, prev_end: float | None = None, before: int = 0
) -> tuple[list[float], list[float]]:
    """Sub-token starts and ends of the speech chunk [start, end): one per ``tau`` ms.

    The pieces are [start + i*tau, start + (i+1)*tau) except the last, which
    ends exactly at ``end``.  A chunk without duration, one starting before
    ``prev_end`` (the end of the chunk before it), or one that would take its
    side, which holds ``before`` sub-tokens already, past
    ``MAX_SUBTOKENS_PER_SIDE`` is rejected.
    """
    if end <= start:
        raise TraceError(f"segment [{start}, {end}) has no duration")
    if prev_end is not None and start < prev_end:
        raise TraceError(f"segment starting at {start} overlaps previous chunk")
    pieces = (end - start) / tau
    room = MAX_SUBTOKENS_PER_SIDE - before
    if not pieces <= room:  # also refuses an infinite or NaN count
        raise TraceError(
            f"segment [{start}, {end}) would split into more than {room} sub-tokens of {tau} ms"
            + (f", the rest of the {MAX_SUBTOKENS_PER_SIDE} of its side" if before else "")
        )
    # the tolerance keeps exact multiples of tau from making a zero-length tail;
    # a chunk that outlasts a multiple by less gives the excess to its last piece
    count = max(1, math.ceil(pieces - 1e-9))
    starts = [start + i * tau for i in range(count)]
    return starts, starts[1:] + [end]


def _split_chunks(
    chunks: Iterable[tuple[float, float]], tau: float
) -> tuple[TokenSide, list[int]]:
    """Sub-tokens of consecutive speech chunks, and after each chunk the
    number of sub-tokens so far."""
    starts, ends, counts = [], [], []
    prev_end = None
    for chunk_start, chunk_end in chunks:
        piece_starts, piece_ends = _tau_bounds(chunk_start, chunk_end, tau, prev_end, len(starts))
        starts += piece_starts
        ends += piece_ends
        counts.append(len(starts))
        prev_end = chunk_end
    return TokenSide((None,) * len(starts), tuple(starts), tuple(ends)), counts


def subsegment_speech(
    segments: list[tuple[float, float]] | tuple[tuple[float, float], ...],
    cfg: SubSegmentConfig = SubSegmentConfig(),
) -> TokenSide:
    """Split speech chunks into tokens of at most ``tau`` ms.

    Each chunk [s, e) becomes tokens [s, s+tau), [s+tau, s+2*tau), ...; the
    final token of a chunk ends exactly at e, so a remainder shorter than tau
    forms its own shorter token.  Silence between chunks belongs to no token.
    """
    if not segments:
        raise TraceError("no input: empty segment list")
    return _split_chunks(segments, cfg.tau)[0]


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
    tokens: Iterable[TimedToken],
    reads: tuple[int, ...] | list[int],
    gran: TokenGranularity,
    chunk_ends: tuple[int, ...] | list[int],
) -> tuple[TokenSide, tuple[int, ...]]:
    """Re-tokenize a target side into fixed-size character groups per chunk.

    Within each output chunk, consecutive character tokens are grouped into
    tokens of ``group_size``; a trailing remainder shorter than the group size
    forms its own token.  The read count carried by a group is the g of its
    last character: the group is not determined until that character is
    emitted.  Word granularity is the identity.
    """
    tokens = TokenSide.of(tokens)
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

    texts, starts, ends, new_reads = [], [], [], []
    chunk_start = 0
    for bound in bounds:
        for first in range(chunk_start, bound, gran.group_size):
            last = min(first + gran.group_size, bound) - 1
            group = tokens.text[first : last + 1]
            texts.append(None if None in group else "".join(group))
            timed = tokens.start[first] is not None and tokens.start[last] is not None
            starts.append(tokens.start[first] if timed else None)
            ends.append(tokens.end[last] if timed else None)
            new_reads.append(reads[last])
        chunk_start = bound
    return TokenSide(tuple(texts), tuple(starts), tuple(ends)), tuple(new_reads)


def _join_sides(a: TokenSide, b: TokenSide, offset: float) -> TokenSide:
    """``a`` followed by ``b``, b's times moved by ``offset``."""
    start, end = (tuple(t if t is None else t + offset for t in col) for col in (b.start, b.end))
    return TokenSide(a.text + b.text, a.start + start, a.end + end)


def concat_sessions(
    a: SessionTrace, b: SessionTrace, mode: str = "relative"
) -> SessionTrace:
    """Join two sessions into one streaming session.

    ``mode="relative"`` treats b's timestamps as starting from zero and shifts
    them past a's latest end time: b cannot exist on the timeline before a
    has finished happening.
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
    if mode == "relative":  # a unit-step token's times are optional
        ends = (t for side in (a.source, a.target) for t in side.end if t is not None)
        offset = max(ends, default=0.0)

    source = _join_sides(a.source, b.source, offset)
    target = _join_sides(a.target, b.target, offset)
    reads = a.reads + tuple(g + a.src_len for g in b.reads)

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
        source=source,
        target=target,
        reads=reads,
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
    source, counts = _split_chunks(zip(s.source.start, s.source.end), tau)
    reads = [counts[g - 1] for g in s.reads]

    target = s.target
    if s.modality == SPEECH_TO_SPEECH:
        texts, starts, ends, pieces_reads = [], [], [], []
        chunks = zip(target.text, target.start, target.end, reads)
        for t, (text, chunk_start, chunk_end, g) in enumerate(chunks, start=1):
            piece_starts, piece_ends = _tau_bounds(chunk_start, chunk_end, tau, None, len(starts))
            # pieces within a chunk are in order; chunks that overlap may not be
            if starts and (piece_starts[0] < starts[-1] or piece_ends[0] < ends[-1]):
                raise TraceError(
                    f"{s.id}: target tokens {t - 1},{t} out of order once split into sub-segments"
                )
            n = len(piece_starts)
            texts += [text if n == 1 else None] * n
            starts += piece_starts
            ends += piece_ends
            pieces_reads += [g] * n
        target, reads = TokenSide(tuple(texts), tuple(starts), tuple(ends)), pieces_reads

    return SessionTrace(
        s.id, s.modality, s.timeline_kind, source, target, tuple(reads), s.reference, s.spans
    )
