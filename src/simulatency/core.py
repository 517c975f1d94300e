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
from itertools import accumulate, chain, groupby, repeat
from operator import add, attrgetter, le
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


def _number(value, what: str) -> None:
    """Refuse a ``value`` that is no ``int`` or ``float``, naming it as the
    reader does; a bool is an int to Python, but no time to the reader."""
    if type(value) is bool or not isinstance(value, (int, float)):
        raise TraceError(f"{what} must be a number, got {value!r}")


def _check_times(start: float | None, end: float | None) -> None:
    """A token's times are both set or both unset, and ``0 <= start <= end < inf``."""
    if (start is None) != (end is None):
        raise TraceError("start and end must be set together")
    if start is not None:
        _number(start, "start")
        _number(end, "end")
        if start < 0:
            raise TraceError(f"negative start time {start}")
        if end < start:
            raise TraceError(f"end {end} precedes start {start}")
        if start != start or end != end:
            raise TraceError(f"time is NaN: start {start}, end {end}")
        if end == math.inf:  # the start is no later
            raise TraceError(f"time is infinite: start {start}, end {end}")


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


class _Columns(Sequence):
    """A read-only sequence of ``_item`` records, held as one column per field.

    A subclass is a frozen dataclass whose fields are the columns, in the
    order of ``_item``'s fields.  Indexing or iterating builds each record on
    demand; a slice is again of the subclass.  The sequence equals, and
    hashes as, the tuple of its records, and equals any column sequence of
    the same records, whatever holds their columns.  The columns are taken
    as given: ``of`` builds them from records.
    """

    @classmethod
    def of(cls, items: Iterable):
        if isinstance(items, cls):
            return items
        return cls(*zip(*map(attrgetter(*cls._item.__match_args__), items)))

    @property
    def _columns(self) -> tuple:
        return attrgetter(*self.__match_args__)(self)

    @property
    def rows(self) -> tuple[tuple, ...]:
        return tuple(zip(*self._columns))

    def _check_lengths(self, name: str) -> None:
        """Refuse columns of unequal length, naming each length."""
        columns = self._columns
        if len(set(map(len, columns))) > 1:
            named = ", ".join(f"{field} {len(column)}" for field, column in zip(self.__match_args__, columns))
            raise TraceError(f"{name} columns differ in length: {named}")

    def __len__(self) -> int:
        return len(getattr(self, self.__match_args__[0]))

    def __getitem__(self, index):
        fields = [column[index] for column in self._columns]
        return type(self)(*fields) if isinstance(index, slice) else self._item(*fields)

    def __iter__(self):
        return map(self._item, *self._columns)

    def __eq__(self, other) -> bool:
        if isinstance(other, _Columns):
            return self._item is other._item and self.rows == other.rows
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        # a record hashes as the tuple of its fields, which is its row
        return hash(self.rows)


@dataclass(frozen=True, eq=False)
class TokenSide(_Columns):
    """The tokens of one session side, as three columns of ``TimedToken``
    fields; ``SessionTrace`` refuses a side whose columns differ in length."""

    text: tuple[str | None, ...] = ()
    start: tuple[float | None, ...] = ()
    end: tuple[float | None, ...] = ()

    _item = TimedToken


@dataclass(frozen=True)
class ComputationSpan:
    """A computation interval on the wall clock (encode/decide, decode, ASR)."""

    kind: str
    start: float  # ms
    end: float  # ms

    def __post_init__(self) -> None:
        _number(self.start, "span start")
        _number(self.end, "span end")
        if not 0 <= self.start <= self.end < math.inf:  # also refuses NaN
            raise TraceError(f"invalid computation span [{self.start}, {self.end})")


@dataclass(frozen=True)
class TokenGranularity:
    """Token unit for step metrics: whole words, or fixed-size character groups."""

    unit: str = WORD
    group_size: int = 1

    def __post_init__(self) -> None:
        if self.unit not in (WORD, CHARACTER_GROUP):
            raise ValueError(f"unknown granularity unit {self.unit!r}")
        if type(self.group_size) is not int:  # no bool either
            raise ValueError(f"group_size must be an integer, got {self.group_size!r}")
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


def _check_reads(reads: tuple[int, ...], src_len: int) -> None:
    """Every g an int in 1..src_len and never decreasing."""
    prev = 0
    for t, g in enumerate(reads, start=1):
        if type(g) is not int:  # no bool, and no float to truncate
            raise TraceError(f"g({t}) = {g!r} is not an integer")
        if g < 1 or g > src_len:
            raise TraceError(f"g({t}) = {g} outside 1..{src_len}")
        if g < prev:
            raise TraceError(f"reads not monotone at position {t}")
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
        if not isinstance(self.id, str) or not self.id:  # it names the session in every error
            raise TraceError("id must be a non-empty string")
        try:
            self._validate()
        except TraceError as exc:
            raise TraceError(f"{self.id}: {exc}") from None

    def _validate(self) -> None:
        if self.reference is not None and not isinstance(self.reference, str):
            raise TraceError("reference must be a string")
        if self.modality not in MODALITIES:
            raise TraceError(f"unknown modality {self.modality!r}")
        if self.timeline_kind not in TIMELINES:
            raise TraceError(f"unknown timeline {self.timeline_kind!r}")
        if len(self.reads) != len(self.target):
            raise TraceError(f"{len(self.reads)} reads for {len(self.target)} target tokens")
        if self.target and not self.source:
            raise TraceError("target tokens without source tokens")
        for side_name, side in (("source", self.source), ("target", self.target)):
            self._validate_side(side_name, side)
        _check_reads(self.reads, len(self.source))

    def _validate_side(self, side_name: str, side: TokenSide) -> None:
        side._check_lengths(side_name)
        starts, ends = side.start, side.end
        if self.timeline_kind != STEPS:
            try:  # a fully timed, finite side in order passes in one pass and a sort per column; None raises
                if not starts or (
                    starts[0] >= 0 and all(map(le, starts, ends)) and ends[-1] < math.inf
                    and sorted(starts) == list(starts) and sorted(ends) == list(ends)
                ):
                    return
            except TypeError:
                pass
            if None in starts:
                pos = starts.index(None) + 1
                raise TraceError(f"{side_name} token {pos} lacks times on a timed session")
        if starts.count(None) == len(side) == ends.count(None):  # no timed token to check
            return
        for pos, times in enumerate(zip(starts, ends), start=1):  # token by token, to name the first fault
            try:
                _check_times(*times)
            except TraceError as exc:
                raise TraceError(f"{side_name} token {pos}: {exc}") from None
        last = prev_start = prev_end = None  # the last timed token's position and times
        for pos, (start, end) in enumerate(zip(starts, ends), start=1):
            if start is not None:
                if last is not None and (start < prev_start or end < prev_end):
                    raise TraceError(f"{side_name} tokens {last},{pos} out of order")
                last, prev_start, prev_end = pos, start, end

    def _derived(self, **fields) -> SessionTrace:
        """This session with ``fields`` replaced, taken as given: for columns
        derived from this checked session by a rule that keeps them valid."""
        derived = object.__new__(SessionTrace)
        derived.__dict__.update(self.__dict__, **fields)
        return derived

    @property
    def src_len(self) -> int:
        return len(self.source)

    @property
    def tgt_len(self) -> int:
        return len(self.target)

    @property
    def is_timed(self) -> bool:
        return self.timeline_kind != STEPS


def _split_chunks(
    starts: Sequence[float], ends: Sequence[float], tau: float, target: bool = False
) -> tuple[list[float], list[float], list[int]]:
    """Sub-token starts and ends of consecutive speech chunks, one per ``tau``
    ms, and each chunk's number of pieces.

    A chunk's pieces are [start + i*tau, start + (i+1)*tau) except the last,
    which ends exactly at the chunk's end.  Each chunk in turn is rejected if
    it has no duration, if a source chunk starts before the chunk before it
    ends, if it would take its side past ``MAX_SUBTOKENS_PER_SIDE``, or if a
    ``target`` chunk's first piece would come before the last piece so far.

    The checks need only the counts and the last piece, so the pieces are
    built after them, in one pass.
    """
    counts = []
    before = 0  # pieces so far; the last of them spans [last_start, last_end)
    last_start = last_end = None
    for start, end in zip(starts, ends):
        if end <= start:
            raise TraceError(f"segment [{start}, {end}) has no duration")
        if not target and before and start < last_end:
            raise TraceError(f"segment starting at {start} overlaps previous chunk")
        pieces = (end - start) / tau
        room = MAX_SUBTOKENS_PER_SIDE - before
        if not pieces <= room:  # also refuses an infinite or NaN count
            raise TraceError(
                f"segment [{start}, {end}) would split into more than {room} sub-tokens of {tau} ms"
                + (f", the rest of the {MAX_SUBTOKENS_PER_SIDE} of its side" if before else "")
            )
        # the tolerance keeps exact multiples of tau from making a zero-length tail;
        # a chunk that outlasts a multiple by less gives the excess to its last piece.
        # The chunk has a duration, so the ceiling is at least 0 and `or 1` is max(1, .)
        count = math.ceil(pieces - 1e-9) or 1
        # pieces within a chunk are in order; target chunks that overlap may not be
        if target and before and (
            start < last_start or (end if count == 1 else start + tau) < last_end
        ):
            t = len(counts) + 1
            raise TraceError(f"target tokens {t - 1},{t} out of order once split into sub-segments")
        last_start = start if count == 1 else start + (count - 1) * tau
        last_end = end
        before += count
        counts.append(count)
    # a chunk that does not split keeps its start as given (an int, or -0.0, stays)
    piece_starts = [
        start + i * tau if count > 1 else start
        for start, count in zip(starts, counts)
        for i in range(count)
    ]
    # a piece ends where the next one starts, the last of a chunk where the chunk ends
    piece_ends = piece_starts[1:]
    piece_ends += ends[-1:]
    for k, end in zip(accumulate(counts), ends):
        piece_ends[k - 1] = end
    return piece_starts, piece_ends, counts


def chunk_ends_from_reads(reads: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """Output chunk boundaries implied by the read schedule.

    A new output chunk begins exactly when more source has been read, so
    chunks are the maximal runs of equal g.  Returns cumulative 1-based end
    indices partitioning the target list.
    """
    return tuple(accumulate(len(list(run)) for _, run in groupby(reads)))


def regroup_tokens(reads: tuple[int, ...] | list[int], gran: TokenGranularity) -> tuple[int, ...]:
    """``reads`` counted in ``gran`` units: under ``char:N`` each output chunk, a
    run of L equal g, becomes ceil(L/N) tokens that carry that g; words stay."""
    if gran.unit == WORD:
        return tuple(reads)
    size = gran.group_size
    runs = ((g, len(list(run))) for g, run in groupby(reads))
    return tuple(chain.from_iterable(repeat(g, -(-n // size)) for g, n in runs))


def _reference_length(reference: str | None, gran: TokenGranularity) -> int | None:
    """``reference`` counted in ``gran`` units: its words, or ceil(its non-space
    characters / N); None without one, or for a blank one."""
    if reference is None:
        return None
    if gran.unit == WORD:
        n = len(reference.split())
    else:
        n = -(-len("".join(reference.split())) // gran.group_size)
    return n or None


def _shift(column: tuple, offset: float) -> tuple:
    """Each time in ``column`` moved by ``offset``; None stays None."""
    return tuple(t if t is None else t + offset for t in column)


def _join_sides(a: TokenSide, b: TokenSide, offset: float) -> TokenSide:
    """``a`` followed by ``b``, b's times moved by ``offset``."""
    start, end = _shift(b.start, offset), _shift(b.end, offset)
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
    if mode == "relative":  # ends are non-negative, so 0.0 is the max of none; a unit-step end may be None
        offset = max((t for t in chain(a.source.end, a.target.end) if t is not None), default=0.0)

    source = _join_sides(a.source, b.source, offset)
    target = _join_sides(a.target, b.target, offset)
    reads = a.reads + tuple(map(add, b.reads, repeat(a.src_len)))

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
    """Re-express a timed speech session in sub-segment tokens; a text-to-text
    session, which has no speech to split, comes back as it is.

    Source chunks are split into tau-sized tokens and the read schedule is
    re-stated in sub-token units (the g of a target token becomes the total
    sub-token count of the source chunks it had read).  For speech-to-speech
    sessions the target chunks are split the same way, every sub-token of a
    chunk inheriting the chunk's g.  Splitting already-fine tokens is the
    identity, so the operation is idempotent.
    """
    if not s.is_timed:
        raise TraceError("unit-step session has no speech timeline")
    if s.modality == TEXT_TO_TEXT:
        return s
    if not s.source:
        raise TraceError("no input")

    tau = cfg.tau
    starts, ends, counts = _split_chunks(s.source.start, s.source.end, tau)
    source = TokenSide((None,) * len(starts), tuple(starts), tuple(ends))
    # totals[g-1] = number of sub-tokens covering the first g source chunks
    totals = list(accumulate(counts))
    reads = [totals[g - 1] for g in s.reads]

    target = s.target
    if s.modality == SPEECH_TO_SPEECH:
        starts, ends, counts = _split_chunks(target.start, target.end, tau, target=True)
        # every piece of a chunk inherits its g; a split chunk's pieces have no text
        texts = (text if n == 1 else None for text, n in zip(target.text, counts))
        texts = tuple(chain.from_iterable(map(repeat, texts, counts)))
        target = TokenSide(texts, tuple(starts), tuple(ends))
        reads = chain.from_iterable(map(repeat, reads, counts))

    # _split_chunks has checked what a split can break: durations, overlap, the bound, target order
    return s._derived(source=source, target=target, reads=tuple(reads))
