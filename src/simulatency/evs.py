"""Ear-voice span from word alignments and word timestamps.

The alignment links come from an upstream pipeline (automatic aligner plus a
human pass that marks the correct links); this module only averages them.
One target word aligned to several source words contributes one span per
link.  No linguistic filtering happens here: excluding stop words is the
annotator's job.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress
from typing import Iterable

from .core import TraceError, _Columns, _number

VERIFIED_ONLY = "verified-only"
AUTOMATIC = "automatic"
EVS_MODES = (VERIFIED_ONLY, AUTOMATIC)


@dataclass(frozen=True)
class AlignedPair:
    """One (source word, target word) alignment link with start timestamps."""

    src_index: int
    tgt_index: int
    src_start: float  # ms
    tgt_start: float  # ms
    verified: bool = False

    def __post_init__(self) -> None:
        try:  # 1-based indices, where they compare (NaN does not pass); one that does not is named below
            bounded = self.src_index >= 1 and self.tgt_index >= 1
        except TypeError:
            bounded = True
        if not bounded:
            raise TraceError(f"alignment indices must be >= 1, got ({self.src_index}, {self.tgt_index})")
        for what, index in (("src", self.src_index), ("tgt", self.tgt_index)):
            if type(index) is not int:  # no bool, and no float to truncate
                raise TraceError(f"{what} must be an integer, got {index!r}")
        _number(self.src_start, "src_start")
        _number(self.tgt_start, "tgt_start")
        if not (self.src_start >= 0 and self.tgt_start >= 0):  # also refuses NaN
            raise TraceError("alignment start times must be non-negative")
        if type(self.verified) is not bool:
            raise TraceError("verified must be a boolean")


@dataclass(frozen=True, eq=False)
class AlignmentLinks(_Columns):
    """The links of one sentence, as five columns of ``AlignedPair`` fields.

    The reader gives the start times as ``array('d')``, with no float object
    a link; ``of`` keeps the pairs' own values.  The columns must be equally
    long.
    """

    src: tuple[int, ...] = ()
    tgt: tuple[int, ...] = ()
    src_start: Sequence[float] = ()
    tgt_start: Sequence[float] = ()
    verified: tuple[bool, ...] = ()

    _item = AlignedPair

    def __post_init__(self) -> None:
        self._check_lengths("link")


def _unique(links: AlignmentLinks) -> tuple[dict, set]:
    """The ``(src, tgt, src_start, tgt_start)`` keys of ``links`` in the order
    they first occur, and the set of the keys that some verified link has."""
    keys = list(zip(links.src, links.tgt, links.src_start, links.tgt_start))
    return dict.fromkeys(keys), set(compress(keys, links.verified))


def _tally(links: AlignmentLinks, mode: str) -> tuple[int, int, float | None]:
    """One walk of a sentence's links: the number of duplicates, the number of
    unique links that ``mode`` averages, and their mean span (None if none),
    summed in the order the links first occur."""
    if mode not in EVS_MODES:
        raise ValueError(f"unknown EVS mode {mode!r}")
    keys, verified = _unique(links)
    used = keys if mode == AUTOMATIC else [key for key in keys if key in verified]
    mean = sum(tgt_start - src_start for _, _, src_start, tgt_start in used) / len(used) if used else None
    return len(links) - len(keys), len(used), mean


def dedupe_pairs(pairs: Iterable[AlignedPair]) -> tuple[AlignmentLinks, int]:
    """Drop duplicate links, returning (unique links, duplicate count).

    Links are duplicates when their indices and start times are equal,
    whatever their ``verified`` flags.  The first of them is kept, verified
    if any of them is.  Links with no duplicates, its own output among them,
    are given back as they are, with 0.
    """
    links = AlignmentLinks.of(pairs)
    keys, verified = _unique(links)
    if len(keys) == len(links):
        return links, 0
    return AlignmentLinks(*zip(*(key + (key in verified,) for key in keys))), len(links) - len(keys)


def mean_evs(pairs: Iterable[AlignedPair], mode: str = VERIFIED_ONLY) -> float | None:
    """Mean ear-voice span over alignment links, in milliseconds.

    ``verified-only`` averages only human-confirmed links; ``automatic``
    averages every link, wrong ones included.  Returns None when the selected
    link set is empty (such sentences are dropped from corpus statistics, not
    scored as zero).  Negative spans are averaged as-is.
    """
    return _tally(AlignmentLinks.of(pairs), mode)[2]
