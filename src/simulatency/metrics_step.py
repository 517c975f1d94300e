"""Step-based latency metrics computed from the read schedule alone.

Everything here needs only g(t), the source length and the target length
(plus a reference length for the reference-ratio variants), so these metrics
apply to any session regardless of timeline.

Conventions shared by the implementations:

* r is the length ratio |y|/|x| (or a reference-based variant for AL).
* The AL cut-off step is the first t with g(t) = |x|; when the translation
  stops before reading all input that step never exists and the cut-off
  falls back to |y|, matching common evaluation tooling.
* The ATD input index a(t) discounts the accumulated surplus of output
  tokens over matched input tokens, so verbose partial outputs keep pointing
  at the input they actually translate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import TraceError, _check_reads

RATIO_HYPOTHESIS = "hypothesis"
RATIO_REFERENCE = "reference"
RATIO_LENGTH_ADAPTIVE = "length-adaptive"
RATIO_MODES = (RATIO_HYPOTHESIS, RATIO_REFERENCE, RATIO_LENGTH_ADAPTIVE)


@dataclass(frozen=True)
class StepMetricInput:
    """Read schedule plus the lengths the step metrics need."""

    reads: tuple[int, ...]
    src_len: int
    tgt_len: int
    ref_len: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "reads", tuple(self.reads))
        if self.src_len < 1:
            raise TraceError(f"src_len must be >= 1, got {self.src_len}")
        if self.tgt_len < 1 or not self.reads:
            raise TraceError("empty reads: nothing was translated")
        if len(self.reads) != self.tgt_len:
            raise TraceError(f"{len(self.reads)} reads for tgt_len {self.tgt_len}")
        _check_reads(self.reads, self.src_len)
        if self.ref_len is not None and self.ref_len < 1:
            raise TraceError(f"ref_len must be >= 1, got {self.ref_len}")

    @classmethod
    def from_session(cls, session, ref_len: int | None = None) -> "StepMetricInput":
        return cls(
            reads=session.reads,
            src_len=session.src_len,
            tgt_len=session.tgt_len,
            ref_len=ref_len,
        )


def _length_ratio(inp: StepMetricInput, ratio_mode: str) -> float:
    if ratio_mode == RATIO_HYPOTHESIS:
        return inp.tgt_len / inp.src_len
    if ratio_mode not in RATIO_MODES:
        raise ValueError(f"unknown ratio mode {ratio_mode!r}")
    if inp.ref_len is None:
        raise TraceError(f"ratio mode {ratio_mode!r} requires a reference length")
    if ratio_mode == RATIO_REFERENCE:
        return inp.ref_len / inp.src_len
    return max(inp.tgt_len, inp.ref_len) / inp.src_len


def cutoff_step(inp: StepMetricInput) -> int:
    """First output step emitted after the whole source was read.

    Falls back to the target length when the translation finished early
    (g never reaches the source length).
    """
    for t, g in enumerate(inp.reads, start=1):
        if g == inp.src_len:
            return t
    return inp.tgt_len


def _lagging(schedule, r: float, cutoff: int) -> float:
    """Mean of schedule(t) minus the ideal diagonal (t-1)/r over t <= cutoff."""
    return sum(schedule[t] - t / r for t in range(cutoff)) / cutoff


def average_lagging(inp: StepMetricInput, ratio_mode: str = RATIO_HYPOTHESIS) -> float:
    """Average lagging: mean of g(t) minus the ideal diagonal, up to cut-off.

    ``ratio_mode`` selects r: the hypothesis ratio |y|/|x|, the reference
    ratio |y*|/|x|, or the length-adaptive max(|y|, |y*|)/|x|.  Can be
    negative when the translation ends well before the input does.
    """
    return _lagging(inp.reads, _length_ratio(inp, ratio_mode), cutoff_step(inp))


def _serialized_starts(triggers, durations):
    """Start of each serialized write, no earlier than its trigger or the end of
    the previous write: s(t) = max(trigger(t), s(t-1) + duration(t-1)), from 0."""
    free = 0.0
    for trigger, duration in zip(triggers, durations):
        start = max(trigger, free)
        yield start
        free = start + duration


def dal_adjusted_reads(inp: StepMetricInput) -> tuple[float, ...]:
    """The smoothed schedule g'(t) used by DAL.

    Each write advances the schedule by at least one diagonal step of
    |x|/|y| source tokens, so a long output keeps paying for the time it
    occupies: g'(t) = max(g(t), g'(t-1) + |x|/|y|).
    """
    steps = [inp.src_len / inp.tgt_len] * inp.tgt_len
    return tuple(_serialized_starts(map(float, inp.reads), steps))


def differentiable_average_lagging(inp: StepMetricInput) -> float:
    """DAL: average lagging over the smoothed schedule, with no cut-off."""
    return _lagging(dal_adjusted_reads(inp), inp.tgt_len / inp.src_len, inp.tgt_len)


def average_proportion(inp: StepMetricInput) -> float:
    """AP: mean fraction of the source read per output token, in (0, 1]."""
    return sum(inp.reads) / (inp.src_len * inp.tgt_len)


def consecutive_wait(inp: StepMetricInput) -> float:
    """CW: mean length of the consecutive read bursts between writes."""
    prev = 0
    bursts = 0
    for g in inp.reads:
        if g > prev:
            bursts += 1
        prev = g
    return inp.src_len / bursts


def corresponding_input_indices(reads: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """The input index a(t) matched to each output token by ATD.

    a(t) = min(a(t-1) + 1, g(t)), so the surplus of output over matched
    input accumulates: tokens after a verbose chunk stay matched to the
    input that triggered it.
    """
    a = 0
    out: list[int] = []
    for g in reads:
        a = min(a + 1, g)
        out.append(a)
    return tuple(out)


def _token_delay(source_ends, target_ends, reads) -> float:
    """ATD, the mean of T(y_t) - T(x_a(t)), from the end times of the tokens."""
    matches = corresponding_input_indices(reads)
    delays = [end - source_ends[a - 1] for end, a in zip(target_ends, matches)]
    return sum(delays) / len(delays)


def atd_steps(inp: StepMetricInput) -> float:
    """Average token delay on the unit-step timeline.

    Each input and output token spends one step; reading and writing may
    proceed in parallel but writes are serialized and cannot start before
    the read that triggered them: T(x_j) = j and
    T(y_t) = max(T(x_g(t)), T(y_{t-1})) + 1.
    The metric is the mean of T(y_t) - T(x_a(t)): the wall-clock ATD on a
    clock where every token lasts one step.
    """
    ends = [s + 1.0 for s in _serialized_starts(inp.reads, [1.0] * inp.tgt_len)]
    return _token_delay(range(1, inp.src_len + 1), ends, inp.reads)
