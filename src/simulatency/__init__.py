"""Latency evaluation for simultaneous translation.

Scores read/write session traces with the usual step-based latency metrics
(AL and its reference/length-adaptive variants, DAL, AP, CW), the token-delay
metric ATD on both unit-step and wall-clock timelines, start/end offsets, and
mean ear-voice span from word alignments; ships a schedule simulator and
Spearman correlation for comparing metrics against each other.
"""

from .core import (
    CA,
    CHARACTER_GROUP,
    MODALITIES,
    NCA,
    SPEECH_TO_SPEECH,
    SPEECH_TO_TEXT,
    STEPS,
    TEXT_TO_TEXT,
    TIMELINES,
    WORD,
    ComputationSpan,
    SessionTrace,
    SubSegmentConfig,
    TimedToken,
    TokenGranularity,
    TraceError,
    chunk_ends_from_reads,
    concat_sessions,
    regroup_tokens,
    subsegment_session,
)
from .evs import AUTOMATIC, VERIFIED_ONLY, AlignedPair, dedupe_pairs, mean_evs
from .metrics_step import (
    RATIO_HYPOTHESIS,
    RATIO_LENGTH_ADAPTIVE,
    RATIO_REFERENCE,
    StepMetricInput,
    atd_steps,
    average_lagging,
    average_proportion,
    consecutive_wait,
    corresponding_input_indices,
    cutoff_step,
    dal_adjusted_reads,
    differentiable_average_lagging,
)
from .metrics_time import atd_timed, build_nca_timeline, end_offset, start_offset
from .sim import gen_chunk_k, gen_two_segment, gen_wait_k
from .stats import SpearmanResult, StatsError, spearman
from .trace_io import (
    TraceFormatError,
    read_alignments,
    read_sessions,
    record_to_session,
    session_to_record,
)

__version__ = "0.1.0"

__all__ = [
    "AUTOMATIC",
    "AlignedPair",
    "CA",
    "CHARACTER_GROUP",
    "ComputationSpan",
    "MODALITIES",
    "NCA",
    "RATIO_HYPOTHESIS",
    "RATIO_LENGTH_ADAPTIVE",
    "RATIO_REFERENCE",
    "SessionTrace",
    "SpearmanResult",
    "SPEECH_TO_SPEECH",
    "SPEECH_TO_TEXT",
    "STEPS",
    "StatsError",
    "StepMetricInput",
    "SubSegmentConfig",
    "TEXT_TO_TEXT",
    "TIMELINES",
    "TimedToken",
    "TokenGranularity",
    "TraceError",
    "TraceFormatError",
    "VERIFIED_ONLY",
    "WORD",
    "atd_steps",
    "atd_timed",
    "average_lagging",
    "average_proportion",
    "build_nca_timeline",
    "chunk_ends_from_reads",
    "concat_sessions",
    "consecutive_wait",
    "corresponding_input_indices",
    "cutoff_step",
    "dal_adjusted_reads",
    "dedupe_pairs",
    "differentiable_average_lagging",
    "end_offset",
    "gen_two_segment",
    "gen_chunk_k",
    "gen_wait_k",
    "mean_evs",
    "read_alignments",
    "read_sessions",
    "record_to_session",
    "regroup_tokens",
    "session_to_record",
    "spearman",
    "start_offset",
    "subsegment_session",
]
