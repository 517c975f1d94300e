"""Traced in-process run: per-layer self times and counts.

The program is not instrumented.  For the duration of one run, the names
that ``simulatency.cli`` and ``simulatency.trace_io`` look up are replaced
with timing wrappers from this file, so every call from the CLI into a
layer's public function records a span: name, start, end, parent span and
record id.  Spans are kept in memory and written out after the run.  A
layer's self time is its spans' duration minus the time their child spans
cover.  Counts are taken at the same boundaries, with the time spent taking
them excluded from the enclosing span.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import time
from collections import defaultdict

# (module, attribute, layer).  The span name is the wrapped function's own
# ``module.name``.  The ``cmd_*`` handlers and ``_eval_session`` together
# form ``cli``: their self time is dispatch plus report formatting and
# writing.  Building the step-metric input (chunk boundaries, regrouping and
# ``StepMetricInput`` with its second validation) is one layer.
PATCHES = (
    ("cli", "cmd_eval", "cli.self"),
    ("cli", "cmd_evs", "cli.self"),
    ("cli", "cmd_concat", "cli.self"),
    ("cli", "_eval_session", "cli.self"),
    ("cli", "read_sessions", "trace_io.read_sessions"),
    ("trace_io", "record_to_session", "trace_io.record_to_session"),
    ("cli", "session_to_record", "trace_io.session_to_record"),
    ("cli", "read_alignments", "trace_io.read_alignments"),
    ("cli", "subsegment_session", "core.subsegment_session"),
    ("cli", "concat_sessions", "core.concat_sessions"),
    ("cli", "build_nca_timeline", "metrics_time.build_nca_timeline"),
    ("cli", "atd_timed", "metrics_time.atd_timed"),
    ("cli", "start_offset", "metrics_time.offsets"),
    ("cli", "end_offset", "metrics_time.offsets"),
    ("cli", "chunk_ends_from_reads", "metrics_step.step_input"),
    ("cli", "regroup_tokens", "metrics_step.step_input"),
    ("cli", "StepMetricInput", "metrics_step.step_input"),
    ("cli", "average_lagging", "metrics_step.al"),
    ("cli", "differentiable_average_lagging", "metrics_step.dal"),
    ("cli", "average_proportion", "metrics_step.ap"),
    ("cli", "consecutive_wait", "metrics_step.cw"),
    ("cli", "atd_steps", "metrics_step.atd_steps"),
    ("cli", "dedupe_pairs", "evs.dedupe_pairs"),
    ("cli", "mean_evs", "evs.mean_evs"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in PATCHES))

COUNTS = ("trace_io.records", "trace_io.tokens", "cli.warnings", "cli.empty_cells")


class _Frame:
    __slots__ = ("index", "children")

    def __init__(self, index: int) -> None:
        self.index = index
        self.children = 0.0  # seconds covered by child spans and by counting


class _WarningCount(logging.Handler):
    def __init__(self, tracer: "Tracer") -> None:
        super().__init__(level=logging.WARNING)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        self.tracer.counts["cli.warnings"] += 1


class Tracer:
    """Spans and counts of one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []  # (name, start, end, parent, record id)
        self.stack: list[_Frame] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.record_ids: dict[int, str] = {}  # id() of a links tuple -> sentence id
        self.subtokens_in = 0
        self.subtokens_out = 0
        self.links_read = 0
        self.links_used = 0

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn, layer: str):
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
        record_of = _RECORD_OF.get(fn.__name__)
        count = _COUNT_AFTER.get(fn.__name__)

        def traced(*args, **kwargs):
            rid = record_of(self, args) if record_of else None
            parent = self.stack[-1] if self.stack else None
            if rid is None and parent is not None:
                rid = self.spans[parent.index][4]
            frame = _Frame(len(self.spans))
            self.spans.append((name, 0.0, 0.0, parent and parent.index, rid))
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.self_time[layer] += end - start - frame.children
                self.spans[frame.index] = (name, start, end, parent and parent.index, rid)
                if parent is not None:
                    parent.children += end - start
            if count is not None:
                count(self, args, result, rid)
                if parent is not None:
                    parent.children += time.perf_counter() - end
            return result

        return traced

    def install(self, modules: dict) -> list:
        """Patch the modules; returns what ``restore`` needs."""
        saved = []
        for mod, attr, layer in PATCHES:
            fn = getattr(modules[mod], attr)
            saved.append((modules[mod], attr, fn))
            setattr(modules[mod], attr, self.wrap(fn, layer))
        handler = _WarningCount(self)
        logging.getLogger("simulatency").addHandler(handler)
        saved.append((None, None, handler))
        return saved

    @staticmethod
    def restore(saved: list) -> None:
        for module, attr, original in saved:
            if module is None:
                logging.getLogger("simulatency").removeHandler(original)
            else:
                setattr(module, attr, original)

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        out = {f"{layer}_s": self.self_time.get(layer, 0.0) for layer in LAYERS}
        out["core.subtokens_per_token"] = (
            self.subtokens_out / self.subtokens_in if self.subtokens_in else 0.0
        )
        out["evs.useful_link_ratio"] = (
            self.links_used / self.links_read if self.links_read else 0.0
        )
        for name in COUNTS:
            out[name] = self.counts[name]
        return out

    def write_spans(self, path: str, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            for index, (name, start, end, parent, rid) in enumerate(self.spans):
                fp.write(json.dumps({
                    "span": index, "name": name, "parent": parent, "record": rid,
                    "start_s": round(start - origin, 9), "end_s": round(end - origin, 9),
                }) + "\n")


# -- record ids and counts, keyed by the wrapped function's name ------------

def _session_id(tracer: Tracer, args) -> str | None:
    return getattr(args[0], "id", None)


def _links_id(tracer: Tracer, args) -> str | None:
    return tracer.record_ids.get(id(args[0]))


_RECORD_OF = {
    "record_to_session": lambda tracer, args: args[0].get("id") if isinstance(args[0], dict) else None,
    "_eval_session": _session_id,
    "subsegment_session": _session_id,
    "build_nca_timeline": _session_id,
    "atd_timed": _session_id,
    "start_offset": _session_id,
    "end_offset": _session_id,
    "session_to_record": _session_id,
    "concat_sessions": lambda tracer, args: f"{args[0].id}+{args[1].id}",
    "dedupe_pairs": _links_id,
    "mean_evs": _links_id,
}


def _count_sessions(tracer: Tracer, args, sessions, rid) -> None:
    tracer.counts["trace_io.records"] += len(sessions)
    tracer.counts["trace_io.tokens"] += sum(len(s.source) + len(s.target) for s in sessions)


def _count_alignments(tracer: Tracer, args, alignments, rid) -> None:
    tracer.counts["trace_io.records"] += len(alignments)
    n_links = sum(len(links) for _, links in alignments)
    tracer.links_read += n_links
    tracer.counts["trace_io.tokens"] += n_links
    for sentence_id, links in alignments:
        tracer.record_ids[id(links)] = sentence_id


def _count_subsegment(tracer: Tracer, args, session, rid) -> None:
    tracer.subtokens_in += len(args[0].source) + len(args[0].target)
    tracer.subtokens_out += len(session.source) + len(session.target)


def _note_unique(tracer: Tracer, args, result, rid) -> None:
    # mean_evs receives the deduplicated tuple, a new object
    tracer.record_ids[id(result[0])] = rid


def _count_used_links(tracer: Tracer, args, mean, rid) -> None:
    mode = args[1] if len(args) > 1 else "verified-only"
    if mean is not None:
        tracer.links_used += sum(1 for p in args[0] if p.verified or mode != "verified-only")


_COUNT_AFTER = {
    "read_sessions": _count_sessions,
    "read_alignments": _count_alignments,
    "subsegment_session": _count_subsegment,
    "dedupe_pairs": _note_unique,
    "mean_evs": _count_used_links,
}


def empty_cells(csv_text: str, first_metric_column: int) -> int:
    """Empty metric cells in a CSV report, corpus row included."""
    return sum(
        1
        for row in list(csv.reader(io.StringIO(csv_text)))[1:]
        for cell in row[first_metric_column:]
        if cell == ""
    )
