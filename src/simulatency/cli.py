"""Command-line interface.

Subcommands: ``eval`` scores trace files and emits CSV/JSON reports,
``simulate`` generates synthetic schedules, ``evs`` averages alignment
files, ``correlate`` runs Spearman's rho between report columns, and
``concat`` joins adjacent sessions into streaming-style traces.

Exit codes: 0 on success, 1 for usage errors, 2 for data errors (and for
warnings escalated by ``--strict``).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import logging
import math
import sys
from typing import Iterable, Sequence

from .core import (
    CA,
    NCA,
    STEPS,
    TEXT_TO_TEXT,
    SessionTrace,
    SubSegmentConfig,
    TokenGranularity,
    TraceError,
    WORD,
    chunk_ends_from_reads,
    concat_sessions,
    regroup_tokens,
    subsegment_session,
)
from .evs import EVS_MODES, VERIFIED_ONLY, dedupe_pairs, mean_evs
from .metrics_step import (
    RATIO_HYPOTHESIS,
    RATIO_LENGTH_ADAPTIVE,
    RATIO_REFERENCE,
    StepMetricInput,
    atd_steps,
    average_lagging,
    average_proportion,
    consecutive_wait,
    differentiable_average_lagging,
)
from .metrics_time import atd_timed, build_nca_timeline, end_offset, start_offset
from .sim import gen_chunk_k, gen_two_segment, gen_wait_k
from .stats import StatsError, spearman
from .trace_io import (
    TraceFormatError,
    read_alignments,
    read_lines,
    read_sessions,
    session_to_record,
)

logger = logging.getLogger("simulatency")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

# name -> (unit-step kernel of a StepMetricInput, wall-clock kernel of a timed
# session and the sub-segment config), None where the metric has no such form;
# in report column order.  The lambdas look the kernels up in this module when
# called, so that replacing a module attribute (as bench/tracer.py does to time
# each layer) takes effect.
METRICS = {
    "al": (lambda inp: average_lagging(inp, RATIO_HYPOTHESIS), None),
    "al_ref": (lambda inp: average_lagging(inp, RATIO_REFERENCE), None),
    "laal": (lambda inp: average_lagging(inp, RATIO_LENGTH_ADAPTIVE), None),
    "dal": (lambda inp: differentiable_average_lagging(inp), None),
    "ap": (lambda inp: average_proportion(inp), None),
    "cw": (lambda inp: consecutive_wait(inp), None),
    "atd": (
        lambda inp: atd_steps(inp),
        lambda s, cfg: atd_timed(s if s.modality == TEXT_TO_TEXT else subsegment_session(s, cfg)),
    ),
    "start_offset": (None, lambda s, cfg: start_offset(s)),
    "end_offset": (None, lambda s, cfg: end_offset(s)),
}
# left out of the default metric set of a session without a reference
NEEDS_REFERENCE = ("al_ref", "laal")
# the leading cells of an eval row: the CSV header and each JSON session's keys
_HEAD_FIELDS = ("id", "modality", "timeline", "src_len", "tgt_len")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class _WarningCounter(logging.Handler):
    def __init__(self) -> None:
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


def _parse_int_spec(spec: str) -> list[int]:
    """Parse "3", "1..20" or "1,5,9" into a list of ints."""
    values: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..", 1)
            values.extend(range(int(lo), int(hi) + 1))
        else:
            values.append(int(part))
    if not values:
        raise ValueError("empty range")
    seen: set[int] = set()
    for value in values:
        if value in seen:  # each value names a session, and ids must be unique
            raise ValueError(f"value {value} given twice in {spec!r}")
        seen.add(value)
    return values


@contextlib.contextmanager
def _output(path: str | None):
    """Stdout for None or "-", else ``path`` opened for writing and closed on exit."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as out:
            yield out


def _write_records(path: str | None, sessions: list[SessionTrace]) -> None:
    """JSONL records of ``sessions`` to ``path`` (stdout when None or "-")."""
    with _output(path) as out:
        for session in sessions:
            out.write(json.dumps(session_to_record(session), ensure_ascii=False) + "\n")


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _reference_length(reference: str | None, gran: TokenGranularity) -> int | None:
    if reference is None:
        return None
    if gran.unit == WORD:
        n = len(reference.split())
    else:
        n = math.ceil(len("".join(reference.split())) / gran.group_size)
    return n or None


def _step_input(session: SessionTrace, gran: TokenGranularity) -> StepMetricInput:
    target, reads = regroup_tokens(
        session.target, session.reads, gran, chunk_ends_from_reads(session.reads)
    )
    return StepMetricInput(
        reads=reads,
        src_len=session.src_len,
        tgt_len=len(target),
        ref_len=_reference_length(session.reference, gran),
    )


def _prepare_timed(session: SessionTrace, timeline: str | None) -> SessionTrace | str:
    """The session to use for timed metrics, or a reason string for skipping."""
    if session.timeline_kind == STEPS:
        return "unit-step session has no timed metrics"
    if timeline is None or timeline == session.timeline_kind:
        return session
    if timeline == STEPS:
        return "timed metrics disabled by --timeline steps"
    if timeline == NCA and session.timeline_kind == CA:
        try:
            return build_nca_timeline(session)
        except TraceError as exc:
            return str(exc)
    return f"cannot realize {timeline!r} timeline from {session.timeline_kind!r} trace"


def _in_ms(name: str, kind: str, timeline: str | None) -> bool:
    """Whether a session of timeline ``kind`` scores ``name`` with its wall-clock
    kernel, in ms: its only kernel, or one of two unless ``kind`` or ``timeline``
    is steps."""
    step, timed = METRICS[name]
    return timed is not None and (step is None or STEPS not in (kind, timeline))


def _eval_session(
    session: SessionTrace,
    metrics: list[str] | None,
    timeline: str | None,
    gran: TokenGranularity,
    subseg: SubSegmentConfig,
) -> dict[str, float]:
    if metrics is None:  # every metric the session's timeline has a kernel for
        on_steps = STEPS in (session.timeline_kind, timeline)
        metrics = [
            name
            for name, (step, timed) in METRICS.items()
            if (step if on_steps else timed) is not None
            and (session.reference is not None or name not in NEEDS_REFERENCE)
        ]
    values: dict[str, float] = {}
    step_inp: StepMetricInput | None = None
    timed: SessionTrace | str | None = None

    for name in metrics:
        try:
            if not _in_ms(name, session.timeline_kind, timeline):
                if step_inp is None:
                    step_inp = _step_input(session, gran)
                value = METRICS[name][0](step_inp)
            else:
                if timed is None:
                    timed = _prepare_timed(session, timeline)
                if isinstance(timed, str):
                    logger.warning("%s: skipping %s (%s)", session.id, name, timed)
                    continue
                value = METRICS[name][1](timed, subseg)
            if not math.isfinite(value):  # times near the float range overflow
                raise TraceError(f"value {value} is not finite")
            values[name] = value
        except TraceError as exc:
            logger.warning("%s: skipping %s (%s)", session.id, name, exc)
    return values


def _cells(
    values: dict[str, float], columns: list[str], kinds: Iterable[str], timeline: str | None
) -> list[str]:
    """Report cells: one decimal where sessions of every timeline in ``kinds``
    score the metric in ms, else full precision."""
    return [
        (f"{values[m]:.1f}" if all(_in_ms(m, k, timeline) for k in kinds) else repr(values[m]))
        if m in values
        else ""
        for m in columns
    ]


def _corpus_mean(values: list[float], name: str) -> float | None:
    """The mean of ``values``, or None if there are none or, with a warning,
    if the mean is not finite (a sum near the float range overflows)."""
    if not values:
        return None
    mean = sum(values) / len(values)
    if math.isfinite(mean):
        return mean
    logger.warning("corpus: skipping %s (mean of %d values is not finite)", name, len(values))
    return None


def cmd_eval(args: argparse.Namespace) -> int:
    metrics = args.metrics.split(",") if args.metrics else None
    unknown = [m or "''" for m in metrics or () if m not in METRICS]  # '' for an empty entry
    if unknown:
        raise SystemExit(_usage_error(args, f"unknown metrics: {', '.join(unknown)}"))
    gran = TokenGranularity.from_spec(args.granularity)
    subseg = SubSegmentConfig(tau=args.tau)
    sessions = read_sessions(args.traces)
    if not sessions:
        raise TraceError(f"{args.traces}: no sessions")

    rows = []  # (head, values): the row's _HEAD_FIELDS cells and its metric values
    for session in sessions:
        head = (
            session.id, session.modality, session.timeline_kind, session.src_len, session.tgt_len
        )
        rows.append((head, _eval_session(session, metrics, args.timeline, gran, subseg)))

    if metrics is not None:
        columns = [m for m in METRICS if m in metrics]
    else:
        columns = [m for m in METRICS if any(m in values for _, values in rows)]
    kinds = {head[2] for head, _ in rows}  # the sessions' timelines
    with _output(args.output) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow([*_HEAD_FIELDS, *columns])
        for head, values in rows:
            writer.writerow([*head, *_cells(values, columns, (head[2],), args.timeline)])
        means = {m: _corpus_mean([v[m] for _, v in rows if m in v], m) for m in columns}
        corpus = {m: mean for m, mean in means.items() if mean is not None}
        writer.writerow(["corpus", "", "", "", "", *_cells(corpus, columns, kinds, args.timeline)])

    if args.json:
        report = {
            "sessions": [
                {**dict(zip(_HEAD_FIELDS, head)), "metrics": values} for head, values in rows
            ],
            "corpus": {"n_sessions": len(rows), "metrics": corpus},
        }
        with open(args.json, "w", encoding="utf-8") as fp:
            json.dump(report, fp, ensure_ascii=False, indent=2)
            fp.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> int:
    if args.strategy == "two-segment":
        if not args.first_len:
            raise SystemExit(_usage_error(args, "two-segment requires --first-len"))
        sessions = [gen_two_segment(n) for n in _parse_int_spec(args.first_len)]
    else:
        if not args.k:
            raise SystemExit(_usage_error(args, f"{args.strategy} requires --k"))
        gen = gen_wait_k if args.strategy == "wait-k" else gen_chunk_k
        sessions = [gen(k, args.src_len, args.tgt_len) for k in _parse_int_spec(args.k)]

    _write_records(args.output, sessions)
    return EXIT_OK


# ---------------------------------------------------------------------------
# evs
# ---------------------------------------------------------------------------

def cmd_evs(args: argparse.Namespace) -> int:
    alignments = read_alignments(args.alignments)
    if not alignments:
        raise TraceError(f"{args.alignments}: no sentences")
    with _output(args.output) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["id", "n_links", "n_used", "mean_evs"])
        means = []
        for sentence_id, links in alignments:
            unique, dupes = dedupe_pairs(links)
            if dupes:
                logger.warning("%s: %d duplicate links dropped", sentence_id, dupes)
            used = len(unique.select(args.mode))
            value = mean_evs(unique, args.mode)
            if value is not None and not math.isfinite(value):  # spans near the float range
                logger.warning("%s: skipping mean_evs (value %s is not finite)", sentence_id, value)
                value = None
            if value is not None:
                means.append(value)
            cell = f"{value:.1f}" if value is not None else ""
            writer.writerow([sentence_id, len(links), used, cell])
        corpus = _corpus_mean(means, "mean_evs")
        writer.writerow(["corpus", "", "", f"{corpus:.1f}" if corpus is not None else ""])
    return EXIT_OK


# ---------------------------------------------------------------------------
# correlate
# ---------------------------------------------------------------------------

def _read_csv_columns(path: str) -> list[dict]:
    reader = csv.DictReader(line for _, line in read_lines(path))
    try:
        return [row for row in reader if row.get("id") != "corpus"]
    except csv.Error as exc:
        raise TraceFormatError(f"line {reader.reader.line_num}: {exc}") from None


def _rows_by_id(path: str) -> dict[str | None, dict]:
    rows: dict[str | None, dict] = {}
    for row in _read_csv_columns(path):
        if rows.setdefault(row.get("id"), row) is not row:
            raise TraceError(f"{path}: duplicate id {row.get('id')!r}")
    return rows


def _as_float(text: str | None) -> float | None:
    if text is None or text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return None


def cmd_correlate(args: argparse.Namespace) -> int:
    if args.join:  # a repeated id would leave the join ambiguous
        joined = _rows_by_id(args.join)
        rows = [
            {**row, **joined[key]} for key, row in _rows_by_id(args.report).items() if key in joined
        ]
    else:
        rows = _read_csv_columns(args.report)
    col_a = [_as_float(row.get(args.col_a)) for row in rows]
    col_b = [_as_float(row.get(args.col_b)) for row in rows]
    result = spearman(col_a, col_b)
    print(f"rho={result.rho:.6f} p={result.pvalue:.6f} n={result.n}")
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fp:
            writer = csv.writer(fp, lineterminator="\n")
            writer.writerow(["col_a", "col_b", "rho", "p", "n"])
            writer.writerow(
                [args.col_a, args.col_b, repr(result.rho), repr(result.pvalue), result.n]
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# concat
# ---------------------------------------------------------------------------

def cmd_concat(args: argparse.Namespace) -> int:
    sessions = read_sessions(args.traces)
    if len(sessions) < 2:
        raise TraceError(f"{args.traces}: need at least two sessions to concatenate")
    if args.pairing == "adjacent":
        pairs = list(zip(sessions[0::2], sessions[1::2]))
        if len(sessions) % 2:
            logger.warning("odd session count: %s left unpaired", sessions[-1].id)
    else:
        pairs = list(zip(sessions, sessions[1:]))
    joined = [concat_sessions(a, b, mode=args.shift) for a, b in pairs]
    _write_records(args.output, joined)
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _usage_error(args: argparse.Namespace, message: str) -> int:
    print(f"simulatency {args.command}: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="simulatency", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="score a JSONL trace file")
    p_eval.add_argument("traces", help="JSONL trace file")
    p_eval.add_argument("--metrics", help=f"comma-separated subset of: {','.join(METRICS)}")
    p_eval.add_argument("--tau", type=float, default=300.0, help="sub-segment length in ms (default 300)")
    p_eval.add_argument("--granularity", default="word", help="word or char:N (default word)")
    p_eval.add_argument("--timeline", choices=[CA, NCA, STEPS], help="evaluate on this timeline instead of each record's own")
    p_eval.add_argument("--strict", action="store_true", help="treat warnings as errors")
    p_eval.add_argument("--output", "-o", help="CSV report path (default stdout)")
    p_eval.add_argument("--json", help="also write a JSON report to this path")
    p_eval.set_defaults(func=cmd_eval)

    p_sim = sub.add_parser("simulate", help="generate synthetic schedules")
    p_sim.add_argument("--strategy", required=True, choices=["wait-k", "chunk-k", "two-segment"])
    p_sim.add_argument("--k", help='k values: "3", "1..20" or "1,5,9"')
    p_sim.add_argument("--first-len", help="first output chunk lengths for two-segment, same syntax")
    p_sim.add_argument("--src-len", type=int, default=20)
    p_sim.add_argument("--tgt-len", type=int, default=20)
    p_sim.add_argument("--output", "-o", help="JSONL path (default stdout)")
    p_sim.set_defaults(func=cmd_simulate)

    p_evs = sub.add_parser("evs", help="mean ear-voice span from alignment files")
    p_evs.add_argument("alignments", help="JSONL alignment file")
    p_evs.add_argument("--mode", choices=list(EVS_MODES), default=VERIFIED_ONLY)
    p_evs.add_argument("--strict", action="store_true", help="treat warnings as errors")
    p_evs.add_argument("--output", "-o", help="CSV path (default stdout)")
    p_evs.set_defaults(func=cmd_evs)

    p_corr = sub.add_parser("correlate", help="Spearman's rho between report columns")
    p_corr.add_argument("report", help="CSV report")
    p_corr.add_argument("--col-a", required=True)
    p_corr.add_argument("--col-b", required=True)
    p_corr.add_argument("--join", help="second CSV joined on the id column")
    p_corr.add_argument("--output", "-o", help="write the result as CSV")
    p_corr.set_defaults(func=cmd_correlate)

    p_cat = sub.add_parser("concat", help="concatenate session pairs")
    p_cat.add_argument("traces", help="JSONL trace file")
    p_cat.add_argument("--pairing", choices=["adjacent", "sliding"], default="adjacent")
    p_cat.add_argument("--shift", choices=["relative", "absolute"], default="relative")
    p_cat.add_argument("--strict", action="store_true", help="treat warnings as errors")
    p_cat.add_argument("--output", "-o", help="JSONL path (default stdout)")
    p_cat.set_defaults(func=cmd_concat)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    counter = _WarningCounter()
    root = logging.getLogger()
    root.addHandler(counter)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
    except (TraceFormatError, TraceError, StatsError, OSError) as exc:
        print(f"simulatency: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:  # bad flag values (granularity, tau, ranges)
        print(f"simulatency: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        return int(exc.code or 0)
    finally:
        root.removeHandler(counter)
    if code == EXIT_OK and getattr(args, "strict", False) and counter.count:
        print(
            f"simulatency: error: {counter.count} warnings escalated by --strict",
            file=sys.stderr,
        )
        return EXIT_DATA
    return code


if __name__ == "__main__":
    sys.exit(main())
