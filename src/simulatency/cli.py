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
import errno
import json
import logging
import math
import os
import sys
from typing import Iterable, Sequence

from .core import (
    CA,
    NCA,
    STEPS,
    TEXT_TO_TEXT,
    TIMELINES,
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
from .evs import EVS_MODES, VERIFIED_ONLY, _tally
from .evs import dedupe_pairs, mean_evs  # unused, but bench/tracer.py patches them
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
from .trace_io import (  # read_alignments is unused, but bench/tracer.py patches it
    TraceFormatError,
    iter_alignments,
    iter_sessions,
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


class _Warnings(logging.StreamHandler):
    """The warnings of one ``main`` call: counted, for --strict, and printed to
    stderr unless ``quiet`` (a root handler shows them then)."""

    def __init__(self, quiet: bool) -> None:
        super().__init__(sys.stderr)
        self.setLevel(logging.WARNING)
        self.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
        self.quiet, self.count = quiet, 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1
        if not self.quiet:
            super().emit(record)


def _parse_int_spec(spec: str) -> list[int]:
    """Parse "3", "1..20" or "1,5,9" into a list of ints; every part gives one."""
    values: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..", 1)
            span = range(int(lo), int(hi) + 1)
            if not span:
                raise ValueError(f"empty range {part!r} in {spec!r}")
            values.extend(span)
        else:
            values.append(int(part))
    seen: set[int] = set()
    for value in values:
        if value in seen:  # each value names a session, and ids must be unique
            raise ValueError(f"value {value} given twice in {spec!r}")
        seen.add(value)
    return values


@contextlib.contextmanager
def _output(path: str | None):
    """Stdout for None or "-"; ``path`` itself, written as it goes, if it is a link
    or a special file (a pipe, a device); else a file written beside ``path`` and
    moved over it on exit, so a run that fails leaves ``path`` as it was."""
    if path is None or path == "-":
        yield sys.stdout
    elif _in_place(path):
        with open(path, "w", encoding="utf-8", newline="") as out:
            yield out
    else:
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            if not path:  # names no file to move over: fail before one is made
                raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT))
            out = open(tmp, "x", encoding="utf-8", newline="")  # the mode a new path would get
        except OSError as exc:  # named by the path asked for, not the temporary one
            raise OSError(exc.errno, exc.strerror, path) from None
        try:
            with out:
                yield out
            if os.path.exists(path):
                os.chmod(tmp, os.stat(path).st_mode & 0o7777)
            try:
                os.replace(tmp, path)
            except OSError as exc:  # in a sticky directory, say, a file of another user
                raise OSError(exc.errno, exc.strerror, path) from None
        except BaseException:
            os.remove(tmp)
            raise


def _in_place(path: str) -> bool:
    """Whether ``_output(path)`` writes ``path`` in place: a link or a special file."""
    return os.path.islink(path) or os.path.exists(path) and not os.path.isfile(path)


def _refuse_in_place_input(args: argparse.Namespace, source: str) -> None:
    """Exit 1 if ``-o`` names ``source`` and would be written in place, cutting it short."""
    if args.output not in (None, "-") and _in_place(args.output) and _same_file(args.output, source):
        raise SystemExit(_usage_error(args, "-o names the input and would overwrite it while it is read"))


def _same_file(a: str, b: str) -> bool:
    """Whether paths ``a`` and ``b`` name one file: by inode when both exist,
    else by their normalised absolute paths."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.abspath(a) == os.path.abspath(b)


def _write_records(path: str | None, sessions: Iterable[SessionTrace]) -> None:
    """JSONL records of ``sessions`` to ``path`` (stdout when None or "-"), each
    written before the next session is taken; ``path`` is opened after the first,
    and a file is replaced only once every record is written, so a session that
    fails leaves it untouched."""
    encode = json.JSONEncoder(ensure_ascii=False, check_circular=False).encode  # fresh: no cycles
    lines = (encode(session_to_record(session)) + "\n" for session in sessions)
    first = next(lines, "")
    with _output(path) as out:
        out.write(first)
        out.flush()  # the first record leaves even if out is buffered
        out.writelines(lines)


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
    reads, tgt_len = session.reads, session.tgt_len  # regrouping words is the identity
    if gran.unit != WORD:
        target, reads = regroup_tokens(session.target, reads, gran, chunk_ends_from_reads(reads))
        tgt_len = len(target)
    return StepMetricInput(
        reads=reads,
        src_len=session.src_len,
        tgt_len=tgt_len,
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


def _default_metrics(on_steps: bool, has_reference: bool) -> list[str]:
    """What a session scores without --metrics: every metric its timeline (unit
    steps if ``on_steps``) has a kernel for, less NEEDS_REFERENCE without a reference."""
    return [
        name
        for name, (step, timed) in METRICS.items()
        if (step if on_steps else timed) is not None and (has_reference or name not in NEEDS_REFERENCE)
    ]


def _eval_session(
    session: SessionTrace,
    metrics: list[str] | None,
    timeline: str | None,
    gran: TokenGranularity,
    subseg: SubSegmentConfig,
) -> dict[str, float]:
    if metrics is None:
        metrics = _default_metrics(STEPS in (session.timeline_kind, timeline), session.reference is not None)
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
                    raise TraceError(timed)
                value = METRICS[name][1](timed, subseg)
            if not math.isfinite(value):  # times near the float range overflow
                raise TraceError(f"value {value} is not finite")
            values[name] = value
        except TraceError as exc:
            logger.warning("%s: skipping %s (%s)", session.id, name, exc)
    return values


def _cells(values: dict[str, float], columns: list[str], in_ms: Iterable[bool]) -> list[str]:
    """Report cells: one decimal in a column whose ``in_ms`` flag is set, else
    full precision; empty where ``values`` has none."""
    return [
        (f"{values[m]:.1f}" if ms else repr(values[m])) if m in values else ""
        for m, ms in zip(columns, in_ms)
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
    metrics = args.metrics.split(",") if args.metrics is not None else None
    unknown = [m or "''" for m in metrics or () if m not in METRICS]  # '' for an empty entry
    if unknown:
        raise SystemExit(_usage_error(args, f"unknown metrics: {', '.join(unknown)}"))
    repeated = [m for m in dict.fromkeys(metrics or ()) if metrics.count(m) > 1]
    if repeated:  # it would be scored, and warned about, once per mention
        raise SystemExit(_usage_error(args, f"repeated metrics: {', '.join(repeated)}"))
    if args.json == "-" and args.output in (None, "-"):
        raise SystemExit(_usage_error(args, "--json - needs -o FILE: the CSV goes to stdout"))
    if args.json not in (None, "-") and args.output not in (None, "-"):
        if _same_file(args.output, args.json):
            raise SystemExit(_usage_error(args, "-o and --json name the same file"))
    gran = TokenGranularity.from_spec(args.granularity)
    subseg = SubSegmentConfig(tau=args.tau)
    sessions = read_sessions(args.traces)
    if not sessions:
        raise TraceError(f"{args.traces}: no sessions")

    # The columns are the metrics scored, or all of --metrics; they are final once
    # every metric that some session may score has been scored.
    scored = set(metrics or ())
    may_score = set(scored)
    if metrics is None:  # the default set of each kind of session, built once
        keys = {(STEPS in (s.timeline_kind, args.timeline), s.reference is not None) for s in sessions}
        may_score.update(m for key in keys for m in _default_metrics(*key))
    rows = []  # (head, values): the row's _HEAD_FIELDS cells and its metric values
    ms_flags: dict[str, list[bool]] = {}  # per timeline, whether each column is in ms
    columns, written = None, 0  # written: rows in the CSV
    json_out = _output(args.json) if args.json is not None else contextlib.nullcontext()
    # both opened after the read, so -o may name the input, and before any session is scored
    with _output(args.output) as out, json_out as fp:
        writer = csv.writer(out, lineterminator="\n")

        def write(final: bool) -> None:  # the header once final, then the rows not yet written
            nonlocal columns, written
            if columns is None and final:
                columns = [m for m in METRICS if m in scored]
                ms_flags.update((k, [_in_ms(m, k, args.timeline) for m in columns]) for k in TIMELINES)
                writer.writerow([*_HEAD_FIELDS, *columns])
            if columns is not None:
                for head, values in rows[written:]:
                    writer.writerow([*head, *_cells(values, columns, ms_flags[head[2]])])
                if rows and not written:  # the first rows leave even if out is buffered
                    out.flush()
                written = len(rows)

        write(scored >= may_score)
        for session in sessions:
            head = (
                session.id, session.modality, session.timeline_kind, session.src_len, session.tgt_len
            )
            rows.append((head, _eval_session(session, metrics, args.timeline, gran, subseg)))
            scored.update(rows[-1][1])
            write(scored >= may_score)
        write(True)
        means = {m: _corpus_mean([v[m] for _, v in rows if m in v], m) for m in columns}
        corpus = {m: mean for m, mean in means.items() if mean is not None}
        # in ms where the sessions of every timeline present score the metric in ms
        corpus_ms = map(all, zip(*(ms_flags[k] for k in {head[2] for head, _ in rows})))
        writer.writerow(["corpus", "", "", "", "", *_cells(corpus, columns, corpus_ms)])
        if fp is not None:  # in one write, where json.dump makes one per encoder chunk
            objects = [{**dict(zip(_HEAD_FIELDS, head)), "metrics": values} for head, values in rows]
            report = {"sessions": objects, "corpus": {"n_sessions": len(rows), "metrics": corpus}}
            fp.write(json.dumps(report, ensure_ascii=False, indent=2) + "\n")
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
    _refuse_in_place_input(args, args.alignments)
    means = []

    def scored():  # each sentence's row, scored as it is read
        for sentence_id, links in iter_alignments(args.alignments):
            dupes, n_used, value = _tally(links, args.mode)
            if dupes:
                logger.warning("%s: %d duplicate links dropped", sentence_id, dupes)
            if value is not None and not math.isfinite(value):  # spans near the float range
                logger.warning("%s: skipping mean_evs (value %s is not finite)", sentence_id, value)
                value = None
            if value is not None:
                means.append(value)
            yield [sentence_id, len(links), n_used, f"{value:.1f}" if value is not None else ""]

    rows = scored()
    first = next(rows, None)
    if first is None:
        raise TraceError(f"{args.alignments}: no sentences")
    with _output(args.output) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerows([["id", "n_links", "n_used", "mean_evs"], first])
        out.flush()  # the header and the first row leave even if out is buffered
        writer.writerows(rows)
        corpus = _corpus_mean(means, "mean_evs")
        writer.writerow(["corpus", "", "", f"{corpus:.1f}" if corpus is not None else ""])
    return EXIT_OK


# ---------------------------------------------------------------------------
# correlate
# ---------------------------------------------------------------------------

def _read_csv_columns(path: str) -> tuple[list[str], list[dict]]:
    """The header of a CSV report and its rows but the corpus row."""
    reader = csv.DictReader(line for _, line in read_lines(path))
    try:
        return reader.fieldnames or [], [row for row in reader if row.get("id") != "corpus"]
    except csv.Error as exc:
        raise TraceFormatError(f"line {reader.reader.line_num}: {exc}") from None


def _rows_by_id(path: str) -> tuple[list[str], dict[str | None, dict]]:
    columns, rows = _read_csv_columns(path)
    by_id: dict[str | None, dict] = {}
    for row in rows:
        if by_id.setdefault(row.get("id"), row) is not row:
            raise TraceError(f"{path}: duplicate id {row.get('id')!r}")
    return columns, by_id


def _numbers(rows: list[dict], name: str) -> list[float | None]:
    """Column ``name`` of ``rows`` as floats: None for an empty cell and, with
    one warning for the column, for a cell that is not a number."""
    values: list[float | None] = []
    bad = 0
    for row in rows:
        try:
            values.append(float(row[name]) if row.get(name) else None)
        except ValueError:
            values.append(None)
            bad += 1
    if bad:
        logger.warning("column %r: %d cells are not numbers and are left out", name, bad)
    return values


def cmd_correlate(args: argparse.Namespace) -> int:
    joined_columns: list[str] = []
    if args.join is not None:  # a repeated id would leave the join ambiguous
        columns, report = _rows_by_id(args.report)
        joined_columns, joined = _rows_by_id(args.join)
        rows = [{**row, **joined[key]} for key, row in report.items() if key in joined]
    else:
        columns, rows = _read_csv_columns(args.report)
    for name in (args.col_a, args.col_b):
        if name in columns and name in joined_columns:  # a joined row holds one value of it
            raise TraceError(f"column {name!r} is in both {args.report} and {args.join}")
        if name not in columns and name not in joined_columns:
            files = f"{args.report} or {args.join}" if args.join else args.report
            raise TraceError(f"no column {name!r} in {files}")
    values = {name: _numbers(rows, name) for name in dict.fromkeys((args.col_a, args.col_b))}
    # opened after the read, so -o may name the report, and before the result is printed
    with _output(args.output) if args.output is not None else contextlib.nullcontext() as fp:
        result = spearman(values[args.col_a], values[args.col_b])
        print(f"rho={result.rho:.6f} p={result.pvalue:.6f} n={result.n}")
        if fp is not None:
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
    _refuse_in_place_input(args, args.traces)

    def joined():  # each pair joined once its second session is read; the one before it is kept
        n, prev = 0, None
        for n, session in enumerate(iter_sessions(args.traces), start=1):
            if n > 1 and (args.pairing == "sliding" or n % 2 == 0):
                yield concat_sessions(prev, session, mode=args.shift)
            prev = session
        if n < 2:
            raise TraceError(f"{args.traces}: need at least two sessions to concatenate")
        if args.pairing == "adjacent" and n % 2:
            logger.warning("odd session count: %s left unpaired", prev.id)

    _write_records(args.output, joined())
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
    p_eval.add_argument("--json", help="also write a JSON report to this path ('-': stdout)")
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
    # the handler, and a level that lets warnings through, live on the package
    # logger for this call only, so no state is left behind and --strict counts
    # whatever the root's level; a root handler, if any, shows the warnings
    level = logger.level
    logger.setLevel(min(logger.getEffectiveLevel(), logging.WARNING))
    warnings = _Warnings(quiet=bool(logging.getLogger().handlers))
    logger.addHandler(warnings)
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
        logger.removeHandler(warnings)
        logger.setLevel(level)
    if code == EXIT_OK and getattr(args, "strict", False) and warnings.count:
        print(
            f"simulatency: error: {warnings.count} warnings escalated by --strict",
            file=sys.stderr,
        )
        return EXIT_DATA
    return code


if __name__ == "__main__":
    sys.exit(main())
