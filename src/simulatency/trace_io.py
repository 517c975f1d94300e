"""JSONL trace and alignment file formats.

One JSON object per line so large corpora stream.  Trace records look like::

    {"id": "s1", "modality": "speech-to-speech", "timeline": "ca",
     "source": [{"text": "hello", "start": 0, "end": 250}, ...],
     "target": [{"text": "...", "start": 1400, "end": 2000, "g": 2}, ...],
     "reference": "reference translation",
     "spans": [{"kind": "decode", "start": 1000, "end": 1400}],
     "meta": {...}}

Times are integer milliseconds and required unless the timeline is "steps";
``g`` counts source entries read before the target entry was emitted.
``meta`` is accepted and ignored.  Alignment records carry per-sentence
word-alignment links::

    {"id": "s1", "links": [{"src": 1, "tgt": 2, "src_start": 0,
                            "tgt_start": 3300, "verified": true}]}
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator

from .core import (
    STEPS,
    TIMELINES,
    ComputationSpan,
    SessionTrace,
    TokenSide,
    TraceError,
    _check_times,
)
from .evs import AlignedPair, AlignmentLinks, _check_link


class TraceFormatError(TraceError):
    """A trace or alignment file does not match the wire format."""


def _context(lineno: int | None) -> str:
    return f"line {lineno}: " if lineno is not None else ""


def _require(obj: dict, key: str, lineno: int | None):
    if key not in obj:
        raise TraceFormatError(f"{_context(lineno)}missing field {key!r}")
    return obj[key]


def _int_ms(value, what: str, lineno: int | None) -> float:
    if type(value) is int and value >= 0:
        try:
            return float(value)
        except OverflowError:  # more than 308 digits
            raise TraceFormatError(f"{_context(lineno)}{what} is too large") from None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TraceFormatError(f"{_context(lineno)}{what} must be a number, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise TraceFormatError(f"{_context(lineno)}{what} must be integer milliseconds")
    if value < 0:
        raise TraceFormatError(f"{_context(lineno)}{what} must be non-negative")
    return float(value)


def _require_list(obj: dict, key: str, lineno: int | None) -> list:
    value = _require(obj, key, lineno)
    if not isinstance(value, list):
        raise TraceFormatError(f"{_context(lineno)}{key} must be a JSON array")
    return value


def _int_index(value, what: str, lineno: int | None) -> int:
    """An integer, or an integer-valued float; never a bool (as in ``_int_ms``)."""
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise TraceFormatError(f"{_context(lineno)}{what} must be an integer, got {value!r}")


def _parse_side(
    record: dict, what: str, timed: bool, lineno: int | None, reads: list[int] | None = None
) -> TokenSide:
    """The ``what`` entries of a record as columns; with ``reads``, each
    entry's ``g`` is appended to it."""
    texts, starts, ends = [], [], []
    for pos, obj in enumerate(_require_list(record, what, lineno), start=1):
        if not isinstance(obj, dict):
            raise TraceFormatError(f"{_context(lineno)}{what} entry must be an object")
        text = obj.get("text")
        if text is not None and not isinstance(text, str):
            raise TraceFormatError(f"{_context(lineno)}{what} text must be a string")
        start = obj.get("start")
        end = obj.get("end")
        if timed or (start is not None or end is not None):
            start = _int_ms(_require(obj, "start", lineno) if timed else start, f"{what} start", lineno)
            end = _int_ms(_require(obj, "end", lineno) if timed else end, f"{what} end", lineno)
            try:
                _check_times(start, end)
            except TraceError as exc:
                raise TraceFormatError(f"{_context(lineno)}{what} token {pos}: {exc}") from exc
        if reads is not None:
            g = _require(obj, "g", lineno)
            if isinstance(g, bool) or not isinstance(g, int):
                raise TraceFormatError(f"{_context(lineno)}target g must be an integer")
            reads.append(g)
        texts.append(text)
        starts.append(start)
        ends.append(end)
    return TokenSide(tuple(texts), tuple(starts), tuple(ends))


def _parse_span(obj, lineno: int | None) -> ComputationSpan:
    if not isinstance(obj, dict):
        raise TraceFormatError(f"{_context(lineno)}spans entry must be an object")
    kind = str(obj.get("kind", "compute"))
    start = _int_ms(_require(obj, "start", lineno), "span start", lineno)
    end = _int_ms(_require(obj, "end", lineno), "span end", lineno)
    try:
        return ComputationSpan(kind, start, end)
    except TraceError as exc:
        raise TraceFormatError(f"{_context(lineno)}{exc}") from exc


def record_to_session(record: dict, lineno: int | None = None) -> SessionTrace:
    """Build a validated session from one decoded trace record."""
    if not isinstance(record, dict):
        raise TraceFormatError(f"{_context(lineno)}record must be a JSON object")
    session_id = _require(record, "id", lineno)
    if not isinstance(session_id, str) or not session_id:
        raise TraceFormatError(f"{_context(lineno)}id must be a non-empty string")
    modality = _require(record, "modality", lineno)
    timeline = _require(record, "timeline", lineno)
    if timeline not in TIMELINES:
        raise TraceFormatError(f"{_context(lineno)}unknown timeline {timeline!r}")
    timed = timeline != STEPS

    source = _parse_side(record, "source", timed, lineno)
    reads: list[int] = []
    target = _parse_side(record, "target", timed, lineno, reads)

    reference = record.get("reference")
    if reference is not None and not isinstance(reference, str):
        raise TraceFormatError(f"{_context(lineno)}reference must be a string")

    spans = None
    if "spans" in record:
        spans = tuple(
            _parse_span(obj, lineno) for obj in _require_list(record, "spans", lineno)
        )

    try:
        return SessionTrace(
            id=session_id,
            modality=modality,
            timeline_kind=timeline,
            source=source,
            target=target,
            reads=reads,
            reference=reference,
            spans=spans,
        )
    except TraceError as exc:
        raise TraceFormatError(f"{_context(lineno)}{exc}") from exc


def _wire_ms(value: float, owner: str, what: str) -> int:
    """``value`` as the integer milliseconds of the wire format; a time with
    a fraction, or an infinite or NaN one, raises TraceError naming ``owner``."""
    if type(value) is int or value.is_integer():
        return int(value)
    raise TraceError(f"{owner}: {what} time {value} is not integer milliseconds")


def session_to_record(s: SessionTrace) -> dict:
    """Serialize a session back to its wire form.

    Raises TraceError naming the session if a time is not integer
    milliseconds, rather than truncating it."""

    def token_obj(text, start, end, g: int | None = None) -> dict:
        obj: dict = {}
        if text is not None:
            obj["text"] = text
        if start is not None:
            obj["start"] = _wire_ms(start, s.id, "token")
            obj["end"] = _wire_ms(end, s.id, "token")
        if g is not None:
            obj["g"] = g
        return obj

    record: dict = {
        "id": s.id,
        "modality": s.modality,
        "timeline": s.timeline_kind,
        "source": [token_obj(*t) for t in zip(s.source.text, s.source.start, s.source.end)],
        "target": [token_obj(*t) for t in zip(s.target.text, s.target.start, s.target.end, s.reads)],
    }
    if s.reference is not None:
        record["reference"] = s.reference
    if s.spans is not None:
        record["spans"] = [
            {
                "kind": sp.kind,
                "start": _wire_ms(sp.start, s.id, "span"),
                "end": _wire_ms(sp.end, s.id, "span"),
            }
            for sp in s.spans
        ]
    return record


def read_lines(path: str) -> Iterator[tuple[int, str]]:
    """The numbered lines of a UTF-8 file, split at newlines and kept with
    them; a line that is not UTF-8 raises TraceFormatError naming it."""
    with open(path, "rb") as fp:
        for lineno, raw in enumerate(fp, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise TraceFormatError(f"line {lineno}: not UTF-8 ({exc.reason})") from None
            yield lineno, line


def _iter_json_lines(path: str) -> Iterator[tuple[int, dict]]:
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"line {lineno}: malformed JSON ({exc.msg})") from exc
        except (RecursionError, ValueError) as exc:  # deep nesting, an over-long integer
            raise TraceFormatError(f"line {lineno}: malformed JSON ({exc})") from None
        # only a \ud800-\udfff escape decodes to an unpaired surrogate, which
        # no report or trace could be written with
        if "\\ud" in line or "\\uD" in line:
            try:
                json.dumps(record, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError as exc:
                raise TraceFormatError(
                    f"line {lineno}: unpaired surrogate {exc.object[exc.start]!r} in a string"
                ) from None
        yield lineno, record


def _read_records(path: str, parse) -> list:
    """``parse(record, lineno)`` of each record in ``path``, which checks the
    record's id; an id seen on an earlier line raises TraceFormatError."""
    first_line: dict[str, int] = {}
    items = []
    for lineno, record in _iter_json_lines(path):
        items.append(parse(record, lineno))
        first = first_line.setdefault(record["id"], lineno)
        if first != lineno:
            raise TraceFormatError(
                f"line {lineno}: duplicate id {record['id']!r} (first on line {first})"
            )
    return items


def read_sessions(path: str) -> list[SessionTrace]:
    return _read_records(path, record_to_session)


def write_sessions(path: str, sessions: Iterable[SessionTrace]) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        for session in sessions:
            fp.write(json.dumps(session_to_record(session), ensure_ascii=False) + "\n")


def record_to_alignment(record: dict, lineno: int | None = None) -> tuple[str, AlignmentLinks]:
    if not isinstance(record, dict):
        raise TraceFormatError(f"{_context(lineno)}record must be a JSON object")
    sentence_id = _require(record, "id", lineno)
    if not isinstance(sentence_id, str) or not sentence_id:
        raise TraceFormatError(f"{_context(lineno)}id must be a non-empty string")
    rows = []
    for obj in _require_list(record, "links", lineno):
        if not isinstance(obj, dict):
            raise TraceFormatError(f"{_context(lineno)}links entry must be an object")
        verified = obj.get("verified", False)
        if not isinstance(verified, bool):
            raise TraceFormatError(f"{_context(lineno)}verified must be a boolean")
        src = _int_index(_require(obj, "src", lineno), "src", lineno)
        tgt = _int_index(_require(obj, "tgt", lineno), "tgt", lineno)
        src_start = _int_ms(_require(obj, "src_start", lineno), "src_start", lineno)
        tgt_start = _int_ms(_require(obj, "tgt_start", lineno), "tgt_start", lineno)
        try:
            _check_link(src, tgt, src_start, tgt_start)
        except TraceError as exc:
            raise TraceFormatError(f"{_context(lineno)}{exc}") from exc
        rows.append((src, tgt, src_start, tgt_start, verified))
    return sentence_id, AlignmentLinks(tuple(rows))


def read_alignments(path: str) -> list[tuple[str, AlignmentLinks]]:
    return _read_records(path, record_to_alignment)


def write_alignments(
    path: str, alignments: Iterable[tuple[str, Iterable[AlignedPair]]]
) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        for sentence_id, links in alignments:
            record = {
                "id": sentence_id,
                "links": [
                    {
                        "src": link.src_index,
                        "tgt": link.tgt_index,
                        "src_start": _wire_ms(link.src_start, sentence_id, "link"),
                        "tgt_start": _wire_ms(link.tgt_start, sentence_id, "link"),
                        "verified": link.verified,
                    }
                    for link in links
                ],
            }
            fp.write(json.dumps(record, ensure_ascii=False) + "\n")
