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
from array import array
from itertools import chain, repeat
from operator import le
from typing import Iterator

from .core import (
    STEPS,
    TIMELINES,
    ComputationSpan,
    SessionTrace,
    TokenSide,
    TraceError,
    _check_times,
    _number,
)
from .evs import AlignedPair, AlignmentLinks


# the size past which a shared table of token texts and span kinds keeps no new
# ones: the texts it holds are still shared, but words that never repeat are not
MAX_SHARED_TEXTS = 65_536


class TraceFormatError(TraceError):
    """A trace or alignment file does not match the wire format."""


def _sharer(shared: dict):
    """``shared.setdefault`` while ``shared`` is below its bound, else ``shared.get``.

    Taken once for a side, so a table passes the bound by at most one side."""
    return shared.setdefault if len(shared) < MAX_SHARED_TEXTS else shared.get


def _context(lineno: int | None) -> str:
    return f"line {lineno}: " if lineno is not None else ""


def _require(obj: dict, key: str):
    if key not in obj:
        raise TraceFormatError(f"missing field {key!r}")
    return obj[key]


def _int_ms(value, what: str) -> float:
    if type(value) is int and value >= 0:
        try:
            return float(value)
        except OverflowError:  # more than 308 digits
            raise TraceFormatError(f"{what} is too large") from None
    _number(value, what)
    if isinstance(value, float) and not value.is_integer():
        raise TraceFormatError(f"{what} must be integer milliseconds")
    if value < 0:
        raise TraceFormatError(f"{what} must be non-negative")
    return float(value) + 0.0  # reads -0.0 as 0.0


def _require_list(obj: dict, key: str) -> list:
    value = _require(obj, key)
    if not isinstance(value, list):
        raise TraceFormatError(f"{key} must be a JSON array")
    return value


def _int_index(value, what: str) -> int:
    """An integer, or an integer-valued float; never a bool (as in ``_int_ms``)."""
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise TraceFormatError(f"{what} must be an integer, got {value!r}")


def _int_column(objs: list, key: str, ms: bool = False) -> list | tuple | None:
    """Each entry's ``obj[key]`` if all are exactly ``int`` (float ms if ``ms``), else None."""
    try:
        column = [obj[key] for obj in objs]
        if set(map(type, column)) == {int}:
            return tuple(map(float, column)) if ms else column
    except (KeyError, TypeError, OverflowError):  # OverflowError: more than 308 digits
        pass
    return None


def _side_columns(
    objs: list, timed: bool, with_reads: bool, shared: dict | None = None
) -> tuple[TokenSide, list] | None:
    """``_parse_side`` by columns: str or no text, plain-int ``g``, and
    plain-int times with ``0 <= start <= end`` if ``timed``, else none;
    each text is its first copy in ``shared``."""
    if set(map(type, objs)) != {dict}:
        return None
    reads = _int_column(objs, "g") if with_reads else []
    texts = list(map(dict.get, objs, repeat("text")))
    if reads is None or not set(map(type, texts)) <= {str, type(None)}:
        return None
    if not timed:
        if not {"start", "end"}.isdisjoint(chain.from_iterable(objs)):  # even a null one
            return None
        starts = ends = (None,) * len(objs)
    else:
        starts, ends = _int_column(objs, "start", ms=True), _int_column(objs, "end", ms=True)
        if starts is None or ends is None or min(starts) < 0 or not all(map(le, starts, ends)):
            return None
    share = _sharer({} if shared is None else shared)
    return TokenSide(tuple(map(share, texts, texts)), starts, ends), reads


def _parse_side(
    record: dict, what: str, timed: bool, shared: dict, with_reads=False
) -> tuple[TokenSide, list]:
    """The ``what`` entries of a record as columns, each text its first copy
    in ``shared``, and each ``g`` if ``with_reads``; read one by one, which
    names a fault, if not by columns."""
    objs = _require_list(record, what)
    columns = _side_columns(objs, timed, with_reads, shared)
    if columns is not None:
        return columns
    texts, starts, ends, reads = [], [], [], []
    share = _sharer(shared)
    for pos, obj in enumerate(objs, start=1):
        if not isinstance(obj, dict):
            raise TraceFormatError(f"{what} entry must be an object")
        text = obj.get("text")
        if text is not None and not isinstance(text, str):
            raise TraceFormatError(f"{what} text must be a string")
        start = obj.get("start")
        end = obj.get("end")
        if timed or (start is not None or end is not None):
            start = _int_ms(_require(obj, "start") if timed else start, f"{what} start")
            end = _int_ms(_require(obj, "end") if timed else end, f"{what} end")
            try:
                _check_times(start, end)
            except TraceError as exc:
                raise TraceFormatError(f"{what} token {pos}: {exc}") from exc
        if with_reads:
            g = _require(obj, "g")
            if isinstance(g, bool) or not isinstance(g, int):
                raise TraceFormatError("target g must be an integer")
            reads.append(g)
        texts.append(share(text, text) if type(text) is str else text)
        starts.append(start)
        ends.append(end)
    return TokenSide(tuple(texts), tuple(starts), tuple(ends)), reads


def _parse_span(obj, shared: dict) -> ComputationSpan:
    if not isinstance(obj, dict):
        raise TraceFormatError("spans entry must be an object")
    kind = obj.get("kind", "compute")
    if not isinstance(kind, str):
        raise TraceFormatError("spans kind must be a string")
    start = _int_ms(_require(obj, "start"), "span start")
    end = _int_ms(_require(obj, "end"), "span end")
    return ComputationSpan(_sharer(shared)(kind, kind) if type(kind) is str else kind, start, end)


def _record_id(record) -> str:
    """The id of a decoded trace or alignment record, which must be an object."""
    if not isinstance(record, dict):
        raise TraceFormatError("record must be a JSON object")
    record_id = _require(record, "id")
    if not isinstance(record_id, str) or not record_id:
        raise TraceFormatError("id must be a non-empty string")
    return record_id


def record_to_session(record: dict, lineno: int | None = None, shared: dict | None = None) -> SessionTrace:
    """Build a validated session from one decoded trace record.

    Each token text and span kind that is a plain ``str`` is replaced by its
    first copy in ``shared``, which keeps new ones up to MAX_SHARED_TEXTS:
    one dict for a whole file keeps one ``str`` for each text it holds."""
    shared = {} if shared is None else shared
    try:
        session_id = _record_id(record)
        modality = _require(record, "modality")
        timeline = _require(record, "timeline")
        if timeline not in TIMELINES:
            raise TraceFormatError(f"unknown timeline {timeline!r}")
        timed = timeline != STEPS

        source, _ = _parse_side(record, "source", timed, shared)
        target, reads = _parse_side(record, "target", timed, shared, with_reads=True)

        reference = record.get("reference")
        if reference is not None and not isinstance(reference, str):
            raise TraceFormatError("reference must be a string")

        spans = None
        if "spans" in record:
            spans = tuple(_parse_span(obj, shared) for obj in _require_list(record, "spans"))

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

    def token_objs(side: TokenSide, reads=()) -> list[dict]:
        # by columns for a side with texts timed in integer ms; others token by token
        texts, starts, ends = side.text, side.start, side.end
        try:  # None, or a time that is not a float, raises TypeError
            timed = None not in texts and all(map(float.is_integer, chain(starts, ends)))
        except TypeError:
            timed = False
        if timed:
            rows = zip(texts, map(int, starts), map(int, ends), reads or repeat(None))
            if reads:
                return [{"text": t, "start": a, "end": b, "g": g} for t, a, b, g in rows]
            return [{"text": t, "start": a, "end": b} for t, a, b, _ in rows]
        return [token_obj(*t) for t in zip(texts, starts, ends, reads or repeat(None))]

    record: dict = {
        "id": s.id,
        "modality": s.modality,
        "timeline": s.timeline_kind,
        "source": token_objs(s.source),
        "target": token_objs(s.target, s.reads),
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
        if "\\" in line and ("\\ud" in line or "\\uD" in line):
            try:
                json.dumps(record, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError as exc:
                raise TraceFormatError(
                    f"line {lineno}: unpaired surrogate {exc.object[exc.start]!r} in a string"
                ) from None
        yield lineno, record


def _iter_records(path: str, parse) -> Iterator:
    """``parse(record, lineno)`` of each record in ``path``, one at a time, which
    checks the record's id; an id seen on an earlier line raises TraceFormatError."""
    first_line: dict[str, int] = {}
    for lineno, record in _iter_json_lines(path):
        item = parse(record, lineno)
        first = first_line.setdefault(record["id"], lineno)
        if first != lineno:
            raise TraceFormatError(
                f"line {lineno}: duplicate id {record['id']!r} (first on line {first})"
            )
        yield item


def iter_sessions(path: str) -> Iterator[SessionTrace]:
    """The sessions of ``path``, each parsed when it is asked for."""
    shared: dict = {}  # this file's token texts and span kinds, so no table outlives the read
    return _iter_records(path, lambda record, lineno: record_to_session(record, lineno, shared))


def read_sessions(path: str) -> list[SessionTrace]:
    return list(iter_sessions(path))


def record_to_alignment(record: dict, lineno: int | None = None) -> tuple[str, AlignmentLinks]:
    try:
        sentence_id = _record_id(record)
        objs = _require_list(record, "links")
        links = _link_columns(objs)
        if links is None:  # name the fault, or read integer-valued floats
            rows = []
            for obj in objs:
                if not isinstance(obj, dict):
                    raise TraceFormatError("links entry must be an object")
                verified = obj.get("verified", False)
                if not isinstance(verified, bool):
                    raise TraceFormatError("verified must be a boolean")
                src = _int_index(_require(obj, "src"), "src")
                tgt = _int_index(_require(obj, "tgt"), "tgt")
                src_start = _int_ms(_require(obj, "src_start"), "src_start")
                tgt_start = _int_ms(_require(obj, "tgt_start"), "tgt_start")
                AlignedPair(src, tgt, src_start, tgt_start, verified)  # checks the bounds
                rows.append((src, tgt, src_start, tgt_start, verified))
            src, tgt, src_start, tgt_start, verified = tuple(zip(*rows)) or ((),) * 5
            links = AlignmentLinks(src, tgt, array("d", src_start), array("d", tgt_start), verified)
    except TraceError as exc:
        raise TraceFormatError(f"{_context(lineno)}{exc}") from exc
    return sentence_id, links


def _link_columns(objs: list) -> AlignmentLinks | None:
    """Links by columns: plain-int indices >= 1 and times >= 0, bool ``verified``."""
    src, tgt, *starts = columns = [_int_column(objs, k) for k in ("src", "tgt", "src_start", "tgt_start")]
    if not objs or None in columns or min(min(src), min(tgt)) < 1 or min(map(min, starts)) < 0:
        return None
    verified = [obj.get("verified", False) for obj in objs]
    try:  # the start times straight from the ints, with no float object a link
        if set(map(type, verified)) == {bool}:
            return AlignmentLinks(tuple(src), tuple(tgt), *(array("d", c) for c in starts), tuple(verified))
    except OverflowError:  # more than 308 digits
        pass
    return None


def iter_alignments(path: str) -> Iterator[tuple[str, AlignmentLinks]]:
    """The sentences of ``path``, each parsed when it is asked for."""
    return _iter_records(path, record_to_alignment)


def read_alignments(path: str) -> list[tuple[str, AlignmentLinks]]:
    return list(iter_alignments(path))
