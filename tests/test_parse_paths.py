"""Records parse the same whichever way ``trace_io`` reads their entries.

Entries whose numbers are all plain ints are read column by column; any other
record is read entry by entry, which alone accepts integer-valued floats and
names a fault.  A valid record must give an equal ``SessionTrace`` or
``AlignmentLinks``, field types included, written either way; and a record
with one faulty field must raise the per-entry message, which the table
below spells out in full.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulatency import MODALITIES, TIMELINES
from simulatency.trace_io import (
    TraceFormatError,
    _link_columns,
    _side_columns,
    record_to_alignment,
    record_to_session,
)

# times up to 2**53 are exact as floats, so both writings give one value
millis = st.integers(0, 400) | st.integers(0, 2**53)
texts = st.sampled_from([{}, {"text": None}, {"text": ""}, {"text": "wort"}, {"text": "ü"}])


@st.composite
def timed_entries(draw, n):
    """``n`` entries whose starts and ends never decrease, with 0 <= start <= end."""
    entries, start, end = [], 0, 0
    for _ in range(n):
        start = draw(st.integers(start, max(start, end)))
        end = max(end, start + draw(st.integers(0, 400)))
        entries.append({**draw(texts), "start": start, "end": end})
    return entries


@st.composite
def trace_records(draw):
    timeline = draw(st.sampled_from(TIMELINES))
    n_src = draw(st.integers(0, 6))
    n_tgt = draw(st.integers(0, 6)) if n_src else 0
    sides = {}
    for side, n in (("source", n_src), ("target", n_tgt)):
        if timeline != "steps" or draw(st.booleans()):
            sides[side] = draw(timed_entries(n))
        else:
            sides[side] = [dict(draw(texts)) for _ in range(n)]
    reads = sorted(draw(st.lists(st.integers(1, max(n_src, 1)), min_size=n_tgt, max_size=n_tgt)))
    for entry, g in zip(sides["target"], reads):
        entry["g"] = g
    record = {"id": "s1", "modality": draw(st.sampled_from(MODALITIES)), "timeline": timeline, **sides}
    if draw(st.booleans()):
        record["reference"] = "ref"
    if timeline != "steps" and draw(st.booleans()):
        record["spans"] = [{"kind": "decode", **span} for span in draw(timed_entries(2))]
    return record


@st.composite
def alignment_records(draw):
    link = st.fixed_dictionaries(
        {"src": st.integers(1, 40) | st.integers(1, 2**53), "tgt": st.integers(1, 40),
         "src_start": millis, "tgt_start": millis},
        optional={"verified": st.booleans()},
    )
    return {"id": "a1", "links": draw(st.lists(link, max_size=8))}


def as_floats(record, side, keys):
    """``record`` with ``keys`` of every ``side`` entry written as floats, a
    zero as ``-0.0``, which reads as ``0.0``."""
    record = copy.deepcopy(record)
    for entry in record[side]:
        for key in keys & entry.keys():
            entry[key] = float(entry[key]) or -0.0
    return record


def same(a, b):
    return a == b and repr(a) == repr(b)  # repr tells 300 from 300.0


@settings(max_examples=300, deadline=None)
@given(trace_records())
def test_a_trace_parses_alike_from_ints_and_from_integer_valued_floats(record):
    timed = record["timeline"] != "steps"
    for side in ("source", "target"):
        entries = record[side]
        by_columns = bool(entries) and (timed or "start" not in entries[0])
        assert (_side_columns(entries, timed, side == "target") is not None) == by_columns
    session = record_to_session(record, 3)
    floats = as_floats(as_floats(record, "source", {"start", "end"}), "target", {"start", "end"})
    for side in ("source", "target"):
        if any("start" in entry for entry in floats[side]):
            assert _side_columns(floats[side], timed, side == "target") is None
    assert same(record_to_session(floats, 3), session)


@settings(max_examples=300, deadline=None)
@given(alignment_records())
def test_links_parse_alike_from_ints_and_from_integer_valued_floats(record):
    assert (_link_columns(record["links"]) is not None) == bool(record["links"])
    sentence_id, links = record_to_alignment(record, 3)
    for keys in ({"src"}, {"tgt"}, {"src_start", "tgt_start"}, {"src", "tgt", "src_start", "tgt_start"}):
        floats = as_floats(record, "links", keys)
        if floats["links"]:
            assert _link_columns(floats["links"]) is None
        assert sentence_id == "a1" and same(record_to_alignment(floats, 3)[1], links)


TRACE = {
    "id": "s", "modality": "speech-to-text", "timeline": "ca",
    "source": [{"text": "a", "start": 0, "end": 300}, {"text": "b", "start": 300, "end": 600}],
    "target": [{"text": "x", "start": 700, "end": 900, "g": 1},
               {"text": "y", "start": 900, "end": 1000, "g": 2}],
}
LINKS = {
    "id": "a",
    "links": [{"src": 1, "tgt": 1, "src_start": 0, "tgt_start": 500, "verified": True},
              {"src": 2, "tgt": 2, "src_start": 300, "tgt_start": 900, "verified": False}],
}
MISSING = object()

# name -> (record, side, key of its second entry or None for the entry, value, message)
FAULTS = {
    "bool g": (TRACE, "target", "g", True, "target g must be an integer"),
    "float g": (TRACE, "target", "g", 2.0, "target g must be an integer"),
    "no g": (TRACE, "target", "g", MISSING, "missing field 'g'"),
    "huge start": (TRACE, "source", "start", 10**400, "source start is too large"),
    "huge end": (TRACE, "source", "end", 10**400, "source end is too large"),
    "negative start": (TRACE, "source", "start", -1, "source start must be non-negative"),
    "end before start": (TRACE, "source", "end", 200, "source token 2: end 200.0 precedes start 300.0"),
    "no start": (TRACE, "source", "start", MISSING, "missing field 'start'"),
    "bool start": (TRACE, "source", "start", True, "source start must be a number, got True"),
    "list entry": (TRACE, "source", None, [1], "source entry must be an object"),
    "string entry": (TRACE, "target", None, "y", "target entry must be an object"),
    "int text": (TRACE, "source", "text", 5, "source text must be a string"),
    "int verified": (LINKS, "links", "verified", 1, "verified must be a boolean"),
    "huge link start": (LINKS, "links", "src_start", 10**400, "src_start is too large"),
    "negative link start": (LINKS, "links", "tgt_start", -1, "tgt_start must be non-negative"),
    "index 0": (LINKS, "links", "tgt", 0, "alignment indices must be >= 1, got (2, 0)"),
    "bool index": (LINKS, "links", "src", True, "src must be an integer, got True"),
    "no index": (LINKS, "links", "src", MISSING, "missing field 'src'"),
    "int link": (LINKS, "links", None, 5, "links entry must be an object"),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_a_one_field_fault_raises_the_per_entry_message(fault):
    base, side, key, value, message = FAULTS[fault]
    record = copy.deepcopy(base)
    if key is None:
        record[side][1] = value
    elif value is MISSING:
        del record[side][1][key]
    else:
        record[side][1][key] = value
    parse = record_to_alignment if base is LINKS else record_to_session
    with pytest.raises(TraceFormatError) as exc:
        parse(record, 3)
    assert str(exc.value) == f"line 3: {message}"


def test_a_steps_side_reads_by_columns_only_without_times():
    steps = {**copy.deepcopy(TRACE), "timeline": "steps"}
    for entry in steps["source"] + steps["target"]:
        del entry["start"], entry["end"]
    assert _side_columns(steps["source"], False, False) is not None
    session = record_to_session(steps)
    steps["source"][0].update(start=None, end=None)  # explicit nulls are no times
    assert same(record_to_session(steps), session)
    steps["source"][0].update(start=0, end=300)  # one timed token: entry by entry
    assert _side_columns(steps["source"], False, False) is None
    assert record_to_session(steps).source.start == (0.0, None)
