"""Column-backed alignment links against the row-backed links they replace.

``AlignmentLinks`` keeps a sentence's links as five columns, the start times
of read links in ``array('d')``.  The class it replaces kept one row tuple
per link; that class, with the ``dedupe_pairs`` and ``mean_evs`` written on
its rows, is kept below as the oracle.  For any record, read by columns (all
plain ints) or link by link (integer-valued floats), and for any list of
pairs given to ``AlignmentLinks.of``, the new links must equal, hash, slice,
dedupe, count the links each mode averages and average as the old ones, bit
for bit, and their ``repr`` must show the same values whichever path read
them.

Also here: the bytes ``read_alignments`` holds a link, the ``TraceError``
that a field which is no number raises, and the flush of ``evs``'s first row.
"""

import copy
import gc
import json
import pickle
import random
import tracemalloc
from array import array
from collections.abc import Sequence
from dataclasses import FrozenInstanceError, dataclass, replace
from itertools import starmap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulatency import AUTOMATIC, AlignedPair, TraceError, cli, dedupe_pairs, mean_evs, read_alignments
from simulatency import trace_io
from simulatency.evs import EVS_MODES, AlignmentLinks, _tally
from simulatency.trace_io import _link_columns, record_to_alignment

from test_eval_streaming import FIXTURES, Stdout


# -- the oracle: the row-backed links, as they were -------------------------

@dataclass(frozen=True, eq=False, slots=True)
class RowLinks(Sequence):
    rows: tuple = ()

    @classmethod
    def of(cls, pairs):
        return cls(tuple((p.src_index, p.tgt_index, p.src_start, p.tgt_start, p.verified) for p in pairs))

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return RowLinks(self.rows[index])
        return AlignedPair(*self.rows[index])

    def __iter__(self):
        return starmap(AlignedPair, self.rows)

    def __hash__(self):
        return hash(self.rows)

    def select(self, mode):
        if mode not in EVS_MODES:
            raise ValueError(f"unknown EVS mode {mode!r}")
        if mode == AUTOMATIC:
            return self
        return RowLinks(tuple([row for row in self.rows if row[-1]]))


def row_dedupe(links):
    kept = {}
    for row in links.rows:
        first = kept.setdefault(row[:4], row)
        if row[4] and not first[4]:
            kept[row[:4]] = first[:4] + (True,)
    return RowLinks(tuple(kept.values())), len(links) - len(kept)


def row_mean(links, mode):
    rows = row_dedupe(links)[0].select(mode).rows
    if not rows:
        return None
    return sum(tgt_start - src_start for _, _, src_start, tgt_start, _ in rows) / len(rows)


def wire_rows(record):
    """The rows the row-backed reader made of a valid record: int indices,
    float times."""
    return tuple(
        (int(link["src"]), int(link["tgt"]), float(link["src_start"]), float(link["tgt_start"]),
         link.get("verified", False))
        for link in record["links"]
    )


# -- comparing the two ------------------------------------------------------

def bits(value):
    return None if value is None else value.hex()


def typed(pairs):
    """Each pair's fields with their types, which ``==`` alone does not tell."""
    return [tuple((type(v), v) for v in (p.src_index, p.tgt_index, p.src_start, p.tgt_start,
                                         p.verified)) for p in pairs]


def assert_behave_alike(links, old, data):
    assert isinstance(links, AlignmentLinks) and len(links) == len(old)
    pairs = tuple(old)
    assert links == pairs and pairs == links and hash(links) == hash(old) == hash(pairs)
    assert typed(links) == typed(old)
    assert links == AlignmentLinks.of(pairs) and links.rows == old.rows
    for i in range(-len(old), len(old)):
        assert links[i] == old[i] and typed([links[i]]) == typed([old[i]])
    cut = slice(data.draw(st.none() | st.integers(-12, 12)), data.draw(st.none() | st.integers(-12, 12)),
                data.draw(st.none() | st.integers(-3, 3).filter(bool)))
    assert isinstance(links[cut], AlignmentLinks)
    assert links[cut] == tuple(old[cut]) and typed(links[cut]) == typed(old[cut])
    unique, dupes = dedupe_pairs(links)
    old_unique, old_dupes = row_dedupe(old)
    assert isinstance(unique, AlignmentLinks) and dupes == old_dupes
    assert unique == tuple(old_unique) and typed(unique) == typed(old_unique)
    assert hash(unique) == hash(old_unique) and unique == AlignmentLinks.of(tuple(old_unique))
    assert unique[cut] == tuple(old_unique[cut]) and typed(unique[cut]) == typed(old_unique[cut])
    columns = (unique.src, unique.tgt, unique.src_start, unique.tgt_start, unique.verified)
    assert tuple(map(tuple, columns)) == (tuple(zip(*old_unique.rows)) or ((),) * 5)
    for mode in EVS_MODES:
        for new_links in (links, unique):
            assert _tally(new_links, mode)[1] == len(old_unique.select(mode))
            assert bits(mean_evs(new_links, mode)) == bits(row_mean(old, mode))


millis = st.integers(0, 400) | st.integers(0, 2**53)
links_entries = st.lists(
    st.fixed_dictionaries(
        {"src": st.integers(1, 5) | st.integers(1, 2**70), "tgt": st.integers(1, 5),
         "src_start": millis, "tgt_start": millis},
        optional={"verified": st.booleans()},
    ),
    max_size=12,
)


@st.composite
def records(draw):
    """Records whose links repeat, also with the other ``verified`` flag, so
    that duplicates are common."""
    pool = draw(links_entries)
    pool += [{**link, "verified": not link.get("verified", False)} for link in pool]
    links = draw(st.lists(st.sampled_from(pool), max_size=16)) if pool else []
    return {"id": "a1", "links": links}


def as_floats(record, keys):
    return {**record, "links": [{k: float(v) if k in keys else v for k, v in link.items()}
                                for link in record["links"]]}


@settings(max_examples=200, deadline=None)
@given(records(), st.data())
def test_read_links_behave_as_the_row_backed_links(record, data):
    old = RowLinks(wire_rows(record))
    sentence_id, links = record_to_alignment(record, 3)
    assert sentence_id == "a1" and (_link_columns(record["links"]) is not None) == bool(old)
    assert_behave_alike(links, old, data)
    src, tgt, src_start, tgt_start, verified = tuple(zip(*old.rows)) or ((),) * 5
    assert repr(links) == (
        f"AlignmentLinks(src={src!r}, tgt={tgt!r}, src_start={array('d', src_start)!r}, "
        f"tgt_start={array('d', tgt_start)!r}, verified={verified!r})"
    )
    # link by link, with integer-valued floats: the same links and repr
    for keys in ({"src", "tgt"}, {"src_start"}, {"src", "tgt", "src_start", "tgt_start"}):
        if any(link[key] > 2**53 for link in record["links"] for key in keys):
            continue  # a float would round it
        floats = as_floats(record, keys)
        if floats["links"]:
            assert _link_columns(floats["links"]) is None
        again = record_to_alignment(floats, 3)[1]
        assert again == links and repr(again) == repr(links) and typed(again) == typed(links)


# fractions of a millisecond make the order of a sum show in its bits
times = st.integers(0, 10**6) | st.floats(0, 1e17) | st.integers(0, 10**6).map(float)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(AlignedPair, st.integers(1, 3), st.integers(1, 3), times, times,
                          st.booleans()), max_size=6), st.data())
def test_library_links_behave_as_the_row_backed_links(pool, data):
    pool += [replace(p, verified=not p.verified) for p in pool]
    pairs = data.draw(st.lists(st.sampled_from(pool), max_size=16)) if pool else []
    links = AlignmentLinks.of(pairs)
    assert_behave_alike(links, RowLinks.of(pairs), data)  # int starts stay ints
    for given_as in (pairs, tuple(pairs)):
        assert dedupe_pairs(given_as)[0] == dedupe_pairs(links)[0]
        for mode in EVS_MODES:
            assert bits(mean_evs(given_as, mode)) == bits(row_mean(RowLinks.of(pairs), mode))


def test_deduplicated_links_copy_stay_frozen_and_show_their_columns():
    unique, _ = dedupe_pairs([AlignedPair(1, 2, 0, 5.0, False), AlignedPair(1, 2, 0, 5.0, True)])
    for again in (copy.copy(unique), copy.deepcopy(unique), pickle.loads(pickle.dumps(unique))):
        assert again == unique and type(again) is type(unique)
        assert dedupe_pairs(again)[0] is again
    assert "src=(1,), tgt=(2,), src_start=(0,), tgt_start=(5.0,), verified=(True,)" in repr(unique)
    with pytest.raises(FrozenInstanceError):
        unique.rows = ()


# -- what a read holds ------------------------------------------------------

def test_read_alignments_holds_at_most_80_bytes_a_link(tmp_path):
    # 100 sentences of 30 links, word indices 1..60 and times up to a minute,
    # as bench/gen.py writes them; the row-backed reader held about 143 bytes
    rng = random.Random(19)
    path = tmp_path / "links.jsonl"
    with open(path, "w", encoding="utf-8") as fp:
        for i in range(100):
            links = [{"src": rng.randint(1, 60), "tgt": rng.randint(1, 60),
                      "src_start": rng.randint(0, 60_000), "tgt_start": rng.randint(0, 60_000),
                      "verified": rng.random() < 0.5} for _ in range(30)]
            fp.write(json.dumps({"id": f"s{i}", "links": links}) + "\n")
    tracing = tracemalloc.is_tracing()  # already, under PYTHONTRACEMALLOC
    gc.collect()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        alignments = read_alignments(str(path))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    n_links = sum(len(links) for _, links in alignments)
    assert n_links == 3000
    assert held / n_links <= 80, f"{held / n_links:.1f} bytes a link"


# -- a field that is no number ----------------------------------------------

@pytest.mark.parametrize(
    "fields, message",
    [
        (("1", 2, 0.0, 5.0, True), "src must be an integer, got '1'"),
        ((None, 2, 0.0, 5.0, True), "src must be an integer, got None"),
        ((1, "2", 0.0, 5.0, True), "tgt must be an integer, got '2'"),
        ((1, 2, "0", 5.0, True), "src_start must be a number, got '0'"),
        ((1, 2, 0.0, None, True), "tgt_start must be a number, got None"),
        ((1, 2, 0.0, 1j, True), "tgt_start must be a number, got 1j"),
        # the bounds still come first where they can be checked
        ((0, 2, "0", 5.0, True), "alignment indices must be >= 1, got (0, 2)"),
        ((1.5, 0, "0", 5.0, True), "alignment indices must be >= 1, got (1.5, 0)"),
        # bool is an int to Python, but no time to the reader
        ((1, 2, True, 5.0, True), "src_start must be a number, got True"),
        ((1, 2, 0.0, False, True), "tgt_start must be a number, got False"),
        ((True, 2, True, 5.0, True), "src must be an integer, got True"),
        # each field's type before any range but the bounds
        ((1, 2, -1.0, "x", True), "tgt_start must be a number, got 'x'"),
        ((1.5, 2, "0", 5.0, True), "src must be an integer, got 1.5"),
    ],
)
def test_pair_names_a_field_that_is_no_number(fields, message):
    with pytest.raises(TraceError) as info:
        AlignedPair(*fields)
    assert str(info.value) == message


# -- evs writes its first row at once --------------------------------------

def test_evs_flushes_the_header_and_first_row_once_before_sentence_2_is_parsed(monkeypatch):
    out = Stdout()
    seen = []  # stdout, and what had been flushed, as each sentence was about to be parsed
    parse = trace_io.record_to_alignment

    def recorded(*args):
        seen.append((out.getvalue(), list(out.flushed)))
        return parse(*args)

    monkeypatch.setattr("sys.stdout", out)
    monkeypatch.setattr(trace_io, "record_to_alignment", recorded)
    code = cli.main(["evs", str(FIXTURES / "evs_alignments.jsonl")])
    monkeypatch.undo()
    assert code == 0
    lines = out.getvalue().splitlines(keepends=True)
    assert lines == (FIXTURES / "evs_report.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    head = "".join(lines[:2])  # the header and row 1
    # sentence k is parsed once rows 1..k-1 are written: lines[:k]
    assert seen == [("", [])] + [("".join(lines[:k]), [head]) for k in range(2, len(lines) - 1)]
    assert out.flushed == [head]
