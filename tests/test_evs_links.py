"""Row-backed alignment links behave as the tuple of their pairs.

``AlignmentLinks`` keeps a sentence's links as plain rows and builds an
``AlignedPair`` only on demand.  For any list of valid pairs, duplicates
included, the links, a slice of them, and the links that
``record_to_alignment`` parses from the same pairs written as a record must
be indistinguishable from a tuple of pairs, and ``dedupe_pairs`` and
``mean_evs`` must give, bit for bit, what a literal first-occurrence dedupe
on indices and start times and a plain ``sum(p.tgt_start - p.src_start for p
in selected) / len(selected)`` give.  So must the duplicate count, the
number of links used and the mean that ``evs`` takes from one walk of the
links.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulatency import AUTOMATIC, VERIFIED_ONLY, AlignedPair, TraceError, dedupe_pairs, mean_evs
from simulatency.evs import AlignmentLinks, _tally
from simulatency.trace_io import record_to_alignment

# integer milliseconds, as an int or an integer-valued float: equal pairs of
# different field types show which of them a dedupe keeps
millis = st.integers(0, 10**6) | st.integers(0, 10**300)
wire_times = millis | millis.map(float)
# fractions of a millisecond make the order of a sum show in its bits
any_times = wire_times | st.floats(0, 1e17)
slice_bounds = st.none() | st.integers(-20, 20)


@st.composite
def link_lists(draw, times):
    """Pairs drawn with repetition from a small pool, so duplicates, also with
    opposite ``verified`` flags, are common."""
    pair = st.builds(AlignedPair, st.integers(1, 4), st.integers(1, 4), times, times, st.booleans())
    pool = draw(st.lists(pair, min_size=1, max_size=6))
    pool += [AlignedPair(p.src_index, p.tgt_index, float(p.src_start), p.tgt_start, p.verified)
             for p in pool]
    pool += [replace(p, verified=not p.verified) for p in pool]  # duplicates by their fields
    return draw(st.lists(st.sampled_from(pool), max_size=16))


def oracle_unique(pairs):
    """The first link of each (src, tgt, src_start, tgt_start), verified if any
    link with those fields is."""
    keys = [(p.src_index, p.tgt_index, p.src_start, p.tgt_start) for p in pairs]
    return tuple(
        replace(pair, verified=any(p.verified for p, k in zip(pairs, keys) if k == key))
        for i, (pair, key) in enumerate(zip(pairs, keys))
        if key not in keys[:i]
    )


def oracle_select(pairs, mode):
    return tuple(p for p in pairs if p.verified or mode == AUTOMATIC)


def oracle_mean(pairs, mode):
    selected = oracle_select(oracle_unique(pairs), mode)
    return sum(p.tgt_start - p.src_start for p in selected) / len(selected) if selected else None


def field_types(pairs):
    return [(type(p.src_start), type(p.tgt_start)) for p in pairs]


def bits(value):
    return None if value is None else value.hex()


def assert_links_behave_as(links, pairs, data):
    assert isinstance(links, AlignmentLinks)
    assert len(links) == len(pairs)
    for i in range(-len(pairs), len(pairs)):
        assert links[i] == pairs[i]
    for i in (len(pairs), -len(pairs) - 1):
        with pytest.raises(IndexError):
            links[i]
    cut = slice(
        data.draw(slice_bounds), data.draw(slice_bounds),
        data.draw(st.none() | st.integers(-3, 3).filter(bool)),
    )
    assert isinstance(links[cut], AlignmentLinks)
    assert links[cut] == pairs[cut] and tuple(links[cut]) == pairs[cut]
    assert list(links) == list(pairs) and field_types(links) == field_types(pairs)
    assert links == pairs and pairs == links and hash(links) == hash(pairs)
    assert links == AlignmentLinks.of(pairs)
    if pairs:
        last = pairs[-1]
        changed = pairs[:-1] + (
            AlignedPair(last.src_index, last.tgt_index, last.src_start, last.tgt_start,
                        not last.verified),
        )
        assert links != changed and changed != links and links != pairs[:-1]

    expected = oracle_unique(pairs)
    for given_as in (list(pairs), pairs, links):
        unique, dupes = dedupe_pairs(given_as)
        assert isinstance(unique, AlignmentLinks)
        assert unique == expected and field_types(unique) == field_types(expected)
        assert dupes == len(pairs) - len(expected)
        for mode in (VERIFIED_ONLY, AUTOMATIC):
            assert bits(mean_evs(given_as, mode)) == bits(oracle_mean(pairs, mode))
    assert bits(mean_evs(unique)) == bits(oracle_mean(pairs, VERIFIED_ONLY))
    for mode in (VERIFIED_ONLY, AUTOMATIC):  # the one walk that evs scores a sentence with
        dupes, n_used, mean = _tally(links, mode)
        assert dupes == len(pairs) - len(expected) and n_used == len(oracle_select(expected, mode))
        assert bits(mean) == bits(oracle_mean(pairs, mode))


@settings(max_examples=150, deadline=None)
@given(link_lists(any_times), st.data())
def test_links_behave_as_the_tuple_of_their_pairs(pairs, data):
    assert_links_behave_as(AlignmentLinks.of(pairs), tuple(pairs), data)


@settings(max_examples=150, deadline=None)
@given(link_lists(wire_times), st.data())
def test_parsed_links_behave_as_the_tuple_of_their_pairs(pairs, data):
    record = {
        "id": "s1",
        "links": [
            {"src": p.src_index, "tgt": p.tgt_index, "src_start": int(p.src_start),
             "tgt_start": int(p.tgt_start), "verified": p.verified}
            for p in pairs
        ],
    }
    sentence_id, links = record_to_alignment(record, 3)
    assert sentence_id == "s1"
    # the wire reads every time as a float
    parsed = tuple(
        AlignedPair(p.src_index, p.tgt_index, float(p.src_start), float(p.tgt_start), p.verified)
        for p in pairs
    )
    assert_links_behave_as(links, parsed, data)


def test_mean_evs_sums_spans_in_link_order():
    # spans 1, 1e16, -1e16: summed in order 1 is lost to rounding, in reverse it is kept
    pairs = [AlignedPair(1, 1, 0, 1.0, True), AlignedPair(2, 2, 0, 1e16, True),
             AlignedPair(3, 3, 1e16, 0, True)]
    assert bits(mean_evs(pairs)) == bits(oracle_mean(pairs, VERIFIED_ONLY)) == bits(0.0)
    assert bits(mean_evs(pairs[::-1])) == bits(1 / 3)


@settings(max_examples=150, deadline=None)
@given(link_lists(any_times))
def test_dedupe_gives_its_own_output_back(pairs):
    unique, _ = dedupe_pairs(pairs)
    again, dupes = dedupe_pairs(unique)
    assert again is unique and dupes == 0
    for mode in (VERIFIED_ONLY, AUTOMATIC):
        assert bits(mean_evs(unique, mode)) == bits(mean_evs(pairs, mode))
        assert bits(mean_evs(unique, mode)) == bits(mean_evs(AlignmentLinks.of(pairs), mode))


@pytest.mark.parametrize(
    "fields, message",
    [
        ((1.5, 2, 0.0, 500.0, True), "src must be an integer, got 1.5"),
        ((2.0, 2, 0.0, 500.0, True), "src must be an integer, got 2.0"),
        ((1, True, 0.0, 500.0, True), "tgt must be an integer, got True"),
        ((1, 2, 0.0, 500.0, "yes"), "verified must be a boolean"),
        ((1, 2, 0.0, 500.0, 1), "verified must be a boolean"),
        # the index bound comes first, so a NaN index keeps its message
        ((1.5, 0, 0.0, 500.0, "yes"), "alignment indices must be >= 1, got (1.5, 0)"),
    ],
)
def test_pair_refuses_what_the_reader_refuses(fields, message):
    with pytest.raises(TraceError) as info:
        AlignedPair(*fields)
    assert str(info.value) == message
