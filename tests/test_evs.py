import math
from dataclasses import replace

import pytest

from simulatency import (
    AUTOMATIC,
    VERIFIED_ONLY,
    AlignedPair,
    TraceError,
    dedupe_pairs,
    mean_evs,
)

from test_metrics_time import contrast_links


def test_single_verified_pair():
    pair = AlignedPair(1, 1, 1000, 3300, verified=True)
    assert mean_evs([pair]) == pytest.approx(2300.0)


def test_fixture_ordering_between_cases():
    links = contrast_links()
    v1 = mean_evs(links["contrast-balanced"], VERIFIED_ONLY)
    v2 = mean_evs(links["contrast-frontloaded"], VERIFIED_ONLY)
    assert v1 == pytest.approx(31000 / 7)
    assert v2 == pytest.approx(5250.0)
    assert v1 < v2
    assert mean_evs(links["contrast-balanced"], AUTOMATIC) < mean_evs(
        links["contrast-frontloaded"], AUTOMATIC
    )


def test_no_verified_pairs_gives_absent():
    pairs = [AlignedPair(1, 1, 0, 500, verified=False)]
    assert mean_evs(pairs, VERIFIED_ONLY) is None


def test_empty_input_gives_absent():
    assert mean_evs([], AUTOMATIC) is None


def test_automatic_equals_verified_when_all_links_verified():
    pairs = [
        AlignedPair(1, 1, 0, 700, verified=True),
        AlignedPair(2, 3, 500, 2500, verified=True),
    ]
    assert mean_evs(pairs, AUTOMATIC) == mean_evs(pairs, VERIFIED_ONLY)


def test_shift_invariance():
    pairs = [
        AlignedPair(1, 1, 100, 700, verified=True),
        AlignedPair(2, 2, 500, 2500, verified=True),
    ]
    moved = [
        replace(p, src_start=p.src_start + 10_000, tgt_start=p.tgt_start + 10_000)
        for p in pairs
    ]
    assert mean_evs(moved) == pytest.approx(mean_evs(pairs))


def test_negative_spans_average_as_is():
    pairs = [
        AlignedPair(1, 1, 2000, 1000, verified=True),  # target precedes source
        AlignedPair(2, 2, 3000, 4000, verified=True),
    ]
    assert mean_evs(pairs) == pytest.approx(0.0)


def test_exact_duplicates_are_dropped_once():
    pair = AlignedPair(1, 1, 0, 500, verified=True)
    other = AlignedPair(2, 2, 100, 900, verified=True)
    unique, dupes = dedupe_pairs([pair, pair, other])
    assert dupes == 1
    assert unique == (pair, other)
    assert mean_evs([pair, pair, other]) == pytest.approx((500 + 800) / 2)


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        mean_evs([AlignedPair(1, 1, 0, 1, verified=True)], "sometimes")
    with pytest.raises(ValueError, match="^unknown EVS mode 'both'$"):
        mean_evs((), "both")


def test_bad_indices_rejected():
    with pytest.raises(TraceError):
        AlignedPair(0, 1, 0, 1)
    with pytest.raises(TraceError):
        AlignedPair(1, 1, -5, 1)


@pytest.mark.parametrize("src_start, tgt_start", [(math.nan, 1.0), (0.0, math.nan)])
def test_nan_start_rejected(src_start, tgt_start):
    with pytest.raises(TraceError, match="^alignment start times must be non-negative$"):
        AlignedPair(1, 1, src_start, tgt_start)


@pytest.mark.parametrize("src_index, tgt_index", [(math.nan, 1), (1, math.nan)])
def test_nan_index_rejected(src_index, tgt_index):
    message = rf"^alignment indices must be >= 1, got \({src_index}, {tgt_index}\)$"
    with pytest.raises(TraceError, match=message):
        AlignedPair(src_index, tgt_index, 0.0, 500.0, True)


@pytest.mark.parametrize("flags", [(True, False), (False, True), (False, False)])
def test_dedupe_keys_links_on_indices_and_times_not_the_verified_flag(flags):
    # one link listed twice with different flags, then a distinct link
    pairs = [AlignedPair(1, 2, 0, 950, flag) for flag in flags]
    pairs.append(AlignedPair(2, 1, 300, 1000, True))
    unique, dupes = dedupe_pairs(pairs)
    assert dupes == 1
    assert unique == (AlignedPair(1, 2, 0, 950, any(flags)), pairs[-1])
    assert mean_evs(pairs, AUTOMATIC) == 825.0
    assert mean_evs(pairs, VERIFIED_ONLY) == (825.0 if any(flags) else 700.0)

