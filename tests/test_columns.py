"""Sides and links as column sequences: copies, pickles and equality.

A ``TokenSide`` holds a session side's tokens as columns, and
``AlignmentLinks`` a sentence's links; the links the reader builds hold
their start times in ``array('d')``.  A copy, a deep copy or a pickle round
trip gives back the same class, equal to the original, with the same
``repr``.  A side and links are different things: they never compare equal,
not even when both are empty.  Links refuse columns of unequal length, as
``SessionTrace`` refuses such a side.  Neither takes an attribute: setting
or deleting one, field or not, raises ``FrozenInstanceError``.
"""

import copy
import pickle
from array import array
from dataclasses import FrozenInstanceError

import pytest

from simulatency import TimedToken, TraceError
from simulatency.core import TokenSide, _Columns
from simulatency.evs import AlignmentLinks
from simulatency.trace_io import record_to_alignment

SIDE = TokenSide.of([TimedToken("a", 0.0, 120.0), TimedToken(None, 120.0, 300), TimedToken("c", 300, 310.5)])
RECORD = {"id": "a1", "links": [{"src": 1, "tgt": 2, "src_start": 0, "tgt_start": 950, "verified": True},
                                 {"src": 3, "tgt": 1, "src_start": 420, "tgt_start": 700}]}


def read_links():
    links = record_to_alignment(RECORD)[1]
    assert type(links.src_start) is array and type(links.tgt_start) is array
    return links


def copies(value):
    return copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))


@pytest.mark.parametrize("value", [SIDE, SIDE[1:], TokenSide(), read_links(), AlignmentLinks()],
                         ids=["side", "side-slice", "empty-side", "read-links", "empty-links"])
def test_copies_and_pickles_keep_class_equality_and_repr(value):
    for again in copies(value):
        assert type(again) is type(value)
        assert again == value and value == again and again == tuple(value)
        assert hash(again) == hash(value) == hash(tuple(value))
        assert repr(again) == repr(value)


@pytest.mark.parametrize("value", [SIDE, TokenSide(), read_links(), AlignmentLinks()],
                         ids=["side", "empty-side", "read-links", "empty-links"])
def test_sides_and_links_refuse_assignment_as_frozen_instances(value):
    field = value.__match_args__[0]
    for name in ("foo", "rows", field):
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, ())
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert not hasattr(value, "foo") and getattr(value, field) == getattr(copy.copy(value), field)


def test_read_links_keep_their_array_starts_through_a_copy():
    links = read_links()
    for again in copies(links):
        assert type(again.src_start) is array and type(again.tgt_start) is array
        assert again.src_start == array("d", (0.0, 420.0)) and again.verified == (True, False)


def test_a_side_never_equals_links():
    assert TokenSide() != AlignmentLinks() and AlignmentLinks() != TokenSide()
    assert not TokenSide() == AlignmentLinks()
    assert TokenSide() == () == AlignmentLinks()
    assert SIDE != read_links() and read_links() != SIDE


@pytest.mark.parametrize(
    "columns, message",
    [
        (((1, 2), (1,), (0.0, 1.0), (5.0, 6.0), (True, True)),
         "link columns differ in length: src 2, tgt 1, src_start 2, tgt_start 2, verified 2"),
        (((1,), (1,), array("d", (0.0,)), array("d"), (True,)),
         "link columns differ in length: src 1, tgt 1, src_start 1, tgt_start 0, verified 1"),
        (((), (), (), (), (False,)),
         "link columns differ in length: src 0, tgt 0, src_start 0, tgt_start 0, verified 1"),
    ],
)
def test_links_refuse_columns_of_unequal_length(columns, message):
    with pytest.raises(TraceError) as info:
        AlignmentLinks(*columns)
    assert str(info.value) == message


def test_sides_and_links_share_one_sequence_contract():
    members = ("of", "_columns", "rows", "__len__", "__getitem__", "__iter__", "__eq__", "__hash__")
    for cls in (TokenSide, AlignmentLinks):
        assert issubclass(cls, _Columns)
        assert [name for name in members if name in vars(cls)] == []
