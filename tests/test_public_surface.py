"""``simulatency.__all__`` lists exactly the public names the package binds,
and the names taken out of the library stay out.

Removed, each for want of a caller outside the tests: ``write_sessions``
(``cli`` writes traces with ``session_to_record``), ``write_alignments`` (no
command writes alignments), ``subsegment_speech`` (``subsegment_session``
splits a session's speech chunks), ``TimedToken.timed`` and
``TimedToken.duration``, ``+`` on a ``TokenSide``, and the contrast-pair
constructors ``contrast_balanced``, ``contrast_frontloaded`` and
``contrast_alignments`` (``fixtures/contrast_traces.jsonl`` and
``fixtures/contrast_alignments.jsonl`` are the one copy of that pair), and
``AlignmentLinks.select`` and ``AlignedPair.span`` (``evs._tally`` is the one
rule that picks a sentence's links by mode and spans a link).
"""

import importlib
import inspect

import pytest

import simulatency
from simulatency.core import TimedToken, TokenSide
from simulatency.evs import AlignedPair, AlignmentLinks

REMOVED_FUNCTIONS = (
    "contrast_alignments",
    "contrast_balanced",
    "contrast_frontloaded",
    "subsegment_speech",
    "write_alignments",
    "write_sessions",
)
MODULES = ("simulatency", "simulatency.core", "simulatency.sim", "simulatency.trace_io")


def test_all_lists_every_public_name_the_package_binds():
    bound = {
        name
        for name, value in vars(simulatency).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(simulatency.__all__) == len(set(simulatency.__all__))
    assert set(simulatency.__all__) == bound


@pytest.mark.parametrize("module", MODULES)
@pytest.mark.parametrize("name", REMOVED_FUNCTIONS)
def test_a_removed_function_cannot_be_imported(module, name):
    assert not hasattr(importlib.import_module(module), name)
    with pytest.raises(ImportError):
        exec(f"from {module} import {name}", {})


def test_removed_token_helpers_are_gone():
    token = TimedToken("a", 0.0, 300.0)
    assert not hasattr(token, "timed") and not hasattr(token, "duration")
    side = TokenSide.of((token,))
    for other in (side, (token,)):
        with pytest.raises(TypeError):
            side + other
        with pytest.raises(TypeError):
            other + side


def test_removed_link_helpers_are_gone():
    assert not hasattr(AlignmentLinks(), "select")
    assert not hasattr(AlignedPair(1, 1, 0.0, 0.0), "span")
