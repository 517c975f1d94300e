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

The README's library section lists each ``__all__`` name once, and names
no other public name of the package without its module.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

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
# public names that the README marks for removal
SLATED = {"chunk_ends_from_reads", "dedupe_pairs", "regroup_tokens"}
README = Path(__file__).resolve().parent.parent / "README.md"


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


def library_section():
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]


def package_names():
    """The public names that the modules of the package define or bind from
    one another, constants included: no module and nothing from elsewhere."""
    names = set()
    for info in pkgutil.iter_modules(simulatency.__path__):
        for name, value in vars(importlib.import_module(f"simulatency.{info.name}")).items():
            if not name.startswith("_") and not inspect.ismodule(value):
                if getattr(value, "__module__", "simulatency").startswith("simulatency"):
                    names.add(name)
    return names


def test_the_readme_lists_each_name_of_all_once():
    listed = library_section().split("\n### Public names\n", 1)[1].split("\n### ", 1)[0]
    entries = {}  # each item's names, before its first colon, and its text
    for item in re.split(r"\n- ", listed.split("\n- ", 1)[1]):
        head, text = item.split(":", 1)
        entries[tuple(re.findall(r"`(\w+)`", head))] = text
    names = [name for entry in entries for name in entry]
    assert len(names) == len(set(names))
    assert set(names) == set(simulatency.__all__)
    assert all(len(entry) == 1 or all(map(str.isupper, entry)) for entry in entries)
    slated = {name for entry, text in entries.items() if "Slated for removal" in text for name in entry}
    assert slated == SLATED


def test_the_readme_names_no_public_name_that_all_lacks():
    named = set(re.findall(r"`([A-Za-z_]\w*)`", library_section()))
    assert named & package_names() <= set(simulatency.__all__)
