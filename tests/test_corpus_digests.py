"""The outputs of ``regen_digests.RUNS`` are those ``fixtures/corpus_digests.json`` pins.

``eval`` on every timeline, with ``char:2`` and with a ``--strict`` metric
subset, on the speech, text and concat corpora, and with ``--timeline nca``
at two tau on the speech corpus; ``evs`` in both modes; and
``concat`` two ways: stdout, stderr, exit code and every report file, as
sha256, over seed-1 corpora from ``bench/gen.py``.
"""

import json

import regen_digests


def test_manifest_lists_every_run_and_input():
    committed = json.loads(regen_digests.MANIFEST.read_text(encoding="utf-8"))
    assert set(committed["runs"]) == set(regen_digests.RUNS)
    assert set(committed["inputs"]) == set(regen_digests.CORPORA)


def test_every_run_gives_its_committed_digests():
    committed = json.loads(regen_digests.MANIFEST.read_text(encoding="utf-8"))
    assert regen_digests.differences(regen_digests.manifest(), committed) == []
