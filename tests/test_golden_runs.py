"""Every golden in ``fixtures/`` is what its run in ``regen_goldens.RUNS`` gives.

The runs cover ``eval`` on the speech and mixed fixtures and ``evs`` on the
alignment fixture (CSV, JSON and stderr), ``concat`` with each pairing and
shift on the speech, mixed and contrast fixtures, ``simulate`` with each
strategy, and ``correlate`` on two committed reports (the exact and the
t-approximation p-value): every file byte for byte, and the exit code.
``test_golden.py``, ``test_mixed_report.py`` and ``test_evs_report.py``
also pin the seven ``eval`` and ``evs`` runs.  The README's "Fixtures"
section says what each fixture covers.
"""

import pytest

import regen_goldens


def test_every_golden_file_has_a_run():
    stems = {path.name.split(".")[0] for path in regen_goldens.FIXTURES.iterdir()}
    goldens = {stem for stem in stems if not stem.endswith(("_traces", "_alignments", "_digests"))}
    assert goldens == set(regen_goldens.RUNS)


@pytest.mark.parametrize("name", regen_goldens.RUNS)
def test_golden_run_reproduces_its_files(name):
    code, files = regen_goldens.run(name)
    assert code == regen_goldens.RUNS[name][0], files["stderr"].decode()
    assert files == regen_goldens.committed(name)
