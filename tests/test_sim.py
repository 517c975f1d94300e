import csv

import pytest

from simulatency import (
    STEPS,
    StepMetricInput,
    atd_steps,
    gen_two_segment,
    gen_chunk_k,
    gen_wait_k,
)
from simulatency.cli import main

from test_metrics_time import contrast_pair


def test_wait1_reads():
    assert gen_wait_k(1, 3, 3).reads == (1, 2, 3)


def test_wait3_reads_clamp_at_source_length():
    s = gen_wait_k(3, 20, 20)
    assert s.reads == tuple(min(3 + t - 1, 20) for t in range(1, 21))
    assert s.timeline_kind == STEPS


def test_wait_k_beyond_source_degenerates_to_offline():
    s = gen_wait_k(25, 20, 20)
    assert set(s.reads) == {20}


def test_chunk19_reads():
    s = gen_chunk_k(19, 20, 20)
    assert s.reads == tuple([19] * 19 + [20])


def test_chunk20_reads():
    assert set(gen_chunk_k(20, 20, 20).reads) == {20}


def test_chunk1_equals_wait1():
    assert gen_chunk_k(1, 20, 20).reads == gen_wait_k(1, 20, 20).reads


def test_two_segment_shapes():
    assert gen_two_segment(10).reads == tuple([10] * 10 + [20] * 10)
    assert gen_two_segment(1).reads == tuple([10] + [20] * 10)
    assert gen_two_segment(20).reads == tuple([10] * 20 + [20] * 10)
    assert gen_two_segment(5).src_len == 20
    assert gen_two_segment(5).tgt_len == 15


def test_generator_argument_validation():
    with pytest.raises(ValueError):
        gen_wait_k(0, 20, 20)
    with pytest.raises(ValueError):
        gen_chunk_k(3, 0, 20)
    with pytest.raises(ValueError):
        gen_two_segment(0)


# ---------------------------------------------------------------------------
# metric curves across a parameter range: simulate | eval
# ---------------------------------------------------------------------------

def simulated_curves(tmp_path, capsys, strategy, param_flag):
    """Each of al, dal and atd as {parameter: value} for parameters 1..20,
    from ``simulate`` piped into ``eval`` (via a file) in-process."""
    traces = str(tmp_path / f"{strategy}.jsonl")
    assert main(["simulate", "--strategy", strategy, param_flag, "1..20", "-o", traces]) == 0
    assert main(["eval", traces, "--metrics", "al,dal,atd"]) == 0
    rows = [r for r in csv.DictReader(capsys.readouterr().out.splitlines()) if r["id"] != "corpus"]
    assert len(rows) == 20
    return {
        name: {param: float(row[name]) for param, row in enumerate(rows, start=1)}
        for name in ("al", "dal", "atd")
    }


def test_cli_wait_k_and_chunk_k_atd_curves_agree(tmp_path, capsys):
    wait = simulated_curves(tmp_path, capsys, "wait-k", "--k")["atd"]
    chunk = simulated_curves(tmp_path, capsys, "chunk-k", "--k")["atd"]
    for k in range(1, 21):
        assert wait[k] == pytest.approx(chunk[k], abs=1e-12)


def test_two_segment_atd_regimes(tmp_path, capsys):
    atd = simulated_curves(tmp_path, capsys, "two-segment", "--first-len")["atd"]
    for first in range(1, 10):
        assert atd[first] > atd[first + 1]
    for first in range(10, 20):
        assert atd[first] < atd[first + 1]


def test_two_segment_atd_minimum_at_symmetric_split(tmp_path, capsys):
    atd = simulated_curves(tmp_path, capsys, "two-segment", "--first-len")["atd"]
    assert min(atd, key=atd.get) == 10


def test_two_segment_al_monotone_non_increasing(tmp_path, capsys):
    al = simulated_curves(tmp_path, capsys, "two-segment", "--first-len")["al"]
    for first in range(1, 20):
        assert al[first] >= al[first + 1] - 1e-12


def test_two_segment_dal_never_increases(tmp_path, capsys):
    dal = simulated_curves(tmp_path, capsys, "two-segment", "--first-len")["dal"]
    for first in range(1, 20):
        assert dal[first] >= dal[first + 1] - 1e-12


# ---------------------------------------------------------------------------
# the committed contrast fixture on the unit-step clock
# ---------------------------------------------------------------------------

def test_fixture_atd_steps_ordering_matches_timed_ordering():
    i1, i2 = (StepMetricInput.from_session(s) for s in contrast_pair())
    assert atd_steps(i2) > atd_steps(i1)
