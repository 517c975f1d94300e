"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import time
from itertools import combinations_with_replacement

import pytest

from simulatency import (
    RATIO_LENGTH_ADAPTIVE,
    StepMetricInput,
    atd_steps,
    atd_timed,
    average_lagging,
    corresponding_input_indices,
    differentiable_average_lagging,
    gen_two_segment,
    gen_chunk_k,
    gen_wait_k,
    mean_evs,
    spearman,
)
from simulatency import StatsError

from test_metrics_time import contrast_links, contrast_pair, shifted


def criterion(number, description):
    def decorate(fn):
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"criterion {number}: FAIL - {description}")
                raise
            print(f"criterion {number}: PASS - {description}")

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorate


def step_input(session, ref_len=None):
    return StepMetricInput.from_session(session, ref_len=ref_len)


@criterion(1, "chunk-19 and chunk-20 average lagging reproduced exactly")
def test_criterion_1_exact_al_reproduction():
    started = time.perf_counter()
    assert average_lagging(step_input(gen_chunk_k(19, 20, 20))) == 9.55
    assert average_lagging(step_input(gen_chunk_k(20, 20, 20))) == 20.0
    assert time.perf_counter() - started < 1.0


@criterion(2, "wait-k closed forms: AL = DAL = step ATD = k for k = 1..19")
def test_criterion_2_wait_k_closed_forms():
    for k in range(1, 20):
        inp = step_input(gen_wait_k(k, 20, 20))
        assert abs(average_lagging(inp) - k) < 1e-9
        assert abs(differentiable_average_lagging(inp) - k) < 1e-9
        assert abs(atd_steps(inp) - k) < 1e-9


@criterion(3, "wait-k and chunk-k agree on ATD and DAL but not on AL")
def test_criterion_3_strategy_equivalence():
    al_gap = False
    for k in range(1, 21):
        wait_inp = step_input(gen_wait_k(k, 20, 20))
        chunk_inp = step_input(gen_chunk_k(k, 20, 20))
        assert abs(atd_steps(wait_inp) - atd_steps(chunk_inp)) < 1e-9
        assert abs(
            differentiable_average_lagging(wait_inp)
            - differentiable_average_lagging(chunk_inp)
        ) < 1e-9
        if abs(average_lagging(wait_inp) - average_lagging(chunk_inp)) > 1e-9:
            al_gap = True
    assert al_gap


@criterion(4, "two-segment sweep: ATD V-shape, AL non-increasing, DAL never increases")
def test_criterion_4_two_segment_shape():
    started = time.perf_counter()
    atd = {}
    al = {}
    dal = {}
    for first in range(1, 21):
        inp = step_input(gen_two_segment(first))
        atd[first] = atd_steps(inp)
        al[first] = average_lagging(inp)
        dal[first] = differentiable_average_lagging(inp)
    for first in range(1, 9):
        assert atd[first] > atd[first + 1]
    for first in range(11, 20):
        assert atd[first] < atd[first + 1]
    for first in range(1, 20):
        assert al[first] >= al[first + 1] - 1e-12
        assert dal[first] >= dal[first + 1] - 1e-12
    assert time.perf_counter() - started < 1.0


@criterion(5, "two-case fixture: AL and DAL favor the front-loaded case, ATD and EVS do not")
def test_criterion_5_case_fixture_orderings():
    case1, case2 = contrast_pair()
    inp1, inp2 = step_input(case1), step_input(case2)
    assert average_lagging(inp1) > average_lagging(inp2)
    assert differentiable_average_lagging(inp1) > differentiable_average_lagging(inp2)
    assert atd_timed(case1) < atd_timed(case2)
    links = contrast_links()
    assert mean_evs(links[case1.id]) < mean_evs(links[case2.id])


@criterion(6, "early-stop schedule drives AL negative while LAAL stays non-negative")
def test_criterion_6_al_negativity_pathology():
    inp = StepMetricInput(reads=(1, 2), src_len=10, tgt_len=2, ref_len=10)
    assert average_lagging(inp) < 0
    assert average_lagging(inp, RATIO_LENGTH_ADAPTIVE) >= 0


@criterion(7, "matched-index recurrence equals the surplus oracle; timed ATD is shift-invariant")
def test_criterion_7_atd_oracle_equivalence():
    for src_len in range(1, 7):
        for tgt_len in range(1, 7):
            for reads in combinations_with_replacement(range(1, src_len + 1), tgt_len):
                expected = []
                for t in range(1, tgt_len + 1):
                    surplus = max(0, max(j - reads[j - 1] for j in range(1, t + 1)))
                    expected.append(t - surplus)
                assert corresponding_input_indices(reads) == tuple(expected)
    for offset in (1.0, 1000.0, 10.0**6):
        for session in contrast_pair():
            assert atd_timed(shifted(session, offset)) == pytest.approx(
                atd_timed(session), abs=1e-6
            )


@criterion(8, "Spearman sanity: endpoints, tie example at 0.9, pairwise deletion")
def test_criterion_8_spearman_sanity():
    unsorted = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3]
    assert spearman(unsorted, unsorted).rho == pytest.approx(1.0, abs=1e-12)
    increasing = [0.5, 1.0, 2.5, 4.0, 8.0, 16.5, 32.0]
    assert spearman(increasing, list(reversed(increasing))).rho == pytest.approx(
        -1.0, abs=1e-12
    )
    assert spearman([1, 2, 3, 4, 5], [1, 2, 3, 5, 4]).rho == pytest.approx(
        0.9, abs=1e-9
    )
    evs_column = [1.0, None, 2.0, 3.0, None, 4.0, 5.0]
    metric_column = [1.0, 2.0, 2.0, 3.0, 4.0, 4.0, 5.0]
    assert spearman(metric_column, evs_column).n == 5
    with pytest.raises(StatsError):
        spearman([1.0, None, 2.0], [1.0, 1.0, 2.0])
