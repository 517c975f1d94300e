import math
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simulatency import (
    CA,
    RATIO_HYPOTHESIS,
    RATIO_LENGTH_ADAPTIVE,
    RATIO_REFERENCE,
    SPEECH_TO_TEXT,
    SessionTrace,
    StepMetricInput,
    TimedToken,
    TraceError,
    atd_steps,
    atd_timed,
    average_lagging,
    average_proportion,
    build_nca_timeline,
    consecutive_wait,
    corresponding_input_indices,
    cutoff_step,
    dal_adjusted_reads,
    differentiable_average_lagging,
)


def wait_k(k, m, n):
    return StepMetricInput(
        reads=tuple(min(k + t - 1, m) for t in range(1, n + 1)), src_len=m, tgt_len=n
    )


def chunk_k(k, m, n):
    return StepMetricInput(
        reads=tuple(min(math.ceil(t / k) * k, m) for t in range(1, n + 1)),
        src_len=m,
        tgt_len=n,
    )


def all_monotone_reads(m, n):
    """Every non-decreasing g with 1 <= g(t) <= m and |g| = n."""
    return combinations_with_replacement(range(1, m + 1), n)


# ---------------------------------------------------------------------------
# average lagging
# ---------------------------------------------------------------------------

def test_al_chunk19_matches_closed_form():
    assert average_lagging(chunk_k(19, 20, 20)) == 9.55


def test_al_chunk20_is_source_length():
    assert average_lagging(chunk_k(20, 20, 20)) == 20.0


@pytest.mark.parametrize("k", range(1, 20))
def test_al_wait_k_equals_k(k):
    assert average_lagging(wait_k(k, 20, 20)) == pytest.approx(k, abs=1e-9)


@pytest.mark.parametrize("k", range(1, 20))
def test_al_ratio_modes_coincide_when_ref_matches_hypothesis(k):
    inp = wait_k(k, 20, 20)
    with_ref = StepMetricInput(inp.reads, inp.src_len, inp.tgt_len, ref_len=20)
    assert average_lagging(with_ref) == average_lagging(with_ref, RATIO_REFERENCE)
    assert average_lagging(with_ref) == average_lagging(with_ref, RATIO_LENGTH_ADAPTIVE)


def test_al_negative_on_early_stop():
    inp = StepMetricInput(reads=(1, 2), src_len=10, tgt_len=2)
    assert average_lagging(inp) == pytest.approx(-1.0)
    assert average_lagging(inp) < 0


def test_laal_repairs_the_negative_case():
    inp = StepMetricInput(reads=(1, 2), src_len=10, tgt_len=2, ref_len=10)
    assert average_lagging(inp, RATIO_LENGTH_ADAPTIVE) == pytest.approx(1.0)
    assert average_lagging(inp, RATIO_LENGTH_ADAPTIVE) >= 0


def test_cutoff_falls_back_to_target_length_on_early_stop():
    assert cutoff_step(StepMetricInput((1, 2), 10, 2)) == 2
    assert cutoff_step(StepMetricInput((3, 3, 3), 3, 3)) == 1


def test_reference_modes_require_ref_len():
    inp = StepMetricInput((1, 2), 2, 2)
    with pytest.raises(TraceError, match="reference"):
        average_lagging(inp, RATIO_REFERENCE)
    with pytest.raises(TraceError, match="reference"):
        average_lagging(inp, RATIO_LENGTH_ADAPTIVE)


def test_unknown_ratio_mode_rejected():
    with pytest.raises(ValueError):
        average_lagging(StepMetricInput((1,), 1, 1), "bogus")


def test_empty_reads_rejected():
    with pytest.raises(TraceError, match="empty"):
        StepMetricInput(reads=(), src_len=3, tgt_len=0)


@pytest.mark.parametrize("g", [1.5, 2.0, True])
def test_step_input_refuses_a_read_that_is_not_an_int(g):
    with pytest.raises(TraceError, match=rf"^g\(2\) = {g!r} is not an integer$"):
        StepMetricInput(reads=(1, g), src_len=3, tgt_len=2)


def test_step_input_refuses_a_fractional_source_length_and_a_boolean_reference_length():
    with pytest.raises(TraceError, match=r"^src_len = 2.5 is not an integer$"):
        StepMetricInput(reads=(1, 2), src_len=2.5, tgt_len=2, ref_len=True)
    with pytest.raises(TraceError, match=r"^ref_len = True is not an integer$"):
        StepMetricInput(reads=(1, 2), src_len=2, tgt_len=2, ref_len=True)


@pytest.mark.parametrize("field", ["src_len", "tgt_len", "ref_len"])
@pytest.mark.parametrize("value", [2.0, False, "2"])
def test_step_input_refuses_a_length_that_is_not_an_int(field, value):
    lengths = {"src_len": 2, "tgt_len": 2, "ref_len": 2, field: value}
    with pytest.raises(TraceError, match=rf"^{field} = {value!r} is not an integer$"):
        StepMetricInput(reads=(1, 2), **lengths)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"src_len": 0}, "src_len must be >= 1, got 0"),
        ({"reads": (), "tgt_len": 0}, "empty reads: nothing was translated"),
        ({"tgt_len": 3}, "2 reads for tgt_len 3"),
        ({"reads": (0, 1)}, "g(1) = 0 outside 1..3"),
        ({"reads": (1, 4)}, "g(2) = 4 outside 1..3"),
        ({"reads": (3, 2)}, "reads not monotone at position 2"),
        ({"ref_len": 0}, "ref_len must be >= 1, got 0"),
    ],
)
def test_step_input_error_texts(fields, message):
    with pytest.raises(TraceError) as info:
        StepMetricInput(**{"reads": (1, 3), "src_len": 3, "tgt_len": 2, **fields})
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# DAL
# ---------------------------------------------------------------------------

def test_dal_wait3_is_three():
    assert differentiable_average_lagging(wait_k(3, 20, 20)) == pytest.approx(3.0)


def test_dal_chunk20_is_twenty():
    assert differentiable_average_lagging(chunk_k(20, 20, 20)) == pytest.approx(20.0)


def test_dal_single_token():
    assert differentiable_average_lagging(StepMetricInput((1,), 1, 1)) == pytest.approx(1.0)


def test_dal_adjusted_reads_dominate_reads():
    for m in range(1, 7):
        for n in range(1, 7):
            for reads in all_monotone_reads(m, n):
                inp = StepMetricInput(reads, m, n)
                for g, g_prime in zip(inp.reads, dal_adjusted_reads(inp)):
                    assert g_prime >= g


# ---------------------------------------------------------------------------
# AP and CW
# ---------------------------------------------------------------------------

def test_ap_is_one_when_everything_read_up_front():
    assert average_proportion(StepMetricInput((2, 2), 2, 2)) == pytest.approx(1.0)


def test_ap_wait1_small():
    assert average_proportion(StepMetricInput((1, 2), 2, 2)) == pytest.approx(0.75)


def test_ap_wait1_twenty():
    assert average_proportion(wait_k(1, 20, 20)) == pytest.approx(0.525)


def test_cw_wait1_is_one():
    assert consecutive_wait(wait_k(1, 20, 20)) == pytest.approx(1.0)


def test_cw_chunk20_is_twenty():
    assert consecutive_wait(chunk_k(20, 20, 20)) == pytest.approx(20.0)


def test_cw_wait5():
    assert consecutive_wait(wait_k(5, 20, 20)) == pytest.approx(1.25)


# ---------------------------------------------------------------------------
# step ATD and the matched-input recurrence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", range(1, 21))
def test_atd_steps_wait_k_equals_k(k):
    assert atd_steps(wait_k(k, 20, 20)) == pytest.approx(k, abs=1e-9)


def test_atd_steps_chunk20():
    assert atd_steps(chunk_k(20, 20, 20)) == pytest.approx(20.0)


def test_verbose_first_chunk_matches_last_input_token():
    # 4 output tokens from a fully read 3-token source: the tail maps to x3
    assert corresponding_input_indices((3, 3, 3, 3)) == (1, 2, 3, 3)


def test_atd_steps_verbose_first_chunk_value():
    assert atd_steps(StepMetricInput((3, 3, 3, 3), 3, 4)) == pytest.approx(13 / 4)


def test_surplus_carries_into_next_chunk():
    # second chunk starts one token behind after a long first translation
    assert corresponding_input_indices((3, 3, 3, 3, 5, 5)) == (1, 2, 3, 3, 4, 5)


def oracle_matches(reads):
    """Independent formulation: a(t) = t minus the worst output surplus so far,
    where the surplus of a prefix is how far output length exceeds reads."""
    out = []
    for t in range(1, len(reads) + 1):
        surplus = max(0, max(j - reads[j - 1] for j in range(1, t + 1)))
        out.append(t - surplus)
    return tuple(out)


def test_matched_indices_agree_with_surplus_oracle_exhaustively():
    for m in range(1, 7):
        for n in range(1, 7):
            for reads in all_monotone_reads(m, n):
                assert corresponding_input_indices(reads) == oracle_matches(reads)


def test_matched_indices_properties_exhaustively():
    for m in range(1, 7):
        for n in range(1, 7):
            for reads in all_monotone_reads(m, n):
                matched = corresponding_input_indices(reads)
                prev = 0
                for t, (a, g) in enumerate(zip(matched, reads), start=1):
                    assert 1 <= a <= t
                    assert a <= g
                    assert a >= prev
                    prev = a


def transcribed_output_times(reads):
    """T(y_t) = max(T(x_g(t)), T(y_{t-1})) + 1 with T(x_j) = j and T(y_0) = 0."""
    times = []
    prev = 0
    for g in reads:
        prev = max(g, prev) + 1
        times.append(prev)
    return times


def transcribed_al(reads, m, n, r):
    """Ma et al. (2019): the mean of g(t) - (t-1)/r up to the cut-off step."""
    tau = next((t for t, g in enumerate(reads, start=1) if g == m), n)
    return sum(reads[t - 1] - (t - 1) / r for t in range(1, tau + 1)) / tau


def transcribed_dal(reads, m, n):
    """Cherry & Foster (2019): g'(1) = g(1), g'(t) = max(g(t), g'(t-1) + |x|/|y|);
    DAL is the mean of g'(t) - (t-1)/gamma over every t, gamma = |y|/|x|."""
    adjusted = [float(reads[0])]
    for g in reads[1:]:
        adjusted.append(max(float(g), adjusted[-1] + m / n))
    gamma = n / m
    return tuple(adjusted), sum(adjusted[t - 1] - (t - 1) / gamma for t in range(1, n + 1)) / n


def transcribed_bursts(reads):
    """The number of read bursts: the steps t whose g(t) exceeds g(t-1), g(0) = 0."""
    bursts = 0
    prev = 0
    for g in reads:
        if g > prev:
            bursts += 1
        prev = g
    return bursts


def unit_clock_session(reads, m):
    """A ca session on the unit clock: source token j spans [j-1, j), every
    target token spans [0, 1), and no computation spans."""
    return SessionTrace(
        id="unit",
        modality=SPEECH_TO_TEXT,
        timeline_kind=CA,
        source=tuple(TimedToken(None, j - 1, j) for j in range(1, m + 1)),
        target=tuple(TimedToken(None, 0, 1) for _ in reads),
        reads=reads,
        spans=(),
    )


def assert_kernels_equal_transcribed_formulas(reads, m):
    n = len(reads)
    inp = StepMetricInput(reads, m, n, ref_len=m)
    matched = oracle_matches(reads)
    times = transcribed_output_times(reads)
    closed = [
        t + 1 + max(reads[s - 1] - s for s in range(1, t + 1))
        for t in range(1, n + 1)
    ]
    assert times == closed
    total = 0.0
    for t_out, a in zip(times, matched):
        total += t_out - a
    assert atd_steps(inp) == total / n
    assert atd_steps(inp) == atd_timed(build_nca_timeline(unit_clock_session(reads, m)))
    adjusted, dal = transcribed_dal(reads, m, n)
    assert dal_adjusted_reads(inp) == adjusted
    assert differentiable_average_lagging(inp) == dal
    assert average_lagging(inp) == transcribed_al(reads, m, n, n / m)
    assert average_lagging(inp, RATIO_REFERENCE) == transcribed_al(reads, m, n, m / m)
    assert average_lagging(inp, RATIO_LENGTH_ADAPTIVE) == transcribed_al(
        reads, m, n, max(n, m) / m
    )
    assert cutoff_step(inp) == next((t for t, g in enumerate(reads, start=1) if g == m), n)
    assert average_proportion(inp) == sum(reads) / (m * n)
    assert consecutive_wait(inp) == m / transcribed_bursts(reads)


def test_kernels_equal_their_transcribed_formulas_exhaustively():
    for m in range(1, 7):
        for n in range(1, 7):
            for reads in all_monotone_reads(m, n):
                assert_kernels_equal_transcribed_formulas(reads, m)


@st.composite
def long_schedules(draw):
    """A read schedule of up to 300 tokens over a source of up to 300."""
    m = draw(st.integers(1, 300))
    n = draw(st.integers(1, 300))
    return tuple(sorted(draw(st.lists(st.integers(1, m), min_size=n, max_size=n)))), m


def exact_lagging(schedule, r, cutoff):
    return sum(schedule[t] - Fraction(t) / r for t in range(cutoff)) / cutoff


@settings(max_examples=40, deadline=None)
@given(long_schedules())
def test_kernels_equal_their_transcribed_formulas_on_long_schedules(schedule):
    reads, m = schedule
    n = len(reads)
    assert_kernels_equal_transcribed_formulas(reads, m)
    # the float sums stay within rounding of the exact rational values
    inp = StepMetricInput(reads, m, n, ref_len=m)
    cutoff = next((t for t, g in enumerate(reads, start=1) if g == m), n)
    ratios = {
        RATIO_HYPOTHESIS: Fraction(n, m),
        RATIO_REFERENCE: Fraction(1),
        RATIO_LENGTH_ADAPTIVE: Fraction(max(n, m), m),
    }
    for mode, r in ratios.items():
        exact_al = exact_lagging(reads, r, cutoff)
        assert average_lagging(inp, mode) == pytest.approx(exact_al, rel=1e-12, abs=1e-9)
    adjusted = [Fraction(reads[0])]
    for g in reads[1:]:
        adjusted.append(max(Fraction(g), adjusted[-1] + Fraction(m, n)))
    exact_dal = exact_lagging(adjusted, Fraction(n, m), n)
    assert differentiable_average_lagging(inp) == pytest.approx(exact_dal, rel=1e-12, abs=1e-9)
