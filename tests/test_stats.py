import math

import pytest

from simulatency import SpearmanResult, StatsError, spearman
from simulatency.stats import average_ranks


def test_identical_columns_give_perfect_correlation():
    result = spearman([1.0, 2.5, 3.0, 7.0, 9.0], [1.0, 2.5, 3.0, 7.0, 9.0])
    assert result.rho == pytest.approx(1.0)
    assert result.n == 5


def test_reversed_columns_give_perfect_anticorrelation():
    xs = [3.0, 5.0, 8.0, 13.0, 21.0]
    result = spearman(xs, list(reversed(xs)))
    assert result.rho == pytest.approx(-1.0)


def test_single_swap_example():
    result = spearman([1, 2, 3, 4, 5], [1, 2, 3, 5, 4])
    assert result.rho == pytest.approx(0.9, abs=1e-9)
    # exact permutation count: 5 permutations reach rho >= 0.9 and 5 reach
    # rho <= -0.9 out of 120
    assert result.pvalue == pytest.approx(10 / 120)


def test_pairwise_deletion_drops_absent_rows():
    a = [1.0, None, 2.0, 3.0, float("nan"), 4.0]
    b = [1.0, 5.0, 2.0, None, 6.0, 4.0]
    result = spearman(a, b)
    assert result.n == 3
    assert result.rho == pytest.approx(1.0)


def test_insufficient_samples_rejected():
    with pytest.raises(StatsError, match="insufficient"):
        spearman([1.0, 2.0], [2.0, 1.0])
    with pytest.raises(StatsError, match="insufficient"):
        spearman([1.0, None, 2.0, None], [1.0, 1.0, 2.0, 2.0])


def test_constant_column_rejected():
    with pytest.raises(StatsError, match="constant"):
        spearman([1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0])


def test_length_mismatch_rejected():
    with pytest.raises(StatsError):
        spearman([1.0, 2.0, 3.0], [1.0, 2.0])


def test_invariant_under_monotone_transforms():
    a = [0.5, 2.0, 3.5, 8.0, 13.0, 1.0, 9.5]
    b = [12.0, 3.0, 7.0, 4.0, 9.0, 10.0, 2.0]
    base = spearman(a, b).rho
    assert spearman([math.exp(x) for x in a], b).rho == pytest.approx(base)
    assert spearman(a, [x**3 for x in b]).rho == pytest.approx(base)


def test_symmetry():
    a = [1.0, 4.0, 2.0, 9.0, 5.0]
    b = [3.0, 1.0, 8.0, 2.0, 7.0]
    assert spearman(a, b).rho == pytest.approx(spearman(b, a).rho)
    assert spearman(a, b).pvalue == pytest.approx(spearman(b, a).pvalue)


def test_ties_use_average_ranks():
    assert average_ranks([10.0, 20.0, 20.0, 30.0]) == [1.0, 2.5, 2.5, 4.0]
    assert average_ranks([5.0, 5.0, 5.0]) == [2.0, 2.0, 2.0]
    result = spearman([1.0, 2.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
    assert result.rho == pytest.approx(math.sqrt(0.9))


def _t_sf_two_sided_by_quadrature(t, df):
    """Independent check: integrate the t density over [t, inf) by Simpson."""

    def pdf(u):
        log_norm = (
            math.lgamma((df + 1) / 2)
            - math.lgamma(df / 2)
            - 0.5 * math.log(df * math.pi)
        )
        return math.exp(log_norm - (df + 1) / 2 * math.log(1 + u * u / df))

    hi = t + 400.0
    steps = 200_000
    h = (hi - t) / steps
    total = pdf(t) + pdf(hi)
    for i in range(1, steps):
        total += pdf(t + i * h) * (4 if i % 2 else 2)
    return 2 * total * h / 3


@pytest.mark.parametrize(
    "a,b",
    [
        (list(range(1, 11)), [1, 2, 3, 4, 5, 6, 7, 8, 10, 9]),
        (list(range(1, 13)), [2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11]),
        (list(range(1, 15)), [1, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 14, 12]),
        (list(range(1, 11)), [3, 1, 4, 10, 5, 9, 2, 6, 8, 7]),
        (list(range(1, 10)), [1, 3, 7, 9, 8, 6, 5, 4, 2]),  # rho = 0: the x >= 1 return
    ],
)
def test_t_approximation_pvalue_matches_quadrature(a, b):
    result = spearman(a, b)
    t = abs(result.rho) * math.sqrt((result.n - 2) / (1 - result.rho**2))
    expected = _t_sf_two_sided_by_quadrature(t, result.n - 2)
    assert result.pvalue == pytest.approx(expected, abs=1e-6)


def test_perfect_correlation_has_zero_pvalue_large_n():
    xs = list(range(1, 13))
    assert spearman(xs, xs).pvalue == 0.0
    assert spearman(xs, list(reversed(xs))).pvalue == 0.0


def test_result_is_named_tuple():
    result = spearman([1, 2, 3], [1, 2, 3])
    assert isinstance(result, SpearmanResult)
    rho, p, n = result
    assert rho == pytest.approx(1.0) and n == 3
