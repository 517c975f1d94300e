"""Spearman rank correlation with tie handling and pairwise deletion.

Rows where either column is absent (None or NaN) are dropped pairwise before
ranking, mirroring how sentences without usable alignments fall out of corpus
tables.  Ties receive their average rank and the coefficient is the Pearson
correlation of the rank vectors, which stays correct under ties.

The p-value is two-sided: an exact permutation test for n <= 8 (small desk
experiments deserve exact answers) and the usual Student-t approximation
above that.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import NamedTuple, Sequence


class StatsError(ValueError):
    """Correlation cannot be computed on this input."""


class SpearmanResult(NamedTuple):
    rho: float
    pvalue: float
    n: int


def _is_absent(value) -> bool:
    if value is None:
        return True
    try:
        return math.isnan(value)
    except TypeError:
        return False


def average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks, ties sharing their mean rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j + 2) / 2  # ranks i+1 .. j+1
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def _pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        raise StatsError("constant column: ranks are undefined")
    return cov / math.sqrt(var_x * var_y)


def _beta_cf(a: float, b: float, x: float) -> float:
    # modified Lentz continued fraction for the incomplete beta function
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            h *= d * c
        if abs(d * c - 1.0) < 3e-14:
            break
    return h


def _reg_incomplete_beta(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _t_two_sided_pvalue(t: float, df: int) -> float:
    # P(|T| >= t) = I_{df/(df+t^2)}(df/2, 1/2)
    if math.isinf(t):
        return 0.0
    return _reg_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


def _exact_pvalue(ranks_a: list[float], ranks_b: list[float], rho: float) -> float:
    n = len(ranks_a)
    mean = (n + 1) / 2
    centered_a = [r - mean for r in ranks_a]
    centered_b = [r - mean for r in ranks_b]
    denom = math.sqrt(
        sum(v * v for v in centered_a) * sum(v * v for v in centered_b)
    )
    threshold = abs(rho) - 1e-12
    hits = 0
    total = 0
    for perm in permutations(centered_b):
        total += 1
        dot = sum(x * y for x, y in zip(centered_a, perm))
        if abs(dot / denom) >= threshold:
            hits += 1
    return hits / total


def spearman(a: Sequence[float | None], b: Sequence[float | None]) -> SpearmanResult:
    """Spearman's rho between two columns, with the sample size actually used.

    Raises StatsError when fewer than 3 complete pairs remain or when a
    column is constant after deletion.
    """
    if len(a) != len(b):
        raise StatsError(f"column lengths differ: {len(a)} vs {len(b)}")
    pairs = [(x, y) for x, y in zip(a, b) if not (_is_absent(x) or _is_absent(y))]
    n = len(pairs)
    if n < 3:
        raise StatsError(f"insufficient samples: {n} complete pairs")
    ranks_a = average_ranks([x for x, _ in pairs])
    ranks_b = average_ranks([y for _, y in pairs])
    rho = _pearson(ranks_a, ranks_b)
    rho = max(-1.0, min(1.0, rho))
    if n <= 8:
        pvalue = _exact_pvalue(ranks_a, ranks_b, rho)
    elif abs(rho) == 1.0:
        pvalue = 0.0
    else:
        t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
        pvalue = _t_two_sided_pvalue(abs(t), n - 2)
    return SpearmanResult(rho=rho, pvalue=pvalue, n=n)
