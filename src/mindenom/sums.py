"""Exact identities for sums of grid minimal denominators.

Write q_j for the minimal denominator of the j-th window ](j-1)/n, j/n] and
S(n) = q_1 + ... + q_n.  Everything here rests on one combinatorial fact: a
coprime pair (r, s) occurs as consecutive denominators of the Farey sequence
of order k exactly when max(r, s) <= k < r + s, and the gap between the two
fractions is then 1/(r s).  Grouping over k turns window counts into sums
over coprime pairs with r s <= n, which integer arithmetic evaluates exactly.

The quantities provided, all exact rationals unless stated otherwise:

* count_above(n, k): number of windows with q_j > k, either by direct count
  or through the Farey-gap formula n * measure_above + frac_jump_sum.
* measure_above(n, k): Lebesgue measure of the t in ]0, 1] whose window
  ]t - 1/n, t] has minimal denominator > k.
* window_integral(n): integral over ]0, 1] of the window minimal denominator,
  equal to the sum of measure_above over k = 0..n.  It grows like
  (16/pi^2) sqrt(n).
* remainder(n): R = S(n) - n * window_integral(n), the discrepancy between
  the sum and its integral smoothing.  Identity: R = -2 T where T is a sum of
  sawtooth values at Farey points, split as T = T1 + T2 and T1 = T11 + T12 by
  remainder_parts.
* variant_gap(n): how much S moves when the grid windows are all-open or
  all-closed instead of half-open.

Single-k functions walk the pairs adjacent at order k and serve as
independent references.  The bulk path (per_k_tables, remainder_parts, the
window_integral routes) takes every pair from the block kernel
farey.coprime_blocks.  The integral is W(n) = 1 + P - Q/n with P and Q the
sums of 1/max(r, s) and min(r, s) over the pairs; the orders at which a pair
sees a following gap below 1/n form one suffix of its adjacency range, found
in closed form by _first_hit; exact sums add int64 numerators per
denominator before any big-integer arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple, Optional

import numpy as np

from .expsums import b1_residue
from .farey import block_inverses, coprime_blocks, inv_mod
from .minden import Variant, grid_denominators

SIXTEEN_OVER_PI2 = 16 / math.pi**2


class RemainderParts(NamedTuple):
    """The sawtooth decomposition of T = -remainder/2 into T1 + T2 and T1 = T11 + T12."""

    t: Fraction
    t1: Fraction
    t11: Fraction
    t12: Fraction
    t2: Fraction


def _adjacent_pairs_at(n: int, k: int):
    """Pairs (r, s) adjacent at order k whose Farey gap 1/(r s) is >= 1/n."""
    for r in range(1, k + 1):
        s_hi = min(k, n // r)
        for s in range(max(1, k - r + 1), s_hi + 1):
            if math.gcd(r, s) == 1:
                yield r, s


def denominator_sum(n: int, variant: Variant = "half-open-right") -> int:
    """S(n): sum of the minimal denominators of the n grid windows."""
    return sum(grid_denominators(n, variant))


def count_above(n: int, k: int, method: str = "count") -> int:
    """Number of windows j with q_j > k.

    method "count" queries every window; method "farey" evaluates
    n * measure_above(n, k) + frac_jump_sum(n, k), which is an integer.
    """
    if k < 0:
        raise ValueError(f"threshold must be >= 0, got {k}")
    if method == "count":
        return sum(1 for q in grid_denominators(n) if q > k)
    if method != "farey":
        raise ValueError(f"unknown method {method!r}")
    if k == 0:
        return n
    value = n * measure_above(n, k) + frac_jump_sum(n, k)
    if value.denominator != 1:
        raise ArithmeticError(f"window count at n={n}, k={k} is not integral: {value}")
    return int(value)


def measure_above(n: int, k: int) -> Fraction:
    """Measure of the t whose window has minimal denominator > k: sum of (gap - 1/n) over wide gaps."""
    if k < 0:
        raise ValueError(f"threshold must be >= 0, got {k}")
    if k == 0:
        return Fraction(1)
    total = Fraction(0)
    for r, s in _adjacent_pairs_at(n, k):
        total += Fraction(1, r * s) - Fraction(1, n)
    return total


def frac_jump_sum(n: int, k: int) -> Fraction:
    """Sum of frac(-n * right) - frac(-n * left) over the Farey gaps of order k wider than 1/n.

    Equals count_above(n, k) - n * measure_above(n, k); the two fractional
    parts are evaluated modulo the gap denominators, never as real numbers.
    """
    if k < 0:
        raise ValueError(f"threshold must be >= 0, got {k}")
    total = Fraction(0)
    for r, s in _adjacent_pairs_at(n, k):
        total += _gap_jump(n, r, s)
    return total


def _gap_jump(n: int, r: int, s: int) -> Fraction:
    """frac(-n b/s) - frac(-n a/r) for the adjacent fractions a/r < b/s."""
    e_hi = (-n * inv_mod(r, s)) % s  # b = inv(r, s) mod s
    e_lo = (n * inv_mod(s, r)) % r  # a = -inv(s, r) mod r
    return Fraction(e_hi, s) - Fraction(e_lo, r)


def sawtooth_gap_sum(n: int, k: int) -> Fraction:
    """Sum of b1(n * b/s) over Farey points b/s of order k where the gap drops below 1/n.

    A point contributes when its left gap is >= 1/n (r s <= n) and its right
    gap is < 1/n (s t > n for the next denominator t).  The final point 1/1
    never qualifies for k <= n.
    """
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    total = Fraction(0)
    for r, s in _adjacent_pairs_at(n, k):
        t = s * ((k + r) // s) - r
        if s * t > n:
            total += b1_residue(n * inv_mod(r, s), s)
    return total


def _pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every ordered coprime pair with r s <= n as int64 arrays (r, s, u), (1, 1) first.

    u = inv(r, s) in 1..s, the numerator of the right fraction u/s of the pair.
    """
    r, s, u = ([np.ones(1, dtype=np.int64)] for _ in range(3))
    for a, big in coprime_blocks(n):
        small = np.full(big.size, a, dtype=np.int64)
        r += [small, big]
        s += [big, small]
        u += block_inverses(a, big)
    return tuple(np.concatenate(c) for c in (r, s, u))


def _first_hit(n: int, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """First order k* at which the pair (r, s) sees a following gap below 1/n.

    At order k the next denominator is t = s j - r with j = floor((k + r) / s),
    and s t > n holds exactly when j >= j0 = floor((floor(n / s) + r) / s) + 1.
    j grows with k, so the hitting orders are the suffix [k*, r + s - 1] of
    the adjacency range, with k* = max(max(r, s), j0 s - r); it is empty when
    k* >= r + s.
    """
    j0 = (n // s + r) // s + 1
    return np.maximum(np.maximum(r, s), j0 * s - r)


def _b1_numerators(n: int, s: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Numerators over 2 s of b1(n u / s), elementwise (b1_residue in int64)."""
    e = n * u % s
    return np.where(e != 0, 2 * e - s, 0)


def _fraction_sums(
    den: np.ndarray, num: np.ndarray, bucket: Optional[np.ndarray] = None, size: int = 1
) -> list[Fraction]:
    """out[b] = exact sum of num[i] / den[i] over the i with bucket[i] == b (all i if None).

    The int64 numerators are first added per (bucket, denominator).  Each
    bucket's terms are then added pairwise, so the operands stay balanced in
    size, and reduced to a Fraction once.
    """
    width = int(den.max(initial=0)) + 1
    keys = den if bucket is None else bucket * width + den
    keys, where = np.unique(keys, return_inverse=True)
    acc = np.zeros(keys.size, dtype=np.int64)
    np.add.at(acc, where, num)
    terms: list[list[tuple[int, int]]] = [[] for _ in range(size)]
    for key, c in zip(keys.tolist(), acc.tolist()):
        if c:
            b, d = divmod(key, width)
            terms[b].append((c, d))
    out = []
    for parts in terms:
        while len(parts) > 1:
            merged = []
            for (c1, d1), (c2, d2) in zip(parts[::2], parts[1::2]):
                g = math.gcd(d1, d2)
                merged.append((c1 * (d2 // g) + c2 * (d1 // g), d1 // g * d2))
            parts = merged + parts[2 * len(merged) :]
        out.append(Fraction(*parts[0]) if parts else Fraction(0))
    return out


def per_k_tables(n: int) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
    """(measure_above, frac_jump_sum, sawtooth_gap_sum) for k = 0..n in one pass over the pairs.

    Each coprime pair (r, s) with r s <= n is adjacent at the min(r, s)
    consecutive orders k in [max(r, s), r + s - 1]; its gap and jump terms
    cover that range and its sawtooth term the hitting suffix from
    _first_hit.  Every term enters a difference array over k where its range
    starts and leaves it where the range ends.
    """
    if n < 1:
        raise ValueError(f"grid size must be >= 1, got {n}")
    r, s, u = _pairs(n)
    v = (1 + r * s - r * u) // s  # inv(s, r), from r u + s v = 1 + r s
    first, stop = np.maximum(r, s), r + s
    # (table, first order, denominator, numerator): the gap 1/(r s) - 1/n,
    # the jump frac(-n u/s) - frac(n v/r) and the sawtooth b1(n u/s)
    families = [
        (0, first, r * s, 1),
        (0, first, n, -1),
        (1, first, s, -n * u % s),
        (1, first, r, -(n * v % r)),
        (2, _first_hit(n, r, s), 2 * s, _b1_numerators(n, s, u)),
    ]
    width = n + 2
    bucket, den, num = [], [], []
    for table, start, d, c in families:
        start, d, c = np.broadcast_arrays(start, d, c)
        keep = (start < stop) & (c != 0)
        bucket += [table * width + start[keep], table * width + stop[keep]]
        den += [d[keep]] * 2
        num += [c[keep], -c[keep]]
    diff = _fraction_sums(
        np.concatenate(den), np.concatenate(num), np.concatenate(bucket), 3 * width
    )
    nu, xi, sigma = (list(accumulate(diff[t * width : t * width + n + 1])) for t in range(3))
    nu[0] = Fraction(1)
    return nu, xi, sigma


def window_integral(n: int) -> Fraction:
    """Integral of q(]t - 1/n, t]) over t in ]0, 1], exactly: sum of measure_above over k.

    Summing min(r, s) (1/(r s) - 1/n) over the pairs gives W = 1 + P - Q/n
    with P = sum min(r, s)/(r s) = sum 1/max(r, s) and Q = sum min(r, s).
    """
    if n < 1:
        raise ValueError(f"grid size must be >= 1, got {n}")
    r, s, _ = _pairs(n)
    low = np.minimum(r, s)
    return 1 + _fraction_sums(r * s, low)[0] - Fraction(int(low.sum()), n)


def window_integral_series(max_n: int) -> list[Optional[Fraction]]:
    """window_integral(n) for every n = 1..max_n in one incremental pass (index 0 is None).

    W(n) = 1 + P(n) - Q(n)/n as in window_integral; step n adds the pairs
    with r s = n, whose min(r, s) sum to c[n], as c[n]/n to P and c[n] to Q.
    """
    if max_n < 1:
        raise ValueError(f"grid size must be >= 1, got {max_n}")
    r, s, _ = _pairs(max_n)
    c = np.zeros(max_n + 1, dtype=np.int64)
    np.add.at(c, r * s, np.minimum(r, s))
    out: list[Optional[Fraction]] = [None]
    p_acc, q_acc = Fraction(0), 0
    for n, c_n in enumerate(c.tolist()[1:], start=1):
        p_acc += Fraction(c_n, n)
        q_acc += c_n
        out.append(1 + p_acc - Fraction(q_acc, n))
    return out


def window_integral_float(n: int) -> float:
    """Float approximation of window_integral for grid sizes past the exact budget.

    The same W = 1 + P - Q/n, summed block by block: each block adds
    2 (sum 1/L - a |block| / n) for its pairs (a, L) and (L, a).
    """
    if n < 1:
        raise ValueError(f"grid size must be >= 1, got {n}")
    total = 2.0 - 1.0 / n  # k = 0 term plus the (1, 1) pair
    for a, big in coprime_blocks(n):
        total += 2.0 * (
            float(np.reciprocal(big.astype(np.float64)).sum()) - a * big.size / n
        )
    return total


def remainder(n: int, method: str = "definition") -> Fraction:
    """R(n) = S(n) - n * window_integral(n), the exact discrepancy term.

    method "definition" computes exactly that; method "counts" sums
    count_above - n * measure_above (i.e. frac_jump_sum) over k = 1..n.
    """
    if n < 1:
        raise ValueError(f"grid size must be >= 1, got {n}")
    if method == "definition":
        return denominator_sum(n) - n * window_integral(n)
    if method != "counts":
        raise ValueError(f"unknown method {method!r}")
    _, xi, _ = per_k_tables(n)
    return sum(xi[1:], Fraction(0))


def denominator_sum_via_counts(n: int) -> int:
    """S(n) recovered as sum over k = 0..n of count_above(n, k), Farey-formula route.

    Independent of the per-window queries: every term comes from Farey gap
    data, so agreement with denominator_sum checks the window solver.
    """
    nu, xi, _ = per_k_tables(n)
    total = Fraction(n)  # k = 0
    for k in range(1, n + 1):
        total += n * nu[k] + xi[k]
    if total.denominator != 1:
        raise ArithmeticError(f"count sum at n={n} is not integral: {total}")
    return int(total)


def remainder_parts(n: int) -> RemainderParts:
    """The decomposition T = T1 + T2, T1 = T11 + T12 with T = -remainder(n)/2.

    All four parts are sums of b1(n * inv(r, s) / s) over coprime pairs with
    r s <= n, weighted by how many orders k the pair stays adjacent while the
    following gap is already below 1/n.
    """
    if n < 1:
        raise ValueError(f"grid size must be >= 1, got {n}")
    r, s, u = _pairs(n)
    b1_num = _b1_numerators(n, s, u)
    hits = np.maximum(0, r + s - _first_hit(n, r, s))
    # T11 and T12 split the orders k in [s, r + s) of r < s by j = 1 and j = 2;
    # s t > n for the next denominator t is t > n // s
    w11 = np.where(s - r > n // s, np.minimum(r, s - r), 0)
    w12 = np.where(2 * s - r > n // s, np.clip(2 * r - s, 0, s), 0)
    below, above = r < s, r > s  # (1, 1) is in neither; its sawtooth value is 0
    t1, t11, t12, t2 = (
        _fraction_sums(2 * s[side], (weight * b1_num)[side])[0]
        for side, weight in ((below, hits), (below, w11), (below, w12), (above, hits))
    )
    return RemainderParts(t1 + t2, t1, t11, t12, t2)


def t11_leftover_sum(n: int) -> Fraction:
    """Direct evaluation of the complementary piece of the T11 split; always 0.

    For r < s with s (s - r) > n and r s <= n the order range [s, 2s - r)
    already covers every k in [s, r + s), because r s <= n < s (s - r)
    forces r < s - r.  The complementary range is therefore empty; this
    function evaluates it literally anyway, over the kernel's pairs.
    """
    r, s, u = _pairs(n)
    leftover = np.maximum(0, (r + s) - np.maximum(s, 2 * s - r))
    weight = np.where((r < s) & (2 * r > s) & (s - r > n // s), leftover, 0)
    return _fraction_sums(2 * s, weight * _b1_numerators(n, s, u))[0]


def t2_quotient_groups(n: int) -> dict[int, Fraction]:
    """T2 regrouped by the quotient j = floor((k + r) / s), as {j: subtotal}.

    The subtotals sum to remainder_parts(n).t2 and the j = 2 group is empty:
    it would need s < r <= s.  Groups are returned for every j that collects
    at least one pair, plus j = 2 with an explicit zero.
    """
    if n < 1:
        raise ValueError(f"grid size must be >= 1, got {n}")
    groups: dict[int, Fraction] = {2: Fraction(0)}
    for j in range(2, 2 * n + 1):
        subtotal = Fraction(0)
        s = 1
        while (j - 1) * s * s < 2 * n:  # r > (j-1)s/2 and r s <= n need this
            r_lo = (j - 1) * s // 2 + 1
            r_hi = min(j * s // 2, n // s)
            for r in range(max(r_lo, s + 1), r_hi + 1):
                if s * (j * s - r) <= n:
                    continue
                if math.gcd(r, s) == 1:
                    subtotal += (2 * r - (j - 1) * s) * b1_residue(
                        n * inv_mod(r, s), s
                    )
            s += 1
        if subtotal or j == 2:
            groups[j] = subtotal
    return groups


def variant_gap(n: int, which: str = "upper") -> int:
    """Exact change of S(n) when every window boundary flag is flipped.

    which = "upper": S_open - S, the growth from opening every window; equals
    the sum of min(r, s) over coprime pairs with r s <= n and s dividing n,
    and is at most n * tau(n).  which = "lower": S - S_closed, the drop from
    closing every window.
    """
    if n < 1:
        raise ValueError(f"grid size must be >= 1, got {n}")
    if which == "upper":
        total = 0
        for s in _divisors(n):
            for r in range(1, n // s + 1):
                if math.gcd(r, s) == 1:
                    total += min(r, s)
        return total
    if which != "lower":
        raise ValueError(f"unknown side {which!r}")
    return denominator_sum(n) - denominator_sum(n, "closed")


def _divisors(n: int):
    d = 1
    while d * d <= n:
        if n % d == 0:
            yield d
            if d * d != n:
                yield n // d
        d += 1


class SumReport(NamedTuple):
    """Everything the exact path knows about one grid size."""

    n: int
    s: int
    s_closed: int
    s_half_open_left: int
    s_open: int
    integral: Fraction
    r: Fraction
    t: Fraction
    t1: Fraction
    t11: Fraction
    t12: Fraction
    t2: Fraction
    ratio: float
    chen_haynes_residual: float
    r_over_bound: Optional[float]


def chen_haynes_residual(n: int, integral_value: float) -> float:
    """|integral - (16/pi^2) sqrt(n)| / log(n)^2, the normalized integral error; inf at n = 1."""
    if n == 1:
        return math.inf
    return abs(integral_value - SIXTEEN_OVER_PI2 * math.sqrt(n)) / math.log(n) ** 2


def sum_report(n: int) -> SumReport:
    """Exact-path report: all four variant sums, the integral, R and its sawtooth parts."""
    if n < 1:
        raise ValueError(f"grid size must be >= 1, got {n}")
    s = denominator_sum(n)
    integral = window_integral(n)
    r = s - n * integral
    parts = remainder_parts(n)
    if n == 1:
        r_over_bound = None
    else:
        r_over_bound = abs(float(r)) / (n ** (4 / 3) * math.log(n) ** 2)
    return SumReport(
        n=n,
        s=s,
        s_closed=denominator_sum(n, "closed"),
        s_half_open_left=denominator_sum(n, "half-open-left"),
        s_open=denominator_sum(n, "open"),
        integral=integral,
        r=r,
        t=parts.t,
        t1=parts.t1,
        t11=parts.t11,
        t12=parts.t12,
        t2=parts.t2,
        ratio=s / n**1.5,
        chen_haynes_residual=chen_haynes_residual(n, float(integral)),
        r_over_bound=r_over_bound,
    )
