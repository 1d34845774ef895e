"""Brute-force reference implementations the test suite compares against.

Everything here is written straight from the definitions and shares no code
with the library: Farey sequences by enumerate-and-sort, minimal denominators
by scanning q = 1, 2, ..., distribution quantities by summing over the
brute-force sequence, transforms by literal cmath sums.  Slow on purpose.
The gcd-filter block kernel and the per-n float integral over it are the
earlier library code, kept as references for their replacements.
"""

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def farey_brute(k):
    """All reduced fractions in [0, 1] with denominator <= k, sorted, as a tuple (cached)."""
    return tuple(sorted({Fraction(p, q) for q in range(1, k + 1) for p in range(q + 1)}))


def coprime_pairs_brute(n):
    """All ordered pairs (r, s) with gcd(r, s) = 1 and r * s <= n, as a set."""
    return {
        (r, s)
        for r in range(1, n + 1)
        for s in range(1, n // r + 1)
        if math.gcd(r, s) == 1
    }


def coprime_blocks_gcd(n):
    """The blocks (a, L) of farey.coprime_blocks, each by filtering a+1..n//a with gcd."""
    for a in range(1, math.isqrt(n) + 1):
        big = np.arange(a + 1, n // a + 1, dtype=np.int64)
        if a > 1:
            big = big[np.gcd(big, a) == 1]
        yield a, big


def window_integral_float_gcd(n):
    """The float W(n) = 1 + P - Q/n over the blocks of n alone, in block order."""
    total = 2.0 - 1.0 / n
    for a, big in coprime_blocks_gcd(n):
        total += 2.0 * (
            float(np.reciprocal(big.astype(np.float64)).sum()) - a * big.size / n
        )
    return total


def contains(x, lo, hi, lo_closed, hi_closed):
    if x < lo or x > hi:
        return False
    if x == lo and not lo_closed:
        return False
    if x == hi and not hi_closed:
        return False
    return True


def min_denominator_brute(lo, hi, lo_closed=False, hi_closed=True):
    """Least q such that some p/q lies in the interval; definitional scan."""
    lo, hi = Fraction(lo), Fraction(hi)
    q = 1
    while True:
        for p in range(math.floor(lo * q), math.ceil(hi * q) + 1):
            if contains(Fraction(p, q), lo, hi, lo_closed, hi_closed):
                return q
        q += 1


@lru_cache(maxsize=None)
def grid_brute(n, lo_closed=False, hi_closed=True):
    """Minimal denominators of the n grid windows by the definitional scan, as a tuple (cached)."""
    return tuple(
        min_denominator_brute(Fraction(j - 1, n), Fraction(j, n), lo_closed, hi_closed)
        for j in range(1, n + 1)
    )


def theta_brute(n, k):
    return sum(1 for q in grid_brute(n) if q > k)


def _frac(x):
    return x - math.floor(x)


def b1_brute(x):
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return _frac(x) - Fraction(1, 2)


def measure_above_brute(n, k):
    """Measure of starting points whose window clears order k; 1 at k = 0."""
    if k == 0:
        return Fraction(1)
    delta = Fraction(1, n)
    seq = farey_brute(k)
    return sum(
        ((b - a) - delta for a, b in zip(seq, seq[1:]) if b - a >= delta),
        Fraction(0),
    )


def frac_jump_brute(n, k):
    delta = Fraction(1, n)
    seq = farey_brute(k)
    total = Fraction(0)
    for a, b in zip(seq, seq[1:]):
        if b - a >= delta:
            total += _frac(-n * b) - _frac(-n * a)
    return total


def sawtooth_brute(n, k):
    """Sum of b1(n * rho) over interior rho with wide left gap, narrow right gap."""
    delta = Fraction(1, n)
    seq = farey_brute(k)
    total = Fraction(0)
    for i in range(1, len(seq) - 1):
        if seq[i] - seq[i - 1] >= delta and seq[i + 1] - seq[i] < delta:
            total += b1_brute(n * seq[i])
    return total


def fraction_sum_brute(den, num):
    """The exact sum of num[i] / den[i], one Fraction per term."""
    return sum((Fraction(int(c), int(d)) for d, c in zip(den, num)), Fraction(0))


def dft_brute(values, x):
    """Literal transform sum over one period; values indexed by residue 1..q."""
    q = len(values)
    return sum(
        v * cmath.exp(-2j * cmath.pi * n * x / q)
        for n, v in enumerate(values, start=1)
    )


def kloosterman_brute(a, b, q):
    total = 0j
    for n in range(1, q + 1):
        if math.gcd(n, q) == 1:
            nbar = pow(n, -1, q)
            total += cmath.exp(2j * cmath.pi * (a * n + b * nbar) / q)
    return total


def t2_groups_brute(max_n):
    """T2 by quotient j for n = 1..max_n: at order k <= n, consecutive a/r < b/s < c/t
    with r > s and r s <= n < s t add b1(n b/s) to group floor((k + r) / s) of n."""
    groups = [{2: Fraction(0)} for _ in range(max_n + 1)]
    for k in range(1, max_n + 1):
        seq = farey_brute(k)
        for x, y, z in zip(seq, seq[1:], seq[2:]):
            r, s, t = x.denominator, y.denominator, z.denominator
            if r > s:
                j = (k + r) // s
                for n in range(max(k, r * s), min(s * t, max_n + 1)):
                    groups[n][j] = groups[n].get(j, Fraction(0)) + b1_brute(n * y)
    return [{j: v for j, v in g.items() if v or j == 2} for g in groups]  # 2 first
