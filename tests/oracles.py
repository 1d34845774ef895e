"""Brute-force reference implementations the test suite compares against.

Everything here is written straight from the definitions and shares no code
with the library: Farey sequences by enumerate-and-sort, minimal denominators
by scanning q = 1, 2, ..., distribution quantities by summing over the
brute-force sequence, transforms by literal cmath sums.  Slow on purpose.
"""

import cmath
import math
from fractions import Fraction


def farey_brute(k):
    """All reduced fractions in [0, 1] with denominator <= k, sorted."""
    return sorted({Fraction(p, q) for q in range(1, k + 1) for p in range(q + 1)})


def coprime_pairs_brute(n):
    """All ordered pairs (r, s) with gcd(r, s) = 1 and r * s <= n, as a set."""
    return {
        (r, s)
        for r in range(1, n + 1)
        for s in range(1, n // r + 1)
        if math.gcd(r, s) == 1
    }


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


def grid_brute(n, lo_closed=False, hi_closed=True):
    return [
        min_denominator_brute(Fraction(j - 1, n), Fraction(j, n), lo_closed, hi_closed)
        for j in range(1, n + 1)
    ]


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
