"""Farey sequence primitives.

The Farey sequence of order k is the ascending list of reduced fractions in
[0, 1] with denominator at most k.  Everything else in this package reduces to
walking that sequence: consecutive fractions a/r < b/s satisfy br - as = 1,
r + s > k, and the next denominator after s is obtained from (k, r, s) alone.
This module provides the walk plus the small number-theoretic helpers it
needs (modular inverse, lattice point counting, totient summation) and the
coprime-pair block kernel behind every exact pair sum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np


class AdjacentPair(NamedTuple):
    """Denominators (r, s) of two consecutive fractions in the Farey sequence of order k.

    Invariants: gcd(r, s) = 1 and max(r, s) <= k < r + s.  Conversely every
    coprime pair satisfying these inequalities occurs exactly once as a pair
    of consecutive denominators in the sequence of order k.
    """

    r: int
    s: int
    k: int

    def right_fraction(self) -> Fraction:
        """The right member b/s of the pair; its numerator is inv_mod(r, s)."""
        return Fraction(inv_mod(self.r, self.s), self.s)

    def gap(self) -> Fraction:
        """Distance between the two fractions, always 1/(r*s)."""
        return Fraction(1, self.r * self.s)


def inv_mod(a: int, q: int) -> int:
    """Inverse of a modulo q, normalized to the range 1..q.

    Raises ValueError if q < 1 or gcd(a, q) > 1.  The normalization maps the
    residue 0 to q, so inv_mod(a, 1) == 1; with that convention the result is
    always a valid numerator for a fraction with denominator q.
    """
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    try:
        r = pow(a, -1, q)
    except ValueError as exc:
        raise ValueError(f"{a} is not invertible modulo {q}") from exc
    return r if r else q


def ceil_count(a: Fraction, b: Fraction) -> int:
    """Number of integers n with a <= n < b, i.e. ceil(b) - ceil(a), or 0 if b <= a."""
    if b <= a:
        return 0
    return math.ceil(b) - math.ceil(a)


def next_denominator(k: int, r: int, s: int) -> int:
    """Denominator following s when (r, s) are consecutive denominators in order k.

    Computed as s*floor((k + r)/s) - r, which equals k - s*frac((k + r)/s).
    The result t again satisfies max(s, t) <= k < s + t.
    Raises ValueError unless gcd(r, s) = 1 and max(r, s) <= k < r + s.
    """
    if math.gcd(r, s) != 1:
        raise ValueError(f"denominators must be coprime, got ({r}, {s})")
    if not max(r, s) <= k < r + s:
        raise ValueError(f"({r}, {s}) is not an adjacent pair at order {k}")
    return s * ((k + r) // s) - r


def farey_sequence(k: int) -> list[Fraction]:
    """Ascending list of reduced fractions in [0, 1] with denominator <= k.

    Runs the denominator recurrence from the initial pair (1, k); numerators
    come from inv_mod, so no sorting or gcd filtering is involved.
    """
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    seq = [Fraction(0)]
    r, s = 1, k
    while True:
        seq.append(Fraction(inv_mod(r, s), s))
        if s == 1:
            return seq
        r, s = s, next_denominator(k, r, s)


def adjacent_pairs(k: int) -> list[AdjacentPair]:
    """All consecutive-denominator pairs of the Farey sequence of order k, in walk order.

    The list has totient_summatory(k) entries: one per fraction in ]0, 1].
    """
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    pairs = []
    r, s = 1, k
    while True:
        pairs.append(AdjacentPair(r, s, k))
        if s == 1:
            return pairs
        r, s = s, next_denominator(k, r, s)


def totient_sieve(limit: int) -> list[int]:
    """Euler phi for 0..limit as a list; phi[0] is 0 by convention."""
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


def totient_summatory(x: int) -> int:
    """Sum of Euler phi(n) for 1 <= n <= x; counts the fractions in ]0, 1] of denominator <= x."""
    if x < 0:
        raise ValueError(f"argument must be >= 0, got {x}")
    return sum(totient_sieve(x)[1:])


def coprime_blocks(n: int) -> Iterator[tuple[int, np.ndarray]]:
    """Every ordered coprime pair (r, s) with r*s <= n, grouped by its smaller member.

    Yields (a, big) for a = 1..isqrt(n), where big is the ascending int64
    array of the L > a with gcd(a, L) = 1 and a*L <= n.  Each ordered pair
    other than (1, 1) is (a, L) or (L, a) of exactly one block.  These are
    the adjacent pairs that ever show a gap >= 1/n: (r, s) is adjacent at the
    min(r, s) orders max(r, s) <= k < r + s, all <= n when r*s <= n.
    """
    for a in range(1, math.isqrt(n) + 1):
        big = np.arange(a + 1, n // a + 1, dtype=np.int64)
        if a > 1:
            big = big[np.gcd(big, a) == 1]
        yield a, big


def block_inverses(a: int, big: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) with x = inv(a, L) in 1..L and y = inv(L, a) in 1..a, for each L of a block.

    y is looked up in one table of inverses mod a; x then follows from the
    identity a*x + L*y = 1 + a*L, so no inverse is computed per pair.  For a
    block of coprime_blocks(n) every product stays <= n^2, also n*x and n*y
    in the callers' b1 numerators, which fits int64 for n < 3*10^9.
    """
    table = np.array(
        [a] + [pow(u, -1, a) if math.gcd(u, a) == 1 else 0 for u in range(1, a)],
        dtype=np.int64,
    )
    y = table[big % a]
    return (1 + a * big - big * y) // a, y
