"""Farey sequence primitives.

The Farey sequence of order k is the ascending list of reduced fractions in
[0, 1] with denominator at most k.  Everything else in this package reduces to
walking that sequence: consecutive fractions a/r < b/s satisfy br - as = 1,
r + s > k, and the next denominator after s is obtained from (k, r, s) alone.
This module provides the walk plus the small number-theoretic helpers it
needs (modular inverse, totient summation) and the coprime-pair block
kernel behind every exact pair sum.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
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

    Runs the recurrence from 0/1, 1/k: after a/r < b/s comes
    (j b - a)/(j s - r) with j = floor((k + r)/s), numerators and
    denominators alike, so no inverse, sorting or gcd filtering is involved.
    """
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    seq = [Fraction(0)]
    a, r, b, s = 0, 1, 1, k
    while True:
        seq.append(Fraction(b, s))
        if s == 1:
            return seq
        j = (k + r) // s
        a, r, b, s = b, s, j * b - a, j * s - r


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
        r, s = s, s * ((k + r) // s) - r  # next_denominator, unchecked


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
    other than (1, 1) is (a, L) or (L, a) of exactly one block, so the
    blocks hold each unordered pair once; sums._pairs concatenates them and
    its callers read a mirror (L, a) from the entry of (a, L).  These are
    the adjacent pairs that ever show a gap >= 1/n: (r, s) is adjacent at the
    min(r, s) orders max(r, s) <= k < r + s, all <= n when r*s <= n.

    No gcd is taken per element.  The a = 1 block is arange(2, n + 1) and
    the a = 2 block the odd L, arange(3, n // 2 + 1, 2).  For a >= 3, the
    units u in 1..a-1 of every a <= isqrt(n) come from one
    (isqrt(n) + 1)^2 boolean table, sieved by each prime p <= isqrt(n), and
    block a is the rows a*k + u for k = 1..q, q = n // a^2, raveled and cut
    after the units u <= (n // a) mod a of the last row.  Each block is then
    the same ascending array, element for element, as filtering the range
    by gcd.  Memory: the a = 1 block is 8n bytes and the a = 2 block 2n.
    The table (n bytes) is built after both are yielded; the last-row counts
    and the unit columns are taken from it, and it is dropped before block 3.
    The units kept for the later blocks (about 0.3 n of them) are gathered
    through the mask in the smallest unsigned type that holds isqrt(n), 2
    bytes each for n < 2^32.  Measured by tracemalloc at n = 2^20, the
    set-up peaks at 2.1 MiB and building block 3 (its int64 values, its row
    offsets and the units) at 3.5 MiB, the most the kernel holds after the
    a = 1 block.
    """
    root = math.isqrt(n)
    if root < 1:
        return
    yield 1, np.arange(2, n + 1, dtype=np.int64)
    if root < 2:
        return
    yield 2, np.arange(3, n // 2 + 1, 2, dtype=np.int64)
    # coprime[a, u] for 0 <= u < a: the strict lower triangle, struck at the
    # common multiples of each prime; u = 0 survives only in row a = 1
    side = np.arange(root + 1)
    coprime = side[:, None] > side
    for p in range(2, root + 1):
        if coprime[p, 0]:  # no smaller prime divides p
            coprime[::p, ::p] = False
    a_ge3 = side[3:]
    # the last row k = q of block a keeps the units u <= (n // a) mod a
    last = (coprime[3:] & (side <= (n // a_ge3 % a_ge3)[:, None])).sum(axis=1).tolist()
    # the unit columns of each row in turn, gathered through the mask
    units = np.broadcast_to(side.astype(np.min_scalar_type(root)), coprime.shape)[coprime]
    ends = coprime.sum(axis=1).cumsum().tolist()
    del coprime
    for a, begin, end, tail in zip(range(3, root + 1), ends[2:], ends[3:], last):
        q = n // (a * a)
        # no local keeps the block, so the caller can free it before the next
        yield a, (
            np.arange(a, a * q + 1, a, dtype=np.int64)[:, None] + units[begin:end]
        ).ravel()[: (q - 1) * (end - begin) + tail]


@lru_cache(maxsize=256)
def unit_inverses(q: int) -> np.ndarray:
    """inv_mod(u, q) in 1..q at the units u of 0..q-1, 0 at the other u; a read-only int64 array.

    The package's one vectorised inverse table.  inv(u) = u^(phi(q) - 1)
    mod q by Euler's theorem, by square-and-multiply over all units at once;
    every product is of two residues below q, so it fits int64 while
    q^2 < 2^63, and larger q raise OverflowError before anything is built.
    q = 1 gives [1].  sums._pairs lays the tables of a = 1..isqrt(n) end to
    end and gathers inv(L, a) for every pair (a, L) of coprime_blocks(n)
    from them in one index; verify reads inv(r, s) from the table of s, and
    expsums.kloosterman_table its units and their inverses.  The cache keeps
    the tables of the last 256 moduli, so repeated calls with the same small
    q (the blocks a <= isqrt(n) of every n, verify's moduli) build each
    table once.
    """
    if q < 1:
        raise ValueError(f"modulus must be positive, got {q}")
    if q * q >= 2**63:
        raise OverflowError(f"modulus {q} too large for int64 inverses (q^2 >= 2^63)")
    res = np.arange(q, dtype=np.int64)
    units = res[np.gcd(res, q) == 1]
    base, inv = units, np.ones_like(units)  # phi(1) - 1 = 0: inv(0, 1) stays 1
    e = len(units) - 1
    while e:
        if e & 1:
            inv = inv * base % q
        base = base * base % q
        e >>= 1
    table = np.zeros(q, dtype=np.int64)
    table[units] = inv
    table.flags.writeable = False
    return table
