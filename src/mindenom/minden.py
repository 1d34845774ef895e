"""Minimal denominators of rational intervals.

For a nonempty interval E of real numbers, min_denominator returns the least
q >= 1 such that E contains a fraction p/q.  Its algo argument picks one of
two algorithms; min_denominator_grid always takes the descent:

* "fast": a Stern-Brocot descent on the interval endpoints.  At each level the
  smallest admissible integer is tried; if none fits, the integer part is
  stripped and the interval is inverted, swapping the open/closed flags of the
  two ends.  The composed Moebius map then sends the innermost integer hit to
  the answer.  The fraction of minimal denominator in an interval is unique
  as soon as its denominator exceeds 1, and among denominator-1 hits the
  descent picks the leftmost, so the walk is deterministic.  Cost is one
  Euclidean algorithm on the endpoints, O(log max denominator) arithmetic ops.

* "oracle": scan q = 1, 2, 3, ... and count reduced fractions with
  denominator q inside E via ceil_count_hits.  Termination is guaranteed because
  q(E) <= ceil(1/length(E)) + 1 for any nonempty interval, but the scan is
  only suitable for testing.

All four boundary variants (each end open or closed) are supported; single
points {a/b} are allowed when both ends are closed and give b.

The n grid windows ](j-1)/n, j/n] are solved in blocks (grid_blocks): CHUNK
consecutive windows run the "fast" descent in lockstep on numpy integer
arrays.  All windows of a block start with the same boundary flags and every
window still in the block swaps them at every level, so the flags stay
scalars.  At each level, with lo = an/ad and hi = bn/bd, the smallest
admissible integer is c = floor(lo) + (lo is not an integer, or lo is open).
A window fits when c*bd < bn, or c*bd == bn with the upper end closed
(bd == 0, an upper end of +infinity, fits through c*bd = 0), and is resolved
with denominator q1*c + q0.  The others strip m = floor(lo), invert and swap
their flags, exactly as _simplest_in does, which stays the scalar reference.
Memory is O(CHUNK) for any n.

Parked windows: a resolved window stays in the arrays in the state
(an, ad, bn, bd) = PARKED = (0, -1, -1, 0).  There m = rem = 0 and
c*bd = 0 > -1 = bn, so it never fits under either pair of flags, never
divides by zero, and the level maps it onto itself.  Live windows keep
ad > 0: ad starts at n, and a window that does not fit has bd > 0 (bd == 0
fits) and hi > floor(lo) = m, so its next ad = bn - m*bd is positive.  Once
half of the arrays are parked, the state is compacted to the windows with
ad > 0 that did not fit at that level.  So a block is compacted at most
log2(CHUNK) + 1 times instead of at every level that resolves a window, and
every level works on fewer than twice the live windows.

Integer width: the inversion keeps an*bd - ad*bn = -n at every level and
the four endpoint terms stay in 0..n, so c*bd <= (an/ad + 1) bd
= bn - n/ad + bd < 2n; every denominator is at most 2n (the open window
contains (2j - 1)/(2n)).  So no value of the descent exceeds 2n (c*bd
reaches 2n - 2 at the open window j = n), and neither do the parked
values 0 and -1 or the swap q1, q0 = q0, q1 that m = 0 makes of a parked
window.  The descent holds its state in grid_dtype(n): int32 when
2n <= INT32_MAX, that is n <= 2**30 - 1, and int64 above; the width depends
on n alone.  Its denominators are int64 either way, and the int64 sum of any
block stays <= 2n*CHUNK; that holds for the blocks of half_grid_blocks,
which sums.denominator_sums adds (and copies into a held half grid of
grid_dtype(n) when the next smaller row of its list is coarsened from n),
as for those of grid_blocks.  GRID_MAX_N is the
largest n for which 2n*CHUNK fits int64; grid_blocks and half_grid_blocks
raise OverflowError above it before anything is allocated.

Reflection: t -> 1 - t maps the window ](j-1)/n, j/n] onto
[(n-j)/n, (n+1-j)/n[, the window n + 1 - j with both boundary flags swapped,
and p/q onto (q - p)/q, of the same denominator.  The closed and the open
grids map onto themselves, so q_j = q_{n+1-j} there, and the windows
j <= n // 2 of half_grid_blocks carry their sums, with the middle window
(n + 1) / 2 when n is odd.  The half-open grid ]a, b] maps onto [a, b[.
sums.denominator_sums solves the open half grid alone and takes the other
three sums from it: each half-open one adds the right or the left endpoints,
and the closed one both, and the divisor sums of sums._gaps say what each
endpoint changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Literal, Union

import numpy as np

Rational = Union[int, Fraction]
Variant = Literal["half-open-right", "half-open-left", "closed", "open"]

#: Boundary flags (lo_closed, hi_closed) for each named variant.  The default
#: grid geometry is half-open-right, i.e. windows of the form ]a, b].
VARIANT_FLAGS: dict[str, tuple[bool, bool]] = {
    "half-open-right": (False, True),
    "half-open-left": (True, False),
    "closed": (True, True),
    "open": (False, False),
}

#: Windows per block of the grid solver; on S(2**20) 2**13 and 2**14 ran
#: alike and about 1.5x faster than 2**15 (2-vCPU Xeon VM, numpy 2.4).
CHUNK = 1 << 14

INT64_MAX = 2**63 - 1
#: Largest grid size of the grid solver: 2n*CHUNK <= INT64_MAX (2**48 - 1).
GRID_MAX_N = INT64_MAX // (2 * CHUNK)

#: The grid descent holds its state in int32 while 2n <= INT32_MAX.
INT32_MAX = 2**31 - 1

#: (an, ad, bn, bd) of a resolved window left in the grid descent: a fixed
#: point of the level map that never fits (see the module docstring).
PARKED = (0, -1, -1, 0)


@dataclass(frozen=True)
class Interval:
    """A nonempty interval with rational endpoints and per-end closedness flags."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool = False
    hi_closed: bool = True

    def __post_init__(self) -> None:
        # a Fraction is kept as it is: Fraction(x) would rebuild it through the
        # numbers.Rational check; subclasses and other numbers are converted
        if type(self.lo) is not Fraction:
            object.__setattr__(self, "lo", Fraction(self.lo))
        if type(self.hi) is not Fraction:
            object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi or (
            self.lo == self.hi and not (self.lo_closed and self.hi_closed)
        ):
            raise ValueError(f"interval is empty: {self}")

    def contains(self, x: Rational) -> bool:
        x = Fraction(x)
        above = self.lo < x or (self.lo == x and self.lo_closed)
        below = x < self.hi or (x == self.hi and self.hi_closed)
        return above and below

    def length(self) -> Fraction:
        return self.hi - self.lo

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "]"
        right = "]" if self.hi_closed else "["
        return f"{left}{self.lo}, {self.hi}{right}"


def _simplest_in(
    an: int, ad: int, a_open: bool, bn: int, bd: int, b_open: bool
) -> tuple[int, int]:
    """Reduced fraction of minimal denominator in the interval an/ad .. bn/bd.

    bd == 0 encodes an upper endpoint of +infinity.  The interval must be
    nonempty and non-degenerate.  Among minimal-denominator witnesses (there
    can be several only for denominator 1) the leftmost is returned, which
    also minimizes the numerator for intervals inside [0, +inf).
    """
    p1, p0, q1, q0 = 1, 0, 0, 1
    while True:
        if an % ad:
            n = -((-an) // ad)  # ceil(lo)
        else:
            n = an // ad + (1 if a_open else 0)
        if bd == 0 or n * bd < bn or (n * bd == bn and not b_open):
            return p1 * n + p0, q1 * n + q0
        # No integer fits: strip the integer part m = floor(lo) and invert.
        # x = m + 1/z maps the variable z over 1/(hi-m) .. 1/(lo-m), so the
        # endpoint roles and their openness flags swap.
        m = an // ad
        an, ad, bn, bd = bd, bn - m * bd, ad, an - m * ad
        a_open, b_open = b_open, a_open
        p1, p0, q1, q0 = p1 * m + p0, p1, q1 * m + q0, q1


def _min_denominator_scan(interval: Interval) -> int:
    """Scanning oracle: try q = 1, 2, ... until some reduced p/q lies in the interval."""
    lo, hi = interval.lo, interval.hi
    if lo == hi:
        return lo.denominator
    # q(E) <= ceil(1/length) + 1, so the scan below always terminates.
    q_stop = math.ceil(1 / (hi - lo)) + 1
    a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    for q in range(1, q_stop + 1):
        if ceil_count_hits(a * q, b, c * q, d, interval.lo_closed, interval.hi_closed, q):
            return q
    raise AssertionError(f"no denominator <= {q_stop} found in {interval}")


def ceil_count_hits(
    a: int, b: int, c: int, d: int, lo_closed: bool, hi_closed: bool, q: int
) -> bool:
    """True if some integer p with gcd(p, q) = 1 lies between a/b and c/d (b, d > 0)."""
    p = -(-a // b)
    if p * b == a and not lo_closed:
        p += 1
    while p * d < c or (p * d == c and hi_closed):
        if math.gcd(p, q) == 1:
            return True
        p += 1
    return False


def min_denominator(interval: Interval, algo: str = "fast") -> int:
    """Least q >= 1 such that the interval contains a fraction p/q.

    algo is "fast" (Stern-Brocot descent) or "oracle" (denominator scan).
    """
    if algo == "oracle":
        return _min_denominator_scan(interval)
    if algo != "fast":
        raise ValueError(f"unknown algorithm {algo!r}")
    return _simplest(interval)[1]


def min_fraction(interval: Interval) -> Fraction:
    """The fraction of minimal denominator in the interval (leftmost if denominator 1)."""
    return Fraction(*_simplest(interval))


def _simplest(interval: Interval) -> tuple[int, int]:
    """(p, q) of min_fraction(interval), by the descent; a point a/b gives (a, b)."""
    lo, hi = interval.lo, interval.hi
    if lo == hi:
        return lo.numerator, lo.denominator
    return _simplest_in(
        lo.numerator, lo.denominator, not interval.lo_closed,
        hi.numerator, hi.denominator, not interval.hi_closed,
    )


def min_denominator_grid(n: int, j: int, variant: Variant = "half-open-right") -> int:
    """Minimal denominator of the j-th of n equal windows covering ]0, 1], by the descent.

    The window is ](j-1)/n, j/n] for the default variant; the other variants
    reuse the same endpoints with the flags from VARIANT_FLAGS.
    """
    check_grid_size(n, math.inf)  # Python ints: no int64 limit
    if not 1 <= j <= n:
        raise ValueError(f"window index must be in 1..{n}, got {j}")
    lo_closed, hi_closed = VARIANT_FLAGS[variant]
    return _simplest_in(j - 1, n, not lo_closed, j, n, not hi_closed)[1]


def grid_blocks(n: int, variant: Variant = "half-open-right") -> Iterator[np.ndarray]:
    """Minimal denominators of the n grid windows as int64 blocks of CHUNK consecutive j.

    Raises OverflowError for n > GRID_MAX_N, before any block is built.
    """
    return _blocks(n, n, variant)


def half_grid_blocks(n: int, variant: Variant = "half-open-right") -> Iterator[np.ndarray]:
    """Minimal denominators of the windows j = 1..n // 2 as int64 blocks of CHUNK consecutive j.

    The windows left of the middle of the grid: by the reflection t -> 1 - t
    they carry the denominators of the windows right of it (see the module
    docstring).  Raises OverflowError for n > GRID_MAX_N, before any block is
    built, exactly as grid_blocks does.
    """
    return _blocks(n, n // 2, variant)


def check_grid_size(
    n: int, limit: float = GRID_MAX_N, name: str = "GRID_MAX_N", what: str = "the grid solver"
) -> None:
    """ValueError for n < 1 and OverflowError for n > limit, the int64 limit name of what."""
    if n < 1:
        raise ValueError(f"grid size must be >= 1, got {n}")
    if n > limit:
        raise OverflowError(
            f"grid size {n} exceeds {name} = {limit}, the int64 limit of {what}"
        )


def _blocks(n: int, stop: int, variant: Variant) -> Iterator[np.ndarray]:
    """The descent of the windows j = 1..stop of the n-grid, CHUNK windows per block."""
    check_grid_size(n)
    lo_open, hi_open = (not closed for closed in VARIANT_FLAGS[variant])
    blocks = (
        np.arange(j, min(j + CHUNK, stop + 1), dtype=np.int64)
        for j in range(1, stop + 1, CHUNK)
    )
    return (_descend_block(n, j, lo_open, hi_open) for j in blocks)


def grid_dtype(n: int) -> type:
    """The integer type of the n-grid descent: int32 when 2n <= INT32_MAX, int64 above.

    Every value of the descent, every denominator among them, is at most 2n
    (see the module docstring).
    """
    return np.int32 if 2 * n <= INT32_MAX else np.int64


def _descend_block(n: int, j: np.ndarray, a_open: bool, b_open: bool) -> np.ndarray:
    """Denominators of _simplest_in(j - 1, n, a_open, j, n, b_open) for an integer array j.

    The descent runs in grid_dtype(n); q is int64.
    """
    j = j.astype(grid_dtype(n))
    q = np.empty(j.size, dtype=np.int64)
    at = np.arange(j.size)
    an, ad, bn, bd = j - 1, np.full_like(j, n), j, np.full_like(j, n)
    q1, q0 = np.zeros_like(j), np.ones_like(j)
    live = j.size
    while live > 0:
        m, rem = np.divmod(an, ad)
        c = m + 1 if a_open else m + (rem != 0)
        cbd = c * bd
        fit = cbd < bn if b_open else cbd <= bn
        hit = np.flatnonzero(fit)
        if hit.size:
            q[at[hit]] = q1[hit] * c[hit] + q0[hit]
            live -= hit.size
        an, ad, bn, bd = bd, bn - m * bd, ad, rem
        q1, q0 = q1 * m + q0, q1
        a_open, b_open = b_open, a_open
        if 2 * live <= at.size:
            # half the arrays resolved: keep the windows that were live before
            # this level (bn holds their old ad > 0) and not resolved at it
            stay = np.flatnonzero((bn > 0) & ~fit)
            at, an, ad, bn, bd, q1, q0 = (x[stay] for x in (at, an, ad, bn, bd, q1, q0))
        elif hit.size:
            an[hit], ad[hit], bn[hit], bd[hit] = PARKED
    return q


def grid_denominators(n: int, variant: Variant = "half-open-right") -> list[int]:
    """Minimal denominators of all n grid windows, fast path, as a list indexed by j - 1."""
    return np.concatenate(list(grid_blocks(n, variant))).tolist()
