"""Exact identities for sums of grid minimal denominators.

Write q_j for the minimal denominator of the j-th window ](j-1)/n, j/n] and
S(n) = q_1 + ... + q_n.  Everything here rests on one combinatorial fact: a
coprime pair (r, s) occurs as consecutive denominators of the Farey sequence
of order k exactly when max(r, s) <= k < r + s, and the gap between the two
fractions is then 1/(r s).  Grouping over k turns window counts into sums
over coprime pairs with r s <= n, which integer arithmetic evaluates exactly.

The quantities provided, all exact rationals unless stated otherwise:

* sum_report(n): every exact number of one grid size, from one descent and
  one pass over the pairs: the four variant sums, the window integral W(n)
  (the integral over ]0, 1] of the window minimal denominator, which grows
  like (16/pi^2) sqrt(n)), the remainder R = S(n) - n W(n), the discrepancy
  between the sum and its integral smoothing, and its sawtooth parts.
  Identity: R = -2 T where T is a sum of sawtooth values at Farey points,
  split as T = T1 + T2 and T1 = T11 + T12.
* W(n) by two routes over many n, each from one pass over the pair blocks
  of the largest n: window_integrals(ns) exactly, formed only at the n of ns
  (window_integral_series(max_n) is its case of every n <= max_n), and
  window_integral_floats(ns) its float approximations for large n, in
  float64 one block at a time.  sum_report(n) gives W of one n with the rest.
* per_k_tables(n): for every order k = 0..n the measure nu_k of the windows
  that clear order k, the fractional jump xi_k and the sawtooth term sigma_k;
  n nu_k + xi_k is the number of windows with q_j > k, xi_k = -2 sigma_k,
  and W(n) is the sum of nu_k over k = 0..n.
* denominator_sum(n, variant): S(n) for any of the four boundary variants,
  and denominator_sums(ns, variant) for many n, one descent per divisor chain.
* variant_gap(n): how much S grows when the grid windows are all-open
  instead of half-open.

S(n) from half the windows.  The reflection t -> 1 - t maps window j of the
grid onto window n + 1 - j with both boundary flags swapped, and keeps every
denominator.  The open grid maps onto itself, so
S_open(n) = 2 (q_1 + ... + q_{n//2}) + 2 [n odd]: the middle window
](n - 1)/(2n), (n + 1)/(2n)[ of odd n holds 1/2 and no integer.  The
half-open grid ]a, b] maps onto [a, b[, so S_left = S, and
S = S_open - G(n), where G(n) = variant_gap(n) is the sum of
min(r, s) over the coprime pairs with r s <= n and s | n (verify checks
this identity against the per-window grid).  G(n) has a closed form by
Moebius inversion over the squarefree divisors of each divisor of n,
O(tau(n) 2^omega(n)) integer operations after factorising n.

The closed sum by identity: S_closed(n) = S_open(n) - 2 G(n) + c(n), with
c(n) the sum of min(r, s) over the ordered coprime pairs with r s = n, that
is of min(u, n/u) over the 2^omega(n) unitary divisors u of n.  Proof: with
d_i the reduced denominator of i/n, the closed window j is the open one plus
its two endpoints, so its q is min(q_open, d_{j-1}, d_j).  Adding the right
endpoint alone lowers S_open by G(n), and by the reflection so does adding
the left one alone.  Both endpoints a/r = (j-1)/n and b/s = j/n lie below
q_open only when no fraction of denominator <= max(r, s) lies strictly
between them, that is when they are Farey neighbours, b r - a s = 1; as
b r - a s = r s / n, these are the windows with r s = n.  Then q_open is the
mediant's r + s, the two single corrections are s and r, and the window
drops only by max(r, s): it was counted twice, over by min(r, s).  Each
ordered coprime (r, s) with r s = n bounds exactly one window (a is
-s^-1 mod r).  So every variant sum solves the n // 2 windows of the open
half grid alone, and sum_report solves them once for all four.

Nested grids share one descent.  Let n divide m, k = m / n.  The open
window ](j - 1)/n, j/n[ is the union of the k open windows k (j - 1) + 1 ..
k j of the m-grid and of the k - 1 points x/m, k (j - 1) < x < k j, between
them, and x/m reduces to the denominator m / gcd(x, m).  So q_open(n, j) is
the least of the k window minima and of those point denominators, and the
windows j <= n // 2 read only the windows <= k (n // 2) <= m // 2 of m: the
open half grid of n is coarsened from that of m (_coarsen).  Only some
points need reading.  Consecutive fractions b/d < b'/d' of the Farey
sequence of order n + 1 are 1/(d d') apart with d + d' >= n + 2, so
d d' >= n + 1 and every open interval of length 1/n holds a fraction of
denominator <= n + 1: q_open(n, j) <= n + 1.  A point of denominator
m / g > n + 1 is thus never the minimum, and for g = gcd(x, m) k does not
divide g, as it does not divide x.  So each divisor g of m with
m <= (n + 1) g that k does not divide caps the window x // k + 1 of every
multiple x of g that k does not divide at m / g; that cap is at least the
point's own denominator m / gcd(x, m), which its own divisor gcd(x, m)
applies.  In a chain of powers of one prime no divisor qualifies (a
coarsened row has n >= k >= 2), and the coarsening is k strided minima.
denominator_sums walks the distinct rows from the largest down: a row n that
divides the next larger row m with k <= n (so k <= sqrt(m) strided views)
is coarsened from that row's half grid, any other row descends.

Every pair sum takes its pairs from the block kernel farey.coprime_blocks.
W(n) = 1 + P - Q/n, where P and Q sum 1/max(r, s) and min(r, s) over the
pairs.  The W routes over many n read the blocks alone
(window_integrals per product r s in _min_sums, window_integral_floats per
block); the sawtooth sums per_k_tables, t11_leftover_sum and
t2_quotient_groups read _pairs, the pairs r < s with the inverses of both
orientations, and sum_report takes P with T1, T11, T12 and T2 from one
_pairs pass (_pair_rows).  A pair (r, s) gives the T1, T11 and T12 terms
over 2 s and its mirror (s, r) the T2 term over 2 r, so no row masks out
half of an ordered-pair array.  The orders at which a pair sees a
following gap below 1/n form one suffix of its adjacency range, found in
closed form by _first_hit.  Exact sums over the denominators 2 d, d <= n
(_dense_sums: W and the sawtooth parts) add each int64
numerator row into a dense (rows, n + 1) accumulator indexed by d, with no
sort, and merge all rows over one pairwise tree.  Its leaves are ordered by
the rough part of d (1, or the one prime factor of d above sqrt(n)), so
neighbours share their large prime; its first levels run in int64, each only
while the guard dmax^2 <= INT64_MAX and 2 cmax dmax <= INT64_MAX holds (dmax
the largest denominator, cmax the largest |numerator|), and Python ints
finish it.  The bucketed sums of per_k_tables and t2_quotient_groups
(_fraction_sums) add the numerators per (bucket, denominator) and merge each
bucket alone in Python ints.  S(n) adds up the int64 blocks of
minden.half_grid_blocks.  A half grid is held only when the next smaller
row of denominator_sums coarsens from it: one preallocated array of n // 2
entries, int32 when 2n <= INT32_MAX as in the descent (2 bytes per window
of the grid) and int64 above, filled block by block and summed in int64.
A single n never holds one and streams in O(CHUNK) memory.
PAIRS_MAX_N (pair sums) and PER_K_MAX_N (per_k_tables) are the int64 limits,
beside minden.GRID_MAX_N; minden.check_grid_size checks each of them, and
n >= 1, up front, before any window is solved or any block is built.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .farey import coprime_blocks, unit_inverses
from .minden import (
    CHUNK,
    INT64_MAX,
    VARIANT_FLAGS,
    Variant,
    check_grid_size,
    grid_dtype,
    half_grid_blocks,
)

SIXTEEN_OVER_PI2 = 16 / math.pi**2

#: Largest n for the pair sums: the b1 numerators n*u over _pairs reach n*s <= n^2.
PAIRS_MAX_N = math.isqrt(INT64_MAX)
#: Largest n for per_k_tables: its bucket keys reach (3n + 5)(2n + 1) + 2n
#: = 6n^2 + 15n + 5, so (12n + 15)^2 <= 24 INT64_MAX + 105.
PER_K_MAX_N = (math.isqrt(24 * INT64_MAX + 105) - 15) // 12


def denominator_sum(n: int, variant: Variant = "half-open-right") -> int:
    """S(n): sum of the minimal denominators of the n grid windows, from half the windows.

    denominator_sums([n], variant)[0]: one descent of the open half grid,
    streamed in O(CHUNK) memory.  Raises ValueError for n < 1 and
    OverflowError for n > minden.GRID_MAX_N before any window is solved.
    """
    return denominator_sums([n], variant)[0]


def denominator_sums(ns: Sequence[int], variant: Variant = "half-open-right") -> list[int]:
    """S(n) for each n of ns, in input order, with one descent per divisor chain.

    Every variant starts from S_open(n) (_open_sums, which coarsens a row n
    from the half grid of the next larger row m when n divides m and
    m / n <= n), and _variant_sums turns it into the half-open and the
    closed sums.  Raises ValueError for an n < 1 and OverflowError for an
    n > minden.GRID_MAX_N anywhere in ns before any window is solved.
    """
    ns = list(ns)
    lo_closed, hi_closed = VARIANT_FLAGS[variant]
    for n in ns:
        check_grid_size(n)
    totals = _open_sums(ns)
    if lo_closed or hi_closed:
        for n, s_open in totals.items():
            s, s_closed = _variant_sums(n, s_open)
            totals[n] = s_closed if lo_closed and hi_closed else s
    return [totals[n] for n in ns]


def _variant_sums(n: int, s_open: int) -> tuple[int, int]:
    """(S, S_closed) of n from S_open(n) and (G, c) = _gaps(n), as the module docstring proves."""
    gap, corner = _gaps(n)
    return s_open - gap, s_open - 2 * gap + corner


def _open_sums(ns: Sequence[int]) -> dict[int, int]:
    """S_open(n) for each distinct n of ns: twice the open windows j <= n // 2, plus 2 for odd n.

    The rows are walked from the largest down.  The half grid of a row n is
    held only when the next smaller row below divides it with
    n / below <= below, so that _coarsen takes k <= sqrt(n) strided views (a
    k near n would run a Python loop of n steps for a few windows).  It is
    one array of n // 2 entries of minden.grid_dtype(n), filled block by
    block, and the row below is coarsened from it; any other row descends
    minden.half_grid_blocks.  The 2 of odd n is its middle window, which
    holds 1/2.
    """
    rows = sorted(set(ns), reverse=True)
    out = {}
    held = None  # (m, the open half grid of m) while the next row divides m
    for n, below in zip(rows, rows[1:] + [0]):
        keep = n <= below * below and n % below == 0
        if held is not None:
            half = _coarsen(*held, n)
            total = int(half.sum(dtype=np.int64))
        else:
            half = np.empty(n // 2, dtype=grid_dtype(n)) if keep else None
            total = 0
            for j, block in zip(range(0, n // 2, CHUNK), half_grid_blocks(n, "open")):
                total += int(block.sum())
                if keep:
                    half[j : j + block.size] = block
        out[n] = 2 * total + 2 * (n % 2)
        held = (n, half) if keep else None
    return out


def _coarsen(m: int, fine: np.ndarray, n: int) -> np.ndarray:
    """The open half grid of n from fine, the open half grid of m, for n | m.

    With k = m / n, the window j of n is the least of the k windows
    k (j - 1) + 1 .. k j of m, one strided view each, and of the points x/m
    between them.  A point reaches that least value only if its
    denominator m / gcd(x, m) is at most n + 1, so only the divisors g of m
    with m <= (n + 1) g that k does not divide are read: each multiple x of
    g with k not dividing x caps the window x // k + 1 at m / g (see the
    module docstring).
    """
    k = m // n
    stop = k * (n // 2)
    coarse = fine[:stop:k].copy()
    for t in range(1, k):
        np.minimum(coarse, fine[t:stop:k], out=coarse)
    for g in _divisors(_factorize(m)):
        if g % k and m <= (n + 1) * g:
            x = np.arange(g, stop, g)
            at = x[x % k != 0] // k
            coarse[at] = np.minimum(coarse[at], m // g)
    return coarse


def _pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The coprime pairs r < s with r s <= n as int64 arrays (r, s, x, y), in block order.

    x = inv(r, s) in 1..s and y = inv(s, r) in 1..r are the numerators of
    the right fractions x/s of the pair and y/r of its mirror (s, r); every
    ordered coprime pair with r s <= n is one of these, a mirror, or (1, 1).
    The blocks of coprime_blocks are concatenated, y is one gather from the
    cached tables unit_inverses(a), a = 1..isqrt(n), laid end to end (table
    a starts at a (a - 1) / 2), and x follows from r x + s y = 1 + r s, with
    every product <= n.  The n^2 bound belongs to the callers: their b1
    numerators n x and n y reach n s.  Raises ValueError for n < 1 and
    OverflowError for n > PAIRS_MAX_N.
    """
    check_grid_size(n, PAIRS_MAX_N, "PAIRS_MAX_N", "the pair sums")
    blocks = [big for _, big in coprime_blocks(n)]
    root = len(blocks)
    r = np.repeat(np.arange(1, root + 1, dtype=np.int64), [big.size for big in blocks])
    s = np.concatenate(blocks)
    del blocks
    tables = np.concatenate([unit_inverses(a) for a in range(1, root + 1)])
    y = tables[r * (r - 1) // 2 + s % r]
    return r, s, (1 + r * s - s * y) // r, y


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
    den: np.ndarray, num: np.ndarray, bucket: np.ndarray, size: int
) -> list[Fraction]:
    """Exact sums of num[i] / den[i] per bucket: out[b] sums the i with bucket[i] == b, b < size.

    The int64 numerators are first added per (bucket, denominator), zero
    terms are dropped, and each bucket goes to _pairwise_sums alone.
    """
    width = int(den.max(initial=0)) + 1
    keys, where = np.unique(bucket * width + den, return_inverse=True)
    acc = np.zeros(keys.size, dtype=np.int64)
    np.add.at(acc, where, num)
    keep = acc != 0
    b, d = np.divmod(keys[keep], width)
    starts = np.flatnonzero(np.diff(b, prepend=-1)).tolist()
    b, d, c = b.tolist(), d.tolist(), acc[keep].tolist()
    out = [Fraction(0)] * size
    for i, j in zip(starts, starts[1:] + [len(d)]):
        out[b[i]] = _pairwise_sums(d[i:j], [c[i:j]])[0]
    return out


def _rough_parts(n: int) -> np.ndarray:
    """x[d] for d = 0..n: d with every prime factor p <= isqrt(n) divided out.

    A d <= n has at most one prime factor above isqrt(n), to the first
    power, so x[d] is 1 or that prime (x[0] = 0).  Each prime power p^k <= n
    divides p out of its multiples once: x[p^k::p^k] //= p.
    """
    root = math.isqrt(n)
    prime = np.ones(root + 1, dtype=bool)
    prime[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if prime[p]:
            prime[p * p :: p] = False
    x = np.arange(n + 1, dtype=np.int64)
    for p in np.flatnonzero(prime).tolist():
        q = p
        while q <= n:
            x[q::q] //= p
            q *= p
    return x


def _dense_sums(acc: np.ndarray) -> list[Fraction]:
    """[sum of acc[i, d] / (2 d) over d = 1..D] for each row i of a (k, D + 1) int64 array, exactly.

    acc is a dense accumulator: every row of numerators over 2 d has been
    added into column d (column 0 stays 0), so no sort finds the distinct
    denominators.  The nonzero columns become the leaves of one merge tree
    that all rows share, ordered by the rough part of d (_rough_parts: 1 or
    one prime p > sqrt(D)), then by d.  Neighbouring leaves then share their
    large prime, so the lcm of a merge grows by the small factors only.  The
    first levels run in int64 while the guard of _int64_levels holds;
    _pairwise_sums finishes in Python ints.

    int64 bound of the accumulation, for the rows of _pair_rows(n) with
    D = n.  A T row adds, at d = s, w (2 e - s) for the pairs (r, s) with
    r s <= n, where |2 e - s| < s and the weight w <= min(r, s); so
    |acc[i, s]| < s (M (M + 1) / 2), M = n // s, which is at most n^2 / s.
    Row 0 holds 2 c_m at d = m, where c_m sums min(r, s) <= sqrt(m) over the
    at most tau(m) <= 2 sqrt(m) pairs with r s = m, so 0 <= acc[0, m] <= 4 m.
    Both are at most max(n^2, 4 n) <= INT64_MAX for every n <= PAIRS_MAX_N.
    """
    d = np.flatnonzero(acc.any(axis=0))
    d = d[np.argsort(_rough_parts(acc.shape[1] - 1)[d], kind="stable")]
    return _pairwise_sums(*_int64_levels(2 * d, acc[:, d]))


def _int64_levels(den: np.ndarray, num: np.ndarray) -> tuple[list[int], list[list[int]]]:
    """Merge levels of the fractions num[:, i] / den[i] in int64, while none can overflow.

    A merge of c1/d1 and c2/d2 gives (c1 (d2/g) + c2 (d1/g)) / (d1/g d2) with
    g = gcd(d1, d2), so with dmax = max den and cmax = max |num| a level
    stays in int64 when dmax^2 <= INT64_MAX and 2 cmax dmax <= INT64_MAX.
    The first level that fails this guard, and every later one, is left to
    _pairwise_sums, which gets the remaining terms as Python ints.
    """
    while den.size > 1:
        dmax = int(den.max())
        cmax = max(int(num.max()), -int(num.min()))
        if dmax * dmax > INT64_MAX or 2 * cmax * dmax > INT64_MAX:
            break
        even = den.size & ~1
        d1, d2 = den[0:even:2], den[1:even:2]
        g = np.gcd(d1, d2)
        a, b = d2 // g, d1 // g
        merged = num[:, 0:even:2] * a + num[:, 1:even:2] * b
        den = np.concatenate([b * d2, den[even:]])
        num = np.concatenate([merged, num[:, even:]], axis=1)
    return den.tolist(), num.tolist()


def _pairwise_sums(den: list[int], rows: list[list[int]]) -> list[Fraction]:
    """[sum of row[i] / den[i] over i, for each row], exactly, in Python ints.

    The terms are merged pairwise in place, i with i + step for step = 1, 2,
    4, ..., so the operands stay balanced in size; the rows share each
    merge's gcd and denominator product, and each sum is reduced to a
    Fraction once.
    """
    step = 1
    while step < len(den):
        for i in range(0, len(den) - step, 2 * step):
            d1, d2 = den[i], den[i + step]
            g = math.gcd(d1, d2)
            a, b = d2 // g, d1 // g
            den[i] = b * d2
            for row in rows:
                row[i] = row[i] * a + row[i + step] * b
        step *= 2
    return [Fraction(row[0], den[0]) if den else Fraction(0) for row in rows]


def per_k_tables(n: int) -> tuple[list[Fraction], list[Fraction], list[Fraction]]:
    """The tables (nu, xi, sigma) over the orders k = 0..n, in one pass over the pairs.

    Take the Farey gaps a/r < b/s of order k that are at least 1/n wide:
    nu_k, the measure of the t whose window ]t - 1/n, t] has minimal
    denominator > k, is the sum of (b/s - a/r - 1/n) over them (nu_0 = 1);
    the jump xi_k is the sum of frac(-n b/s) - frac(-n a/r) over them, so
    n nu_k + xi_k windows have q_j > k; and sigma_k is the sum of b1(n b/s)
    over the points b/s whose left gap is such a gap and whose right gap is
    below 1/n.  xi_k = -2 sigma_k holds at every k.

    Each coprime pair (r, s) with r s <= n is adjacent at the min(r, s)
    consecutive orders k in [max(r, s), r + s - 1]; its gap and jump terms
    cover that range and its sawtooth term the hitting suffix from
    _first_hit.  Every term enters a difference array over k where its range
    starts and leaves it where the range ends.  Raises OverflowError for
    n > PER_K_MAX_N.
    """
    check_grid_size(n, PER_K_MAX_N, "PER_K_MAX_N", "per_k_tables")
    # every ordered pair: (1, 1), the pairs r < s and their mirrors, with
    # u = inv(r, s) and v = inv(s, r)
    one = np.ones(1, dtype=np.int64)
    r, s, x, y = _pairs(n)
    r, s, u, v = (np.concatenate([one, a, b]) for a, b in ((r, s), (s, r), (x, y), (y, x)))
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


def _min_sums(n: int) -> np.ndarray:
    """c[m] = sum of min(r, s) over the coprime pairs with r s = m, m = 0..n; no inverses."""
    check_grid_size(n, PAIRS_MAX_N, "PAIRS_MAX_N", "the pair sums")
    c = np.zeros(n + 1, dtype=np.int64)
    c[1] = 1  # the pair (1, 1)
    for a, big in coprime_blocks(n):
        c[a * big] += 2 * a  # (a, L) and (L, a)
    return c


def _integral(n: int, p: Fraction, q: int) -> Fraction:
    """W = 1 + P - Q/n from P = sum of min(r, s)/(r s) and Q = sum of min(r, s) over the pairs."""
    return 1 + p - Fraction(q, n)


def window_integrals(ns: Sequence[int]) -> list[Fraction]:
    """W(n) exactly for each n of ns, in order, from one incremental pass up to max(ns).

    W(n) = 1 + P(n) - Q(n)/n as in the module docstring; step m adds the
    pairs with r s = m, whose min(r, s) sum to c[m], as c[m]/m to P and c[m]
    to Q.  W is formed only at the distinct n of ns, and a repeated n gets
    the same value at each of its places.  Every n is checked against
    PAIRS_MAX_N before any block is built.
    """
    ns = list(ns)
    for n in ns:
        check_grid_size(n, PAIRS_MAX_N, "PAIRS_MAX_N", "the pair sums")
    if not ns:
        return []
    found = dict.fromkeys(ns)
    p_acc, q_acc = Fraction(0), 0
    for m, c_m in enumerate(_min_sums(max(ns)).tolist()[1:], start=1):
        p_acc += Fraction(c_m, m)
        q_acc += c_m
        if m in found:
            found[m] = _integral(m, p_acc, q_acc)
    return [found[n] for n in ns]


def window_integral_series(max_n: int) -> list[Optional[Fraction]]:
    """W(n) exactly for every n = 1..max_n (index 0 is None): window_integrals over 1..max_n.

    max_n is checked against PAIRS_MAX_N before the range is listed.
    """
    check_grid_size(max_n, PAIRS_MAX_N, "PAIRS_MAX_N", "the pair sums")
    return [None, *window_integrals(range(1, max_n + 1))]


def window_integral_floats(ns: Sequence[int]) -> list[float]:
    """Float approximations of W(n) for each n of ns, in order, from one block pass.

    The same W = 1 + P - Q/n, summed block by block in the order a = 1, 2, ...:
    each block of n adds 2 (sum 1/L - a |block| / n) for its pairs (a, L) and
    (L, a).  Only the blocks of max(ns) are built.  The block a of n is the
    prefix L <= n // a of the block a of max(ns), so its reciprocals are a
    prefix of the larger block's, the same values in the same order, and a
    contiguous float64 sum depends only on those values and the length.  So
    every total is bit for bit what a pass over the blocks of n alone gives.
    Each block's prefix lengths are taken first, and a block is dropped
    before the next is built.  The a = 1 block, L = 2..max(ns), is dropped
    before its reciprocals are made from a float64 arange (exact below 2^53,
    and 1/x is correctly rounded either way); every other block gives its
    reciprocals in one np.divide.  So no int64 L array is held beside the a = 1
    reciprocals, and the peak is that float64 block, 8 bytes per L: 8.0 MiB
    traced at max(ns) = 2^20.  Every n is checked against minden.GRID_MAX_N
    before any block is built.
    """
    ns = list(ns)
    for n in ns:
        check_grid_size(n)
    totals = [2.0 - 1.0 / n for n in ns]  # k = 0 term plus the (1, 1) pair
    tops = np.array(ns, dtype=np.int64)
    for a, big in coprime_blocks(max(ns, default=0)):
        lengths = big.searchsorted(tops // a, "right").tolist()
        if a == 1:
            # big is 2..max(ns), below 2^53: its float64 copy is exact
            size = big.size
            del big
            recip = np.arange(2.0, size + 2.0)
            np.divide(1.0, recip, out=recip)
        else:
            recip = np.divide(1.0, big)
            del big
        for i, (n, m) in enumerate(zip(ns, lengths)):
            if m:
                totals[i] += 2.0 * (float(recip[:m].sum()) - a * m / n)
        del recip
    return totals


def _pair_rows(n: int) -> np.ndarray:
    """The (5, n + 1) int64 numerators over 2 d of P (for W) and T1, T11, T12, T2, summed per d.

    One _pairs(n) pass over the pairs r < s.  Row 0 adds 4 r at d = r s for
    a pair and its mirror, and 2 at d = 1 for (1, 1), so it is 2 c_m at m
    with c = _min_sums(n); rows 1-3 add the _part_numerators of each pair at
    d = s and row 4 those of its mirror at d = r.  The pair arrays are
    dropped on return, before the merge.
    """
    r, s, x, y = _pairs(n)
    rows = _part_numerators(n, r, s, x, y)  # the peak, before acc exists
    acc = np.zeros((5, n + 1), dtype=np.int64)
    acc[0, 1] = 2
    np.add.at(acc[0], r * s, 4 * r)
    for row, total in zip(rows[:3], acc[1:4]):
        np.add.at(total, s, row)
    np.add.at(acc[4], r, rows[3])
    return acc


def _part_numerators(
    n: int, r: np.ndarray, s: np.ndarray, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """The (4, m) numerators of T1, T11, T12 over 2 s and of T2 over 2 r, per pair of _pairs(n).

    T1, T11 and T12 take the pair (r, s), T2 its mirror (s, r).  Each is a
    weight times the b1 numerator of the right fraction, x/s or y/r; the
    weight rows are built in place in one array.  (1, 1) is in no part: its
    sawtooth value is 0.
    """
    rows = np.empty((4, r.size), dtype=np.int64)
    w1, w11, w12, w2 = rows
    # T1 and T2 weigh a pair by its hitting orders
    for w, hit in ((w1, _first_hit(n, r, s)), (w2, _first_hit(n, s, r))):
        np.subtract(r + s, hit, out=w)
        np.maximum(w, 0, out=w)
    # T11 and T12 split the orders k in [s, r + s) by j = 1 and j = 2; s t > n
    # for the next denominator t is t > n // s
    cap = n // s
    np.minimum(r, s - r, out=w11)
    w11 *= s - r > cap
    np.clip(2 * r - s, 0, s, out=w12)
    w12 *= 2 * s - r > cap
    rows[:3] *= _b1_numerators(n, s, x)
    w2 *= _b1_numerators(n, r, y)
    return rows


def t11_leftover_sum(n: int) -> int:
    """Number of orders in the complementary piece of the T11 split; always 0.

    For r < s with s (s - r) > n and r s <= n the order range [s, 2s - r)
    already covers every k in [s, r + s), because r s <= n < s (s - r)
    forces r < s - r.  The complementary range is therefore empty; this
    function adds up its length literally anyway, over the kernel's pairs
    r < s.  The lengths are >= 0, so a zero total means every range is
    empty and the piece's sawtooth sum is 0.
    """
    r, s, _, _ = _pairs(n)
    leftover = np.maximum(0, (r + s) - np.maximum(s, 2 * s - r))
    return int(np.where((2 * r > s) & (s - r > n // s), leftover, 0).sum())


def t2_quotient_groups(n: int) -> dict[int, Fraction]:
    """T2 regrouped by the quotient j = floor((k + r) / s), as {j: subtotal}.

    A pair with r > s can hit (s t > n, t = j s - r) only at j = ceil(2r / s),
    for 2r - (j - 1) s orders k; at smaller j, t <= r.  The subtotals sum to
    sum_report(n).t2; j = 2 comes first, an explicit zero (it would need
    s < r <= s), then every j with a nonzero subtotal in increasing order.
    With r > s, 2s < 2 sqrt(n) and j <= 2n, so the int64 bucket keys stay
    below (2n + 1)(2 sqrt(n) + 1) < 2^50 for n <= PAIRS_MAX_N.
    """
    s, r, _, u = _pairs(n)  # the mirrors (r, s), r > s, with u = inv(r, s)
    j = (2 * r + s - 1) // s
    weight = np.where(s * (j * s - r) > n, 2 * r - (j - 1) * s, 0)
    totals = _fraction_sums(2 * s, weight * _b1_numerators(n, s, u), j, int(j.max(initial=2)) + 1)
    return {q: total for q, total in enumerate(totals) if total or q == 2}


def variant_gap(n: int) -> int:
    """S_open(n) - S(n), the growth of S when every window is opened.

    Equals G(n), the sum of min(r, s) over coprime pairs with r s <= n and s
    dividing n, and is at most n * tau(n).
    """
    return _gaps(n)[0]


def _gaps(n: int) -> tuple[int, int]:
    """(G(n), c(n)) from one factorisation of n: variant_gap(n) and the closed sum's correction.

    G(n) in closed form: for each divisor s of n, with M = n / s and
    X = min(M, s), Moebius over the squarefree d | s gives
    sum_{r <= M, (r, s) = 1} min(r, s) = sum_{d | s} mu(d) (d A(A + 1)/2 + s (B - A)),
    A = floor(X / d), B = floor(M / d); exact integers, O(tau(n) 2^omega(n))
    operations after the trial-division factorisation of n.  c(n), the sum
    of min(r, s) over the ordered coprime pairs with r s = n, is the sum of
    min(u, n / u) over the 2^omega(n) unitary divisors u of n, which take
    each prime power p^e of n whole or not at all.
    """
    check_grid_size(n, math.inf)  # Python ints: no int64 limit
    factors = _factorize(n)
    unitary = [1]
    for p, e in factors:
        unitary += [u * p**e for u in unitary]
    total = 0
    for s in _divisors(factors):
        m = n // s
        x = min(m, s)
        moebius = [(1, 1)]  # (d, mu(d)) for the squarefree d | s
        for p, _ in factors:
            if s % p == 0:
                moebius += [(d * p, -mu) for d, mu in moebius]
        for d, mu in moebius:
            a, b = x // d, m // d
            total += mu * (d * (a * (a + 1) // 2) + s * (b - a))
    return total, sum(min(u, n // u) for u in unitary)


def _divisors(factors: list[tuple[int, int]]) -> list[int]:
    """Every divisor of the number whose _factorize pairs (p, exponent) are factors."""
    divisors = [1]
    for p, e in factors:
        divisors = [d * p**k for d in divisors for k in range(e + 1)]
    return divisors


def _factorize(n: int) -> list[tuple[int, int]]:
    """The prime factorisation of n >= 1 as (p, exponent) pairs, p increasing, by trial division."""
    factors, p = [], 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        p += 1
    return factors + [(n, 1)] if n > 1 else factors


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
    """Exact-path report: all four variant sums, the integral, R and its sawtooth parts.

    The half-open-left sum is S itself: the reflection t -> 1 - t maps the
    windows of one variant onto those of the other (verify.check_variants
    still computes it from the per-window grid).  One descent of the open
    half grid gives S_open, and _variant_sums S and S_closed, as in
    denominator_sums.  The sawtooth parts T1, T11, T12 and T2 are sums of
    b1(n inv(r, s) / s) over the coprime pairs with r s <= n, weighted by
    how many orders k the pair stays adjacent while the following gap is
    already below 1/n, and T = T1 + T2.  W and the four parts come from one
    _pairs pass (_pair_rows) and one _dense_sums call over its five rows.
    Both int64 limits are checked before the descent, the grid's first.
    """
    check_grid_size(n)
    check_grid_size(n, PAIRS_MAX_N, "PAIRS_MAX_N", "the pair sums")
    s_open = _open_sums([n])[n]
    s, s_closed = _variant_sums(n, s_open)
    acc = _pair_rows(n)
    p, t1, t11, t12, t2 = _dense_sums(acc)
    integral = _integral(n, p, int(acc[0].sum()) // 2)
    r = s - n * integral
    if n == 1:
        r_over_bound = None
    else:
        r_over_bound = abs(float(r)) / (n ** (4 / 3) * math.log(n) ** 2)
    return SumReport(
        n=n,
        s=s,
        s_closed=s_closed,
        s_half_open_left=s,
        s_open=s_open,
        integral=integral,
        r=r,
        t=t1 + t2,
        t1=t1,
        t11=t11,
        t12=t12,
        t2=t2,
        ratio=s / n**1.5,
        chen_haynes_residual=chen_haynes_residual(n, float(integral)),
        r_over_bound=r_over_bound,
    )
