import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindenom import cli, expsums, farey, minden, sums

import oracles


def test_denominator_sum_examples():
    assert sums.denominator_sum(1) == 1
    assert sums.denominator_sum(4) == 10
    assert sums.denominator_sum(2, "open") == 6
    # n = 1 is only the middle window; n = 2 has no middle window
    variants = ("half-open-right", "half-open-left", "closed", "open")
    assert [sums.denominator_sum(1, v) for v in variants] == [1, 1, 1, 2]
    assert [sums.denominator_sum(2, v) for v in variants] == [3, 3, 2, 6]


def _grid_sum(n, variant):
    """The variant sum over every window of the per-window grid solver."""
    return sum(int(block.sum()) for block in minden.grid_blocks(n, variant))


def test_reflected_sums_match_grid():
    # every n <= 2000 (odd n add a middle window), primes, powers of 2, highly
    # composite n, and half ranges that end on either side of a block join
    chunk = minden.CHUNK
    ns = [*range(1, 2001), 7919, 65521, *(2**k for k in range(11, 21)), 5040, 720720, 510510, 3**9]
    ns += [2 * chunk + d for d in (-1, 0, 1, 2, 3)]
    for n in ns:
        for variant in minden.VARIANT_FLAGS:
            assert sums.denominator_sum(n, variant) == _grid_sum(n, variant), (n, variant)


def test_denominator_sum_matches_brute_grid():
    for n in range(1, 40):
        for variant, flags in (
            ("half-open-right", (False, True)),
            ("half-open-left", (True, False)),
            ("closed", (True, True)),
            ("open", (False, False)),
        ):
            assert sums.denominator_sum(n, variant) == sum(oracles.grid_brute(n, *flags))


def test_denominator_sum_memory_is_bounded():
    # a list of all 2**20 denominators would take over 30 MB; the grid solver
    # holds about two dozen int64 arrays of CHUNK entries at a time
    sums.denominator_sum(64)  # imports and first-call set-up outside the trace
    tracemalloc.start()
    try:
        s = sums.denominator_sum(2**20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert s == 1740040811  # the N = 2**20 row of perfbench/golden_sweep.csv
    assert peak < 32 * minden.CHUNK * 8


def test_denominator_sums_match_grid():
    chunk = minden.CHUNK
    chains = [
        [2**k for k in range(12)],  # k = 2
        [3**k for k in range(8)],  # k = 3, odd top 2187
        [5**k for k in range(5)],  # k = 5, odd top 625
        [10**k for k in range(4)],  # k = 10
        [105105, 21021, 3003, 429, 33, 3, 1],  # odd top past 2 CHUNK, k = 5, 7, 7, 13, 11, 3, 3
        [2 * chunk * 5, 10, 2],  # k = CHUNK and 5, each above its row: all three descend
        [720720, 360360, 120120, 30030, 6006, 858, 66, 6, 2],
        [d for d in range(1, 5041) if 5040 % d == 0],
    ]
    mixed = [
        [12, 1, 36, 12, 5, 36, 4, 7, 1],  # duplicates, unsorted
        [7919, 1000, 999, 2, 3, 2 * chunk + 3],  # no row divides the next larger one
    ]
    for ns in chains + mixed:
        for variant in minden.VARIANT_FLAGS:
            expected = [_grid_sum(n, variant) for n in ns]
            assert sums.denominator_sums(ns, variant) == expected, (ns, variant)
            assert sums.denominator_sums(ns[::-1], variant) == expected[::-1]
    for variant in minden.VARIANT_FLAGS:
        assert sums.denominator_sums([], variant) == []


def test_denominator_sums_descend_once_per_chain(monkeypatch):
    descended = []
    descend = minden._descend_block

    def counted(n, j, a_open, b_open):
        descended.append(n)
        return descend(n, j, a_open, b_open)

    monkeypatch.setattr(minden, "_descend_block", counted)
    sums.denominator_sums([2**k for k in range(21)])
    assert descended == [2**20] * (2**19 // minden.CHUNK)
    descended.clear()
    sums.denominator_sums([100, 49, 6, 50, 1])  # only 50 divides the next larger row
    assert sorted(set(descended)) == [6, 49, 100]
    # a row n is coarsened only from an m <= n^2: m / n strided views at most n
    descended.clear()
    sums.denominator_sums([10**4, 100, 10])
    assert set(descended) == {10**4}
    descended.clear()
    sums.denominator_sums([10**4, 10])
    assert sorted(set(descended)) == [10, 10**4]


def test_denominator_sums_check_every_n_before_any_descent(monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(minden, "_descend_block", reached)
    with pytest.raises(Reached):
        sums.denominator_sums([64, 8, minden.GRID_MAX_N])
    for bad, error in ((0, ValueError), (-3, ValueError), (minden.GRID_MAX_N + 1, OverflowError)):
        for ns in ([bad, 64, 8], [64, bad, 8], [64, 8, bad]):
            with pytest.raises(error):
                sums.denominator_sums(ns, "closed")


def test_denominator_sums_memory_is_bounded():
    # the top row of the chain streams its descent into one int32 half grid of
    # 2**19 entries; each smaller row is coarsened from the one above it
    ns = [2**k for k in range(21)]
    expected = [sums.denominator_sum(n) for n in ns]
    tracemalloc.start()
    try:
        got = sums.denominator_sums(ns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == expected
    assert expected[-1] == 1740040811  # the N = 2**20 row of perfbench/golden_sweep.csv
    assert peak <= 2**19 * 4 + 32 * minden.CHUNK * 8


#: The entry points of a grid size n, by the limit (name, value) that
#: minden.check_grid_size holds them to; the Python-int paths have none.
ENTRY_POINTS = {
    ("GRID_MAX_N", minden.GRID_MAX_N): [
        *(partial(sums.denominator_sum, variant=v) for v in minden.VARIANT_FLAGS),
        lambda n: sums.denominator_sums([8, n]),
        lambda n: sums.window_integral_floats([8, n]),
        minden.grid_blocks,
        minden.half_grid_blocks,
        minden.grid_denominators,
        sums.sum_report,  # the grid limit is checked before the pair limit
        lambda n: cli.sweep_rows(1, n),
    ],
    ("PAIRS_MAX_N", sums.PAIRS_MAX_N): [
        sums.window_integral_series, sums.t11_leftover_sum, sums.t2_quotient_groups, sums._pairs,
        lambda n: sums.window_integrals([8, n]),
    ],
    ("PER_K_MAX_N", sums.PER_K_MAX_N): [sums.per_k_tables],
    (None, None): [sums.variant_gap, lambda n: minden.min_denominator_grid(n, 1)],
}


def test_int64_size_limits(monkeypatch):
    int64_max = 2**63 - 1
    assert sums.INT64_MAX == minden.INT64_MAX == int64_max
    assert sums.PAIRS_MAX_N**2 <= int64_max < (sums.PAIRS_MAX_N + 1) ** 2
    keys = lambda n: (3 * n + 5) * (2 * n + 1) + 2 * n  # per_k_tables bucket keys
    assert keys(sums.PER_K_MAX_N) <= int64_max < keys(sums.PER_K_MAX_N + 1)
    # window_integrals' bucket keys reach max^2 + max - 1
    assert sums.PAIRS_MAX_N * (sums.PAIRS_MAX_N + 1) <= int64_max

    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    # the first allocation of the pair and float sums and the grid descent are
    # stubbed out: one above its limit each entry point raises before them,
    # naming the limit, and at its limit each guard lets the call through
    monkeypatch.setattr(sums, "coprime_blocks", reached)
    monkeypatch.setattr(minden, "_descend_block", reached)
    for (name, limit), calls in ENTRY_POINTS.items():
        if name is None:
            continue
        message = f"^grid size {limit + 1} exceeds {name} = {limit}, the int64 limit of "
        for call in calls:
            with pytest.raises(OverflowError, match=message):
                call(limit + 1)
    # at the pair limit the exact report gets through to the grid descent
    grid, pairs = minden.GRID_MAX_N, sums.PAIRS_MAX_N
    for call, n in [(sums.denominator_sum, grid), (sums.window_integral_floats, [grid]),
                    (sums._pairs, pairs), (sums.per_k_tables, sums.PER_K_MAX_N),
                    (sums.sum_report, pairs)]:
        with pytest.raises(Reached):
            call(n)


@lru_cache(maxsize=None)
def _tables(n):
    """per_k_tables(n), computed once per n across the tests below."""
    return sums.per_k_tables(n)


def test_denominator_sum_via_counts():
    # S(n) as the sum over k of the window counts n nu_k + xi_k
    for n in range(1, 60):
        nu, xi, _ = _tables(n)
        assert sum(n * nu_k + xi_k for nu_k, xi_k in zip(nu, xi)) == sums.denominator_sum(n)


def test_measure_above_examples():
    assert _tables(1)[0] == [1, 0]
    assert _tables(7)[0][0] == 1
    assert _tables(2)[0][1] == Fraction(1, 2)
    assert _tables(5)[0][5] == 0
    assert _tables(4)[0] == [1, Fraction(3, 4), Fraction(1, 2), Fraction(1, 6), 0]


def test_measure_above_matches_brute():
    for n in range(1, 50):
        nu = _tables(n)[0]
        assert len(nu) == n + 1
        for k in range(n + 1):
            assert nu[k] == oracles.measure_above_brute(n, k), (n, k)


def test_sawtooth_gap_sum_examples():
    assert _tables(1)[2] == [0, 0]
    sigma = _tables(4)[2]
    assert sigma == [0, 0, 0, Fraction(-1, 6), 0]
    assert sum(sigma, Fraction(0)) == -sums.sum_report(4).r / 2 == Fraction(-1, 6)
    assert _tables(3)[2][3] == 0


def test_sawtooth_gap_sum_matches_brute():
    for n in range(1, 51):
        sigma = _tables(n)[2]
        assert len(sigma) == n + 1 and sigma[0] == 0
        for k in range(1, n + 1):
            assert sigma[k] == oracles.sawtooth_brute(n, k), (n, k)


def test_frac_jump_sum_examples():
    assert _tables(1)[1] == [0, 0]
    xi = _tables(4)[1]
    assert xi == [0, 0, 0, Fraction(1, 3), 0]
    assert sum(xi, Fraction(0)) == sums.sum_report(4).r == Fraction(1, 3)


def test_frac_jump_sum_matches_brute_and_sawtooth():
    for n in range(1, 51):
        _, xi, sigma = _tables(n)
        assert len(xi) == n + 1 and xi[0] == 0
        for k in range(1, n + 1):
            assert xi[k] == oracles.frac_jump_brute(n, k), (n, k)
            assert xi[k] == -2 * sigma[k], (n, k)


def test_per_k_tables_match_single_queries():
    # the window count n nu_k + xi_k of the tables and the count over the grid
    # blocks against the single-k count of windows with q_j > k by definition
    for n in range(1, 60):
        nu, xi, sigma = _tables(n)
        assert len(nu) == len(xi) == len(sigma) == n + 1
        assert nu[0] == 1 and xi[0] == 0 and sigma[0] == 0
        q = np.concatenate(list(minden.grid_blocks(n)))
        for k in range(n + 1):
            expect = oracles.theta_brute(n, k)
            assert int(np.count_nonzero(q > k)) == expect, (n, k)
            assert n * nu[k] + xi[k] == expect, (n, k)


def test_window_integral_examples():
    assert sums.window_integral_series(4)[1:] == [1, Fraction(3, 2), Fraction(2), Fraction(29, 12)]


def test_window_integrals_any_order():
    # unsorted and repeated n: each place gets W of its own n, as in the series
    series = sums.window_integral_series(60)
    ns = [60, 3, 17, 3, 1, 60, 2]
    assert sums.window_integrals(ns) == [series[n] for n in ns]
    assert sums.window_integrals([]) == []


def test_window_integrals_at_scale():
    # the many-n route above n = 2000, unsorted and repeated, against sum_report
    ns = [10**5, 2001, 10**4, 2001]
    assert sums.window_integrals(ns) == [sums.sum_report(n).integral for n in ns]


def test_window_integral_routes_agree():
    series = sums.window_integral_series(120)
    floats = sums.window_integral_floats(range(1, 121))
    for n in range(1, 121):
        by_measure = sum(_tables(n)[0], Fraction(0))
        assert sums.sum_report(n).integral == by_measure == series[n]
        assert math.isclose(floats[n - 1], float(series[n]), rel_tol=1e-12)


@pytest.mark.parametrize("n", [1999, 2000, 2001])
def test_window_integral_float_at_budget_switch(n):
    # sweep switches from the exact to the float integral at the default
    # budget 2000; about 3e-16 relative error was measured there
    exact = float(sums.window_integral_series(n)[n])
    assert abs(sums.window_integral_floats([n])[0] - exact) <= 1e-13 * exact


@pytest.mark.parametrize(
    "ns",
    [
        [2**k for k in range(11, 21)],
        list(range(2001, 2401)),
        [5000, 3, 77, 5000, 1, 2**17, 3, 12345],
    ],
    ids=["2^11..2^20", "2001..2400", "unsorted"],
)
def test_window_integral_floats_bit_identical(ns):
    # one pass over the blocks of max(ns) gives each n's own pass, bit for bit
    assert sums.window_integral_floats(ns) == [
        oracles.window_integral_float_gcd(n) for n in ns
    ]


def test_window_integral_floats_edges():
    assert sums.window_integral_floats([]) == []


def test_window_integral_floats_memory_is_bounded():
    # one block of 2**20 at a time, and the a = 1 block's int64 L dropped
    # before its 8 MiB of float64 reciprocals are made (16 MiB with both)
    ns = [2**k for k in range(11, 21)]
    sums.window_integral_floats([64])  # first-call set-up outside the trace
    tracemalloc.start()
    try:
        sums.window_integral_floats(ns)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 2**20


def test_first_hit_matches_order_by_order_rule():
    # the orders k with s * t > n (t the next denominator) are [k*, r + s)
    for n in range(1, 80):
        pairs = sorted(oracles.coprime_pairs_brute(n))
        r = np.array([p[0] for p in pairs], dtype=np.int64)
        s = np.array([p[1] for p in pairs], dtype=np.int64)
        for ri, si, ki in zip(r.tolist(), s.tolist(), sums._first_hit(n, r, s).tolist()):
            hits = [
                k
                for k in range(max(ri, si), ri + si)
                if si * farey.next_denominator(k, ri, si) > n
            ]
            assert hits == list(range(ki, ri + si)), (n, ri, si)


def test_remainder_routes_agree():
    # R by definition against the sums of the per-order jumps and sawtooth terms
    for n in range(1, 80):
        _, xi, sigma = _tables(n)
        assert sums.sum_report(n).r == sum(xi, Fraction(0)) == -2 * sum(sigma, Fraction(0))


def test_sawtooth_last_interior_index_never_fires():
    # the summand just before 1/1 has right gap exactly 1/k, never < 1/n for k <= n,
    # so including or excluding that index cannot change the sum
    for k in range(2, 60):
        seq = farey.farey_sequence(k)
        i = len(seq) - 2
        assert seq[i + 1] - seq[i] == Fraction(1, k)
        for n in range(k, 2 * k + 1):
            assert not seq[i + 1] - seq[i] < Fraction(1, n)


def test_t11_leftover_sum_is_zero():
    for n in range(1, 120):
        assert sums.t11_leftover_sum(n) == 0


def test_t2_quotient_groups():
    for n, want in enumerate(oracles.t2_groups_brute(79)[1:], start=1):
        groups = sums.t2_quotient_groups(n)
        assert groups == want and list(groups) == sorted(groups) and groups[2] == 0
        assert sum(groups.values(), Fraction(0)) == sums.sum_report(n).t2


def test_pair_inverses():
    # the pairs r < s, each unordered coprime pair with r s <= n once, with
    # the numerators x = inv(r, s) of the pair and y = inv(s, r) of its mirror
    for n in (1, 2, 30, 97, 200, 1000):
        r, s, x, y = sums._pairs(n)
        assert all(a.dtype == np.int64 for a in (r, s, x, y))
        half = list(zip(r.tolist(), s.tolist()))
        assert len(set(half)) == len(half) and all(a < b for a, b in half)
        assert {(1, 1), *half, *((b, a) for a, b in half)} == oracles.coprime_pairs_brute(n)
        assert ((1 <= x) & (x <= s)).all() and ((1 <= y) & (y <= r)).all()
        assert (r * x % s == 1).all() and (s * y % r == 1 % r).all()
        assert x.tolist() == [farey.inv_mod(a, b) for a, b in half]
        assert y.tolist() == [farey.inv_mod(b, a) for a, b in half]


def test_exact_report_builds_pairs_once(monkeypatch):
    calls = []
    for module, name in (
        (sums, "_pairs"),
        (sums, "_fraction_sums"),
        (sums, "_dense_sums"),
        (minden, "_descend_block"),
    ):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, f=real: calls.append((f.__name__, a)) or f(*a)
        )

    def finisher_rows():
        """The row count of every _dense_sums call since the last clear."""
        return [a[0].shape[0] for name, a in calls if name == "_dense_sums"]

    sums.sum_report(300)
    names = [name for name, _ in calls]
    assert names.count("_pairs") == 1 and "_fraction_sums" not in names
    # one block of the open half grid: the closed sum comes by identity
    assert names.count("_descend_block") == 1
    assert finisher_rows() == [5]  # W's row and the four parts over one tree
    calls.clear()
    sums.window_integral_series(300)
    assert "_pairs" not in [name for name, _ in calls]


def test_sum_report_memory_is_bounded():
    # the parts of sum_report: _pairs holds each unordered pair once and the
    # four weight rows are built in place in one array; the unit is still an
    # int64 array over the ordered pairs, the mirrors and (1, 1) included, and
    # 8 of them leave room over the 6.6 measured at this n (the descent
    # streams in O(CHUNK) memory)
    n = 10**5
    pairs = 2 * sums._pairs(n)[0].size + 1
    sums.sum_report(7)  # first-call set-up outside the trace
    tracemalloc.start()
    try:
        sums.sum_report(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 8 * pairs


def _check_dense_sums(den, num):
    """_dense_sums against one Fraction per term; num / den enters as 2 num at column den."""
    den = np.array(den, dtype=np.int64)
    rows = np.atleast_2d(np.array(num, dtype=np.int64))
    acc = np.zeros((rows.shape[0], int(den.max(initial=0)) + 1), dtype=np.int64)
    for row, total in zip(rows, acc):
        np.add.at(total, den, 2 * row)
    assert sums._dense_sums(acc) == [oracles.fraction_sum_brute(den, row) for row in rows]


def _check_fraction_sums(den, num, bucket, size):
    """_fraction_sums against one Fraction per term, bucket by bucket."""
    den, num = np.array(den, dtype=np.int64), np.array(num, dtype=np.int64)
    bucket = np.array(bucket, dtype=np.int64)
    want = [oracles.fraction_sum_brute(den[bucket == b], num[bucket == b]) for b in range(size)]
    assert sums._fraction_sums(den, num, bucket, size) == want


@pytest.mark.parametrize(
    "den, num",
    [
        ([], []),  # empty, one row
        ([], [[], []]),  # empty, two rows
        ([7], [-3]),  # a single term
        ([7], [[-3], [0], [5]]),
        ([4, 6, 4, 9, 1], [3, -1, -3, 0, 2]),  # odd length, a cancelling denominator
        ([5, 3, 5, 10, 7, 2, 3], [[1, -2, 3, -4, 5, -6, 7], [0] * 7, [-9] * 7]),  # an all-zero row
        ([2, 4, 8], [[0, 0, 0], [1, 1, -2]]),
    ],
)
def test_fraction_sums_edges(den, num):
    _check_dense_sums(den, num)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.lists(st.tuples(st.integers(1, 60), st.integers(0, 3)), max_size=50),
    st.data(),
)
def test_fraction_sums_match_oracle(k, terms, data):
    den = [d for d, _ in terms]
    row = st.lists(st.integers(-(10**6), 10**6), min_size=len(den), max_size=len(den))
    rows = [data.draw(row) for _ in range(k)]
    _check_dense_sums(den, rows)
    _check_dense_sums(den, rows[0])
    _check_fraction_sums(den, rows[0], [b for _, b in terms], 4)


#: The int64 guard of _int64_levels: dmax^2 <= INT64_MAX and 2 cmax dmax <= INT64_MAX.
DMAX = math.isqrt(sums.INT64_MAX)
#: With the denominators (D - 1, D), numerators C pass the guard and C + 1 fail it,
#: and (C + 1)(2 D - 1) > INT64_MAX, so the merge past the guard would wrap.
D = 2**31 - 1
C = sums.INT64_MAX // (2 * D)


@pytest.mark.parametrize(
    "den, num, levels",
    [
        # dmax at the guard: one level, then the products near DMAX^2 stop it
        ([DMAX - 2, DMAX - 1, DMAX], [[1, 1, 1], [-1, 2, -3]], 1),
        # dmax one above: no level; a second one would wrap the product
        ([DMAX - 1, DMAX, DMAX + 1], [[1, 1, 1], [-1, 2, -3]], 0),
        # a product that wraps, with numerators far inside the 2 cmax dmax bound
        ([DMAX + 1, DMAX + 2], [[1, 1]], 0),
        ([D - 1, D], [[C, C], [-C, -C]], 1),  # 2 cmax dmax at the guard
        ([D - 1, D], [[C + 1, C + 1], [0, 0]], 0),  # one above, from num.max()
        ([D - 1, D], [[-C - 1, -C - 1]], 0),  # one above, from num.min()
        ([2**k for k in range(21)], [[(-1) ** k * k for k in range(21)]], 5),  # to one term
        (list(range(1, 65)), [list(range(-32, 32))], 3),  # three levels, then the guard fails
    ],
)
def test_int64_levels_guard(den, num, levels):
    # an int64 array overflow wraps silently, so without the guard the rows
    # one above it come out wrong; these denominators are far too large for
    # the dense accumulator, so the finisher's two merge stages run directly
    merged, rows = sums._int64_levels(np.array(den, dtype=np.int64), np.array(num, dtype=np.int64))
    assert len(merged) == -(-len(den) // 2**levels)
    want = [oracles.fraction_sum_brute(den, row) for row in num]
    assert sums._pairwise_sums(merged, rows) == want


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 12, 30, 97, 1999, 2000, 10**4])
def test_pair_rows_within_int64_bound(n):
    # the bound stated in _dense_sums: |acc[i, s]| < s M (M + 1) / 2 <= n^2 / s
    # for the T rows (M = n // s) and 0 <= acc[0, m] <= 4 m, so every entry is
    # at most max(n^2, 4 n), which fits int64 up to PAIRS_MAX_N
    acc = sums._pair_rows(n)
    d = np.arange(1, n + 1, dtype=np.int64)
    m = n // d
    bound = d * m * (m + 1) // 2
    assert (bound <= n * n // d).all()
    assert not acc[:, 0].any()
    assert (np.abs(acc[1:, 1:]) < bound).all()
    assert ((0 <= acc[0, 1:]) & (acc[0, 1:] <= 4 * d)).all()
    assert int(np.abs(acc).max()) <= max(n * n, 4 * n)
    top = sums.PAIRS_MAX_N
    assert max(top * top, 4 * top) <= sums.INT64_MAX


@lru_cache(maxsize=None)
def _series():
    """window_integral_series(2000), computed once across the tests below."""
    return sums.window_integral_series(2000)


@pytest.mark.parametrize("n", [*range(1, 61), 97, 1999, 2000])
def test_dense_sums_match_independent_routes(n):
    # the five rows of sum_report's one finisher call: W against the
    # incremental series and the per-order measures, the parts against
    # per-pair Fraction sums
    rep = sums.sum_report(n)
    assert rep.integral == _series()[n] == sum(_tables(n)[0], Fraction(0))
    r, s, x, y = sums._pairs(n)
    rows = sums._part_numerators(n, r, s, x, y)
    want = [oracles.fraction_sum_brute(2 * d, row) for d, row in zip((s, s, s, r), rows)]
    assert [rep.t1, rep.t11, rep.t12, rep.t2] == want
    # P and Q over the ordered pairs: (1, 1), then each pair r < s and its mirror
    prod, low = (np.concatenate([[1], a, a]) for a in (r * s, r))
    p = oracles.fraction_sum_brute(prod, low)
    assert rep.integral == 1 + p - Fraction(int(low.sum()), n)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 400), st.data())
def test_dense_sums_any_leaf_order(n, data):
    # the leaf order only changes the merge tree, never the Fractions
    acc = sums._pair_rows(n)
    leaves = np.flatnonzero(acc.any(axis=0))
    order = np.array(data.draw(st.permutations(leaves.tolist())), dtype=np.int64)
    shuffled = sums._pairwise_sums(*sums._int64_levels(2 * order, acc[:, order]))
    assert shuffled == sums._dense_sums(acc)


def test_variant_gap_examples():
    assert sums.variant_gap(1) == 1
    assert sums.variant_gap(2) == 3


def test_variant_gap_routes_and_bound():
    for n in range(1, 301):
        upper = sums.variant_gap(n)
        assert upper == _grid_sum(n, "open") - _grid_sum(n, "half-open-right")
        pairs = oracles.coprime_pairs_brute(n)
        assert upper == sum(min(r, s) for r, s in pairs if n % s == 0)
        # the closed sum's correction: the pairs with r s = n
        assert sums._gaps(n) == (upper, sum(min(r, s) for r, s in pairs if r * s == n))
        tau = expsums.divisor_count(n)
        assert 0 <= upper <= n * tau
        lower = sums.denominator_sum(n) - sums.denominator_sum(n, "closed")
        assert lower == _grid_sum(n, "half-open-right") - _grid_sum(n, "closed")
        assert 0 <= lower <= n * tau


def test_half_open_variants_equal():
    # on the per-window grid: denominator_sum takes both from the open sum
    for n in range(1, 120):
        assert _grid_sum(n, "half-open-left") == _grid_sum(n, "half-open-right")


def test_chen_haynes_residual():
    assert sums.chen_haynes_residual(1, 1.0) == math.inf
    v = sums.chen_haynes_residual(4, float(Fraction(29, 12)))
    expect = abs(29 / 12 - sums.SIXTEEN_OVER_PI2 * 2) / math.log(4) ** 2
    assert math.isclose(v, expect, rel_tol=1e-15)


def test_sum_report_consistency():
    # the four variant sums (s, s_closed, s_half_open_left, s_open), R by its
    # definition and from the many-n W, R = -2T, T1 + T2, T11 + T12, r_over_bound
    variants = ("half-open-right", "closed", "half-open-left", "open")
    ns = [*range(1, 201), 2000]
    for n, w in zip(ns, sums.window_integrals(ns)):
        rep = sums.sum_report(n)
        want = tuple(sums.denominator_sum(n, v) for v in variants)
        assert rep[1:5] == want, n
        assert rep.r == rep.s - n * rep.integral == want[0] - n * w == -2 * rep.t, n
        assert rep.t == rep.t1 + rep.t2 and rep.t1 == rep.t11 + rep.t12
        if n > 1:
            bound = n ** (4 / 3) * math.log(n) ** 2
            assert rep.r_over_bound == pytest.approx(abs(float(rep.r)) / bound)
    rep = sums.sum_report(4)
    assert rep.s == 10
    assert rep.integral == Fraction(29, 12)
    assert rep.r == Fraction(1, 3)
    assert rep.t == Fraction(-1, 6)
    assert rep.s_closed == 6 and rep.s_open == 16 and rep.s_half_open_left == 10
    assert math.isclose(rep.ratio, 10 / 8)
    rep1 = sums.sum_report(1)
    # W, R, T and its four parts
    assert rep1[5:12] == (1, 0, 0, 0, 0, 0, 0) and rep1.r_over_bound is None
    rep2 = sums.sum_report(2)
    assert rep2.r == rep2.t == 0 and rep2.integral == Fraction(3, 2)


def test_rejects_out_of_range():
    for call in sum(ENTRY_POINTS.values(), []):
        with pytest.raises(ValueError):
            call(0)
