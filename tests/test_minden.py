import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mindenom import minden

from oracles import min_denominator_brute

fracs = st.fractions(min_value=0, max_value=1, max_denominator=200)


def test_interval_validation():
    lo, hi = Fraction(1, 3), Fraction(1, 2)
    iv = minden.Interval(lo, hi)
    assert not iv.lo_closed and iv.hi_closed  # default window shape
    assert iv.lo is lo and iv.hi is hi  # a Fraction endpoint is kept as it is
    point = minden.Interval(1, 1, True, True)  # degenerate point is fine
    sub = type("SubFraction", (Fraction,), {})(1, 4)
    for iv in (point, minden.Interval(sub, 0.5)):  # ints, subclasses, floats converted
        assert type(iv.lo) is type(iv.hi) is Fraction
    assert (iv.lo, iv.hi) == (Fraction(1, 4), Fraction(1, 2))
    with pytest.raises(ValueError):
        minden.Interval(Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(ValueError):
        minden.Interval(1, 1, True, False)
    with pytest.raises(ValueError):
        minden.Interval(1, 1, False, False)


def test_interval_contains_respects_flags():
    iv = minden.Interval(0, 1, False, True)
    assert iv.contains(Fraction(1)) and not iv.contains(Fraction(0))
    assert iv.contains(Fraction(1, 2))
    iv2 = minden.Interval(0, 1, True, False)
    assert iv2.contains(Fraction(0)) and not iv2.contains(Fraction(1))
    assert iv.length() == iv2.length() == 1


def test_min_denominator_examples():
    assert minden.min_denominator(minden.Interval(Fraction(1, 2), 1)) == 1
    assert minden.min_denominator(minden.Interval(0, Fraction(1, 2))) == 2
    assert (
        minden.min_denominator(
            minden.Interval(Fraction(1, 3), Fraction(1, 2), False, False)
        )
        == 5
    )


def test_min_denominator_rejects_unknown_algo():
    with pytest.raises(ValueError):
        minden.min_denominator(minden.Interval(0, 1), algo="guess")


def test_window_examples():
    # windows ]t - delta, t] of width delta
    half, seventh = Fraction(1, 2), Fraction(1, 7)
    for t, delta, q in ((1, 1, 1), (half, half, 2), (seventh, seventh, 7)):
        assert minden.min_denominator(minden.Interval(t - delta, t, False, True)) == q


def test_grid_examples():
    assert minden.min_denominator_grid(9, 1) == 9
    assert minden.min_denominator_grid(9, 9) == 1
    assert minden.min_denominator_grid(4, 3) == 3
    with pytest.raises(ValueError):
        minden.min_denominator_grid(4, 0)
    with pytest.raises(ValueError):
        minden.min_denominator_grid(4, 5)


def test_grid_denominators_matches_single_queries():
    chunk = minden.CHUNK
    # block edges: one short block, exactly one, one plus a window, three blocks
    for n in [*range(1, 40), chunk - 1, chunk, chunk + 1, 2 * chunk + 1]:
        for variant in minden.VARIANT_FLAGS:
            qs = minden.grid_denominators(n, variant)
            assert qs == [
                minden.min_denominator_grid(n, j, variant) for j in range(1, n + 1)
            ]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 200_000),
    st.lists(st.floats(0, 1), min_size=1, max_size=20),
    st.sampled_from(sorted(minden.VARIANT_FLAGS)),
)
def test_grid_denominators_sampled_windows(n, where, variant):
    qs = minden.grid_denominators(n, variant)
    assert len(qs) == n
    for j in {1, n, *(1 + int(x * (n - 1)) for x in where)}:
        assert qs[j - 1] == minden.min_denominator_grid(n, j, variant)


def test_grid_size_limit():
    limit, chunk, int64_max = minden.GRID_MAX_N, minden.CHUNK, 2**63 - 1
    assert 2 * limit * chunk <= int64_max < 2 * (limit + 1) * chunk
    rng = random.Random(3)
    # at the limit the first block, its int64 sum and sampled windows across
    # the grid agree with the Python-int descent; the descent alone stays
    # exact up to n = (2**63 - 1) // 2, where its values reach 2n.  Its int32
    # state ends at n = 2**30 - 1, where the open window j = n reaches
    # c*bd = 2n - 2 = 2**31 - 4; at n = 2**30 + 1 that value would wrap int32
    for variant, (lo_closed, hi_closed) in minden.VARIANT_FLAGS.items():
        first = next(minden.grid_blocks(limit, variant))
        expect = [minden.min_denominator_grid(limit, j, variant) for j in range(1, chunk + 1)]
        assert first.tolist() == expect and int(first.sum()) == sum(expect)
        assert next(minden.half_grid_blocks(limit, variant)).tolist() == expect
        for n in (2, limit):
            for blocks in (minden.grid_blocks, minden.half_grid_blocks):
                assert next(blocks(n, variant)).dtype == np.int64
        for n in (2**30 - 1, 2**30, 2**30 + 1, limit, int64_max // 2):
            js = [1, 2, n - 1, n] + [rng.randint(1, n) for _ in range(200)]
            got = minden._descend_block(
                n, np.array(js, dtype=np.int64), not lo_closed, not hi_closed
            )
            assert got.tolist() == [minden.min_denominator_grid(n, j, variant) for j in js]


@settings(max_examples=300, deadline=None)
@given(fracs, fracs, st.booleans(), st.booleans())
def test_fast_matches_brute_scan(a, b, lo_closed, hi_closed):
    assume(a != b)
    if a > b:
        a, b = b, a
    iv = minden.Interval(a, b, lo_closed, hi_closed)
    expect = min_denominator_brute(a, b, lo_closed, hi_closed)
    assert minden.min_denominator(iv, "fast") == expect
    assert minden.min_denominator(iv, "oracle") == expect


@settings(max_examples=200, deadline=None)
@given(fracs, fracs, fracs, fracs)
def test_monotone_under_nesting(a, b, c, d):
    lo, hi = min(a, b, c, d), max(a, b, c, d)
    mid_lo, mid_hi = sorted([a, b, c, d])[1:3]
    assume(mid_lo != mid_hi)
    inner = minden.Interval(mid_lo, mid_hi, False, False)
    outer = minden.Interval(lo, hi, True, True)
    assert minden.min_denominator(inner) >= minden.min_denominator(outer)


def test_point_interval_returns_reduced_denominator():
    assert minden.min_denominator(minden.Interval(Fraction(6, 4), Fraction(3, 2), True, True)) == 2
    assert minden.min_denominator(minden.Interval(7, 7, True, True)) == 1


def test_min_fraction_is_witness():
    rng = random.Random(1)
    for _ in range(400):
        qa, qb = rng.randint(1, 300), rng.randint(1, 300)
        a = Fraction(rng.randint(0, qa), qa)
        b = Fraction(rng.randint(0, qb), qb)
        if a > b:
            a, b = b, a
        if a == b:
            continue
        iv = minden.Interval(a, b, bool(rng.getrandbits(1)), bool(rng.getrandbits(1)))
        f = minden.min_fraction(iv)
        assert iv.contains(f)
        assert f.denominator == minden.min_denominator(iv)


def test_reflection_between_half_open_variants():
    for n in range(1, 80):
        left = minden.grid_denominators(n, "half-open-left")
        right = minden.grid_denominators(n, "half-open-right")
        assert left == right[::-1]


def test_variant_ordering_per_window():
    for n in range(1, 80):
        q_open = minden.grid_denominators(n, "open")
        q_right = minden.grid_denominators(n, "half-open-right")
        q_left = minden.grid_denominators(n, "half-open-left")
        q_closed = minden.grid_denominators(n, "closed")
        for o, r, l, c in zip(q_open, q_right, q_left, q_closed):
            assert o >= r >= c
            assert o >= l >= c


def test_fast_matches_oracle_large_denominators():
    # endpoint denominators up to 10**4, seeded for reproducibility
    rng = random.Random(777)
    for _ in range(500):
        qa, qb = rng.randint(1, 10_000), rng.randint(1, 10_000)
        a = Fraction(rng.randint(0, qa), qa)
        b = Fraction(rng.randint(0, qb), qb)
        if a > b:
            a, b = b, a
        if a == b:
            continue
        for lo_closed, hi_closed in minden.VARIANT_FLAGS.values():
            iv = minden.Interval(a, b, lo_closed, hi_closed)
            assert minden.min_denominator(iv, "fast") == minden.min_denominator(
                iv, "oracle"
            )
