import math
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindenom import expsums

import oracles

EPS = sys.float_info.epsilon


def test_periodic_function_basics():
    f = expsums.PeriodicFunction(3, (1.0, 2.0, 3.0))
    assert f(1) == 1 and f(2) == 2 and f(3) == 3
    assert f(4) == 1 and f(0) == 3 and f(-1) == 2  # period-3 extension
    assert isinstance(f(1), complex)
    g = expsums.PeriodicFunction.from_callable(4, lambda n: n * n)
    assert np.array_equal(g.values, [1, 4, 9, 16])
    # the values are a read-only complex128 copy, not the caller's array
    given = np.array([1, 2, 3], dtype=complex)
    h = expsums.PeriodicFunction(3, given)
    assert h.values.dtype == np.complex128 and not h.values.flags.writeable
    with pytest.raises(ValueError):
        h.values[0] = 5
    given[0] = 5
    assert h(1) == 1 and not np.shares_memory(h.values, given)
    with pytest.raises(ValueError):
        expsums.PeriodicFunction(2, (1.0,))
    with pytest.raises(ValueError):
        expsums.PeriodicFunction(0, ())


def test_parity_classification():
    q = 8
    even = expsums.PeriodicFunction.from_callable(q, lambda n: math.cos(2 * math.pi * n / q))
    odd = expsums.PeriodicFunction.from_callable(q, lambda n: math.sin(2 * math.pi * n / q))
    assert even.is_even() and not even.is_odd()
    assert odd.is_odd() and not odd.is_even()
    assert expsums.b1_table(12).is_odd()
    # is_even / is_odd against the definitional loop over Python complexes on
    # seeded near-even, near-odd and generic functions, with tolerances at
    # and one float step either side of a deviation
    rng = np.random.default_rng(14)
    for q in range(1, 41):
        n = np.arange(1, q + 1)
        base = rng.uniform(-1, 1, q) + 1j * rng.uniform(-1, 1, q)
        mirror = base[(-n - 1) % q]  # base at residue -n
        for values in (base, base + mirror, base - mirror):
            values = values + 1e-9 * (rng.uniform(-1, 1, q) + 1j * rng.uniform(-1, 1, q))
            f = expsums.PeriodicFunction(q, values)
            for sign, test in ((-1, f.is_even), (1, f.is_odd)):
                gaps = [abs(complex(f(-m)) + sign * complex(f(m))) for m in range(1, q + 1)]
                for gap in (0.0, 1e-12, 1e-9, max(gaps), min(gaps)):
                    for tol in (math.nextafter(gap, 0), gap, math.nextafter(gap, 1)):
                        assert test(tol) == all(g <= tol for g in gaps)


def test_dft_of_constant():
    f = expsums.PeriodicFunction(6, (1, 1, 1, 1, 1, 1))
    f_hat = expsums.dft(f)
    for x in range(1, 7):
        want = 6 if x % 6 == 0 else 0
        assert abs(f_hat(x) - want) < 1e-9


def test_dft_of_unit_indicator_is_ramanujan():
    q = 6
    ind = expsums.PeriodicFunction.from_callable(
        q, lambda n: 1 if math.gcd(n, q) == 1 else 0
    )
    ind_hat = expsums.dft(ind)
    for x in range(1, q + 1):
        assert abs(ind_hat(x) - expsums.ramanujan(x, q)) < 1e-9


def test_dft_matches_literal_sum():
    # the oracle takes exp of the unreduced phase 2 pi n x / q, off by about
    # q eps, so its sum of q terms can be off by about q^2 eps
    rng = random.Random(5)
    for q in (1, 2, 3, 7, 12, 25, 127, 360, 521):
        values = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(q)]
        f = expsums.PeriodicFunction(q, tuple(values))
        f_hat, back = expsums.dft(f), expsums.idft(f)
        for x in range(1, q + 1):
            assert abs(f_hat(x) - oracles.dft_brute(values, x)) <= 16 * q * q * EPS
            assert abs(back(x) - oracles.dft_brute(values, -x) / q) <= 16 * q * EPS


def test_transform_memory_is_linear():
    # the direct sum built a q x q complex matrix (54 MiB at q = 1531)
    f = expsums.b1_table(1531)
    expsums.dft(expsums.b1_table(7))  # first-call set-up outside the trace
    tracemalloc.start()
    try:
        expsums.dft(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def test_idft_zero_and_delta():
    zero = expsums.PeriodicFunction(5, (0, 0, 0, 0, 0))
    assert all(abs(v) == 0 for v in expsums.idft(zero).values)
    delta = expsums.PeriodicFunction(7, (1, 0, 0, 0, 0, 0, 0))
    back = expsums.idft(expsums.dft(delta))
    for n in range(1, 8):
        assert abs(back(n) - delta(n)) < 1e-9


def test_roundtrip_b1_table_q100():
    f = expsums.b1_table(100)
    back = expsums.idft(expsums.dft(f))
    assert max(abs(back(n) - f(n)) for n in range(1, 101)) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 256), st.randoms(use_true_random=False))
def test_roundtrip_random(q, rng):
    values = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(q))
    f = expsums.PeriodicFunction(q, values)
    back = expsums.idft(expsums.dft(f))
    assert max(abs(back(n) - f(n)) for n in range(1, q + 1)) < 1e-9


def test_kloosterman_examples():
    assert expsums.kloosterman(0, 0, 12) == pytest.approx(4)
    v = expsums.kloosterman(1, 1, 5)
    assert v == pytest.approx(2 + 2 * math.cos(4 * math.pi / 5), abs=1e-12)
    assert v == pytest.approx(0.381966, abs=1e-6)


def test_kloosterman_matches_ramanujan():
    for q in range(1, 51):
        for a in range(q):
            assert expsums.kloosterman(a, 0, q) == pytest.approx(
                expsums.ramanujan(a, q), abs=1e-9
            )


def test_kloosterman_matches_brute():
    for q in (1, 2, 5, 8, 13, 24):
        for a in range(q):
            for b in range(q):
                want = oracles.kloosterman_brute(a, b, q)
                assert abs(want.imag) < 1e-9
                assert expsums.kloosterman(a, b, q) == pytest.approx(
                    want.real, abs=1e-9
                )


def test_kloosterman_sums_units_in_increasing_order():
    # the cached (unit, inverse) list keeps the order of the loop over n = 1..q
    # with gcd and pow, so every value is the same float, bit for bit
    for q in (1, 2, 12, 13, 30):
        roots = expsums._roots(q)
        for a in range(q):
            for b in range(q):
                acc = 0j
                for n in range(1, q + 1):
                    if math.gcd(n, q) == 1:
                        acc += roots[(a * n + b * pow(n, -1, q)) % q]
                assert expsums.kloosterman(a, b, q) == acc.real


def test_kloosterman_table_matches_scalar():
    for q in (1, 2, 6, 11, 20):
        table = expsums.kloosterman_table(q)
        assert table.shape == (q, q)
        for a in range(q):
            for b in range(q):
                assert table[a, b] == pytest.approx(
                    expsums.kloosterman(a, b, q), abs=1e-9
                )


def test_kloosterman_table_matches_brute():
    # prime powers and moduli with many divisors (tau(48) = 10, tau(60) = 12),
    # so every divisor class {b : gcd(b, q) = d} is gathered from its column
    # by K(a, d u) = K(a u, d).  The oracle's phases (a n + b inv(n)) / q
    # reach 2q, so as for the transforms its error grows like q^2 eps
    for q in (1, 2, 8, 9, 16, 27, 30, 32, 36, 37, 48, 60):
        table = expsums.kloosterman_table(q)
        assert table.shape == (q, q) and table.dtype == np.float64
        for a in range(q):
            for b in range(q):
                want = oracles.kloosterman_brute(a, b, q)
                assert abs(table[a, b] - want.real) <= 16 * q * q * EPS


def test_kloosterman_table_block_joins_match_brute():
    # the gather runs _TABLE_ROWS rows at a time: a short last block, exactly
    # one block, one row over, and two blocks plus one row
    rows = expsums._TABLE_ROWS
    moduli = (rows - 1, rows, rows + 1, 2 * rows + 1)
    is_prime = [q > 1 and all(q % d for d in range(2, math.isqrt(q) + 1)) for q in moduli]
    assert any(is_prime) and not all(is_prime)
    for q in moduli:
        table = expsums.kloosterman_table(q)
        for a in range(q):
            for b in range(q):
                want = oracles.kloosterman_brute(a, b, q)
                assert abs(table[a, b] - want.real) <= 16 * q * q * EPS


def test_kloosterman_table_does_not_depend_on_row_count(monkeypatch):
    # a gather moves values without arithmetic, so blocks of any height give
    # the one-block table bit for bit, however often the block shift wraps
    for q in (1, 2, 30, 37, 60, 97, 210):
        monkeypatch.setattr(expsums, "_TABLE_ROWS", q)
        whole = expsums.kloosterman_table(q)
        for rows in (1, 3, 7):
            monkeypatch.setattr(expsums, "_TABLE_ROWS", rows)
            assert np.array_equal(expsums.kloosterman_table(q), whole)


def test_scalar_kloosterman_shares_no_inverse_table(monkeypatch):
    # the table is checked against kloosterman(), so only the table may read
    # the vectorised inverses
    def boom(q):
        raise AssertionError("vectorised inverse table used")

    monkeypatch.setattr(expsums, "unit_inverses", boom)
    expsums._unit_inverses.cache_clear()
    assert abs(expsums.kloosterman(3, 5, 7) - oracles.kloosterman_brute(3, 5, 7)) < 1e-9
    with pytest.raises(AssertionError):
        expsums.kloosterman_table(7)


@pytest.mark.parametrize("q", [1531, 1536])
def test_kloosterman_table_memory_is_bounded(q):
    # the q x phi(q) x q product took 125 MiB at q = 1531, one transform per
    # non-unit column 84 MiB at q = 1536, and a whole q^2 int64 gather index
    # another 18 MiB at q = 1531; the table itself is q^2 float64, and the
    # blocked gather adds O(rows q)
    expsums.kloosterman_table(7)  # first-call set-up outside the trace
    tracemalloc.start()
    try:
        table = expsums.kloosterman_table(q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.shape == (q, q)
    assert peak <= 1.5 * q * q * 8


def test_ramanujan_examples():
    assert expsums.ramanujan(0, 10) == pytest.approx(4)
    assert expsums.ramanujan(1, 6) == pytest.approx(1, abs=1e-12)
    assert expsums.ramanujan(2, 4) == pytest.approx(-2, abs=1e-12)


def test_ramanujan_even():
    for q in range(1, 60):
        for a in range(q):
            assert expsums.ramanujan(a, q) == pytest.approx(
                expsums.ramanujan(-a, q), abs=1e-9
            )


def test_weil_bound_examples():
    assert expsums.weil_bound(1, 1, 5) == pytest.approx(2 * math.sqrt(5))
    assert expsums.weil_bound(0, 0, 12) >= expsums.kloosterman(0, 0, 12)


def test_weil_bound_holds_small():
    for q in range(1, 41):
        for a in range(q):
            for b in range(q):
                k = expsums.kloosterman(a, b, q)
                assert abs(k) <= expsums.weil_bound(a, b, q) + 1e-9


def test_divisor_count_and_beta():
    assert [expsums.divisor_count(n) for n in range(1, 13)] == [
        1, 2, 2, 3, 2, 4, 2, 4, 3, 4, 2, 6,
    ]
    assert expsums.beta(1) == 0
    assert expsums.beta(2) == pytest.approx(math.log(2))
    # beta(6) = ln6 + ln3/sqrt(2) + ln2/sqrt(3) + 0
    want = math.log(6) + math.log(3) / math.sqrt(2) + math.log(2) / math.sqrt(3)
    assert expsums.beta(6) == pytest.approx(want, rel=1e-12)


def test_b1_examples():
    assert expsums.b1(0) == 0
    assert expsums.b1(Fraction(1, 4)) == Fraction(-1, 4)
    assert expsums.b1(Fraction(7, 3)) == Fraction(-1, 6)


@given(st.fractions(min_value=-20, max_value=20, max_denominator=100))
def test_b1_odd_and_periodic(x):
    assert expsums.b1(x) == -expsums.b1(-x)
    assert expsums.b1(x + 1) == expsums.b1(x)
    assert abs(expsums.b1(x)) < Fraction(1, 2)


def test_b1_residue_matches_b1():
    for den in range(1, 40):
        for num in range(-2 * den, 2 * den + 1):
            assert expsums.b1_residue(num, den) == expsums.b1(Fraction(num, den))


def test_b1_table_equals_b1_residue():
    # the vectorised table against the Fraction reference, float for float
    for q in [*range(1, 301), 1531]:
        want = [float(expsums.b1_residue(n, q)) for n in range(1, q + 1)]
        assert np.array_equal(expsums.b1_table(q).values, want)


def test_b1_hat_closed_examples():
    assert expsums.b1_hat_closed(4, 4) == 0  # exact on the divisible branch
    assert abs(expsums.b1_hat_closed(1, 2)) < 1e-12
    assert expsums.b1_hat_closed(1, 4) == pytest.approx(0.5j, abs=1e-12)


def test_b1_hat_closed_matches_dft():
    for q in range(1, 61):
        f_hat = expsums.dft(expsums.b1_table(q))
        for x in range(1, q + 1):
            assert abs(f_hat(x) - expsums.b1_hat_closed(x, q)) < 1e-9


def test_b1_transform_sum_bound():
    for q in range(2, 101):
        f_hat = expsums.dft(expsums.b1_table(q))
        total = sum(abs(f_hat(y)) for y in range(1, q))
        assert total <= q * math.log(q) / 2 + 1e-9


def test_twisted_b1_sum_examples():
    rng = random.Random(9)
    for q in range(1, 61):
        assert expsums.twisted_b1_sum(1, q, q, rng.randint(1, q)) == 0
    assert expsums.twisted_b1_sum(1, 2, 5, 1) == Fraction(-1, 5)


def test_twisted_b1_bound_spot():
    rng = random.Random(11)
    for _ in range(300):
        q = rng.randint(2, 60)
        n = rng.randint(1, q)
        lo = rng.randint(1, q)
        hi = rng.randint(lo, q)
        total = expsums.twisted_b1_sum(lo, hi, q, n)
        assert expsums.exact_within_bound(total, expsums.twisted_b1_bound(q))


def test_weighted_b1_sum_examples():
    assert expsums.weighted_b1_sum(1, 0, 5, 3) == 0
    assert expsums.weighted_b1_sum(5, 0, 2, 1) == Fraction(-1, 10)


def test_weighted_b1_bound_spot():
    rng = random.Random(13)
    for _ in range(300):
        s = rng.randint(2, 40)
        n = rng.randint(1, 40)
        a = Fraction(rng.randint(0, 2 * s), 2)
        b = a + rng.randint(1, s)
        total = expsums.weighted_b1_sum(s, a, b, n)
        assert expsums.exact_within_bound(total, expsums.weighted_b1_bound(s, a, b))


def test_geometric_sum_bound_examples():
    assert expsums.geometric_sum_bound_check(0, 1, Fraction(1, 2))
    assert expsums.geometric_sum_bound_check(0, 9, Fraction(1, 3))
    # 200 terms at 399/400 meet the bound exactly; float error once tipped it over
    assert expsums.geometric_sum_bound_check(0, 199, Fraction(399, 400))
    with pytest.raises(ValueError):
        expsums.geometric_sum_bound_check(0, 5, Fraction(2))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-500, 500),
    st.integers(0, 200),
    st.fractions(min_value=Fraction(1, 400), max_value=Fraction(399, 400), max_denominator=400),
)
def test_geometric_sum_bound_random(lo, width, alpha):
    assert expsums.geometric_sum_bound_check(lo, lo + width, alpha)


def test_exact_within_bound_edges():
    assert expsums.exact_within_bound(Fraction(1, 2), 0.5)
    assert expsums.exact_within_bound(Fraction(-1, 2), 0.5)
    assert not expsums.exact_within_bound(Fraction(1, 2) + Fraction(1, 10**6), 0.5)
    assert expsums.exact_within_bound(Fraction(0), 0.0)


def test_kloosterman_realness_guard(monkeypatch):
    # realness is checked internally against a tolerance that scales like the
    # FFT error bound: every table up to q = 60 passes it, and an imaginary
    # residue of 1e-10 at q = 1531 (above 16 eps q log2 q = 5.8e-11) fails it
    for q in range(1, 61):
        table = expsums.kloosterman_table(q)
        assert table.dtype.kind == "f"
    ifft = np.fft.ifft
    monkeypatch.setattr(np.fft, "ifft", lambda *args, **kw: ifft(*args, **kw) + 1e-10j)
    with pytest.raises(ArithmeticError):
        expsums.kloosterman_table(1531)
