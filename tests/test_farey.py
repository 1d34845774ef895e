import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindenom import farey

from oracles import coprime_pairs_brute, farey_brute


def test_inv_mod_examples():
    assert farey.inv_mod(3, 7) == 5
    assert farey.inv_mod(1, 1) == 1
    assert farey.inv_mod(4, 9) == 7


def test_inv_mod_exhaustive_small():
    for q in range(1, 60):
        for a in range(1, q + 1):
            if math.gcd(a, q) != 1:
                continue
            b = farey.inv_mod(a, q)
            assert 0 < b <= q
            assert a * b % q == 1 % q
            # uniqueness in (0, q]
            assert [c for c in range(1, q + 1) if a * c % q == 1 % q] == [b]


def test_inv_mod_rejects_bad_input():
    with pytest.raises(ValueError):
        farey.inv_mod(2, 4)
    with pytest.raises(ValueError):
        farey.inv_mod(1, 0)
    with pytest.raises(ValueError):
        farey.inv_mod(1, -3)


def test_ceil_count_examples():
    assert farey.ceil_count(Fraction(1, 2), Fraction(16, 5)) == 3
    assert farey.ceil_count(2, 2) == 0
    assert farey.ceil_count(3, 1) == 0


@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
)
def test_ceil_count_counts_integers(a, b):
    expect = sum(1 for n in range(-55, 56) if a <= n < b)
    assert farey.ceil_count(a, b) == expect


def test_next_denominator_examples():
    assert farey.next_denominator(5, 1, 5) == 4
    assert farey.next_denominator(4, 2, 3) == 4
    assert farey.next_denominator(5, 5, 4) == 3


def test_next_denominator_rejects_non_adjacent():
    with pytest.raises(ValueError):
        farey.next_denominator(5, 2, 4)  # not coprime
    with pytest.raises(ValueError):
        farey.next_denominator(3, 1, 5)  # max(r, s) > k
    with pytest.raises(ValueError):
        farey.next_denominator(7, 3, 4)  # k >= r + s


def test_next_denominator_closed_forms_agree():
    for k in range(1, 80):
        for pair in farey.adjacent_pairs(k):
            t = farey.next_denominator(k, pair.r, pair.s)
            assert 1 <= t <= k
            frac_part = Fraction(k + pair.r, pair.s) - (k + pair.r) // pair.s
            assert t == k - pair.s * frac_part


def test_farey_sequence_examples():
    assert farey.farey_sequence(1) == [Fraction(0), Fraction(1)]
    f5 = farey.farey_sequence(5)
    assert len(f5) == 11
    assert f5 == [
        Fraction(0),
        Fraction(1, 5),
        Fraction(1, 4),
        Fraction(1, 3),
        Fraction(2, 5),
        Fraction(1, 2),
        Fraction(3, 5),
        Fraction(2, 3),
        Fraction(3, 4),
        Fraction(4, 5),
        Fraction(1),
    ]
    assert farey.farey_sequence(4) == [
        Fraction(0),
        Fraction(1, 4),
        Fraction(1, 3),
        Fraction(1, 2),
        Fraction(2, 3),
        Fraction(3, 4),
        Fraction(1),
    ]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 120))
def test_farey_sequence_matches_brute_enumeration(k):
    seq = farey.farey_sequence(k)
    assert seq == farey_brute(k)
    assert len(seq) == farey.totient_summatory(k) + 1


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 120))
def test_consecutive_pairs_unimodular(k):
    seq = farey.farey_sequence(k)
    for left, right in zip(seq, seq[1:]):
        assert right.numerator * left.denominator - left.numerator * right.denominator == 1
        assert left.denominator + right.denominator > k


def test_adjacent_pairs_examples():
    assert [(p.r, p.s) for p in farey.adjacent_pairs(1)] == [(1, 1)]
    assert [(p.r, p.s) for p in farey.adjacent_pairs(2)] == [(1, 2), (2, 1)]
    assert len(farey.adjacent_pairs(3)) == 4 == farey.totient_summatory(3)


def test_adjacent_pairs_set_and_order():
    for k in range(1, 80):
        pairs = farey.adjacent_pairs(k)
        seq = farey.farey_sequence(k)
        assert len(pairs) == len(seq) - 1
        for pair, left, right in zip(pairs, seq, seq[1:]):
            assert pair.k == k
            assert pair.r == left.denominator
            assert pair.s == right.denominator
            assert pair.right_fraction() == right
            assert pair.gap() == right - left == Fraction(1, pair.r * pair.s)
        brute = {
            (r, s)
            for r in range(1, k + 1)
            for s in range(1, k + 1)
            if math.gcd(r, s) == 1 and max(r, s) <= k < r + s
        }
        assert {(p.r, p.s) for p in pairs} == brute


def test_totient_summatory_examples():
    assert farey.totient_summatory(1) == 1
    assert farey.totient_summatory(5) == 10
    assert farey.totient_summatory(10) == 32


def test_totient_sieve_matches_gcd_definition():
    phis = farey.totient_sieve(200)
    assert phis[0] == 0
    for n in range(1, 201):
        assert phis[n] == sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def test_coprime_pairs_enumeration():
    # the blocks plus (1, 1), expanded to ordered pairs, once each
    for n in range(1, 200):
        got = [(1, 1)]
        for a, big in farey.coprime_blocks(n):
            assert big.dtype == np.int64
            assert all(a < big) and list(big) == sorted(set(big.tolist()))
            got += [(a, int(b)) for b in big] + [(int(b), a) for b in big]
        assert len(got) == len(set(got))
        assert set(got) == coprime_pairs_brute(n)


def test_block_inverses():
    for n in (1, 2, 30, 97, 200, 1000):
        for a, big in farey.coprime_blocks(n):
            x, y = farey.block_inverses(a, big)
            assert ((1 <= x) & (x <= big)).all() and ((1 <= y) & (y <= a)).all()
            assert (a * x % big == 1).all()
            assert (big * y % a == 1 % a).all()
            assert [int(v) for v in x] == [farey.inv_mod(a, int(b)) for b in big]
