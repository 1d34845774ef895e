import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindenom import expsums, farey, sums

import oracles


def test_denominator_sum_examples():
    assert sums.denominator_sum(1) == 1
    assert sums.denominator_sum(4) == 10
    assert sums.denominator_sum(2, "open") == 6


def test_denominator_sum_matches_brute_grid():
    for n in range(1, 40):
        for variant, flags in (
            ("half-open-right", (False, True)),
            ("half-open-left", (True, False)),
            ("closed", (True, True)),
            ("open", (False, False)),
        ):
            assert sums.denominator_sum(n, variant) == sum(oracles.grid_brute(n, *flags))


def test_count_above_examples():
    assert sums.count_above(6, 0) == 6
    assert sums.count_above(6, 6) == 0
    assert sums.count_above(4, 2) == 2


def test_count_above_both_methods_match_brute():
    for n in range(1, 40):
        for k in range(n + 1):
            expect = oracles.theta_brute(n, k)
            assert sums.count_above(n, k, "count") == expect
            assert sums.count_above(n, k, "farey") == expect


def test_measure_above_examples():
    assert sums.measure_above(7, 0) == 1
    assert sums.measure_above(2, 1) == Fraction(1, 2)
    assert sums.measure_above(5, 5) == 0


def test_measure_above_matches_brute():
    for n in range(1, 50):
        for k in range(n + 1):
            assert sums.measure_above(n, k) == oracles.measure_above_brute(n, k)


def test_window_integral_examples():
    assert sums.window_integral(1) == 1
    assert sums.window_integral(2) == Fraction(3, 2)
    assert sums.window_integral(4) == Fraction(29, 12)


def test_window_integral_routes_agree():
    series = sums.window_integral_series(120)
    for n in range(1, 121):
        direct = sums.window_integral(n)
        by_measure = sum((sums.measure_above(n, k) for k in range(n + 1)), Fraction(0))
        assert direct == by_measure == series[n]
        assert math.isclose(
            sums.window_integral_float(n), float(direct), rel_tol=1e-12
        )


@pytest.mark.parametrize("n", [1999, 2000, 2001])
def test_window_integral_float_at_budget_switch(n):
    # sweep switches from the exact to the float integral at the default
    # budget 2000; about 3e-16 relative error was measured there
    exact = float(sums.window_integral(n))
    assert abs(sums.window_integral_float(n) - exact) <= 1e-13 * exact


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


def test_remainder_examples():
    assert sums.remainder(1) == 0
    assert sums.remainder(2) == 0
    assert sums.remainder(4) == Fraction(1, 3)


def test_remainder_routes_agree():
    for n in range(1, 80):
        assert sums.remainder(n, "definition") == sums.remainder(n, "counts")


def test_sawtooth_gap_sum_examples():
    assert sums.sawtooth_gap_sum(1, 1) == 0
    total = sum((sums.sawtooth_gap_sum(4, k) for k in range(1, 5)), Fraction(0))
    assert total == -sums.remainder(4) / 2 == Fraction(-1, 6)
    assert sums.sawtooth_gap_sum(3, 3) == 0


def test_sawtooth_gap_sum_matches_brute():
    for n in range(1, 40):
        for k in range(1, n + 1):
            assert sums.sawtooth_gap_sum(n, k) == oracles.sawtooth_brute(n, k)


def test_sawtooth_last_interior_index_never_fires():
    # the summand just before 1/1 has right gap exactly 1/k, never < 1/n for k <= n,
    # so including or excluding that index cannot change the sum
    for k in range(2, 60):
        seq = farey.farey_sequence(k)
        i = len(seq) - 2
        assert seq[i + 1] - seq[i] == Fraction(1, k)
        for n in range(k, 2 * k + 1):
            assert not seq[i + 1] - seq[i] < Fraction(1, n)


def test_frac_jump_sum_examples():
    assert sums.frac_jump_sum(1, 1) == 0
    total = sum((sums.frac_jump_sum(4, k) for k in range(1, 5)), Fraction(0))
    assert total == sums.remainder(4) == Fraction(1, 3)


def test_frac_jump_sum_matches_brute_and_sawtooth():
    for n in range(1, 51):
        for k in range(1, n + 1):
            xi = sums.frac_jump_sum(n, k)
            assert xi == oracles.frac_jump_brute(n, k)
            assert xi == -2 * sums.sawtooth_gap_sum(n, k)


def test_per_k_tables_match_single_queries():
    for n in range(1, 60):
        nu, xi, sigma = sums.per_k_tables(n)
        assert len(nu) == len(xi) == len(sigma) == n + 1
        assert nu[0] == 1 and xi[0] == 0 and sigma[0] == 0
        for k in range(1, n + 1):
            assert nu[k] == sums.measure_above(n, k)
            assert xi[k] == sums.frac_jump_sum(n, k)
            assert sigma[k] == sums.sawtooth_gap_sum(n, k)


def test_remainder_parts_examples():
    parts1 = sums.remainder_parts(1)
    assert parts1 == (0, 0, 0, 0, 0)
    assert sums.remainder_parts(4).t == Fraction(-1, 6)
    assert sums.remainder_parts(2).t == 0


def test_remainder_part_identities():
    for n in range(1, 80):
        parts = sums.remainder_parts(n)
        assert sums.remainder(n) == -2 * parts.t
        assert parts.t == parts.t1 + parts.t2
        assert parts.t1 == parts.t11 + parts.t12
        _, _, sigma = sums.per_k_tables(n)
        assert sum(sigma[1:], Fraction(0)) == parts.t


def test_t11_leftover_sum_is_zero():
    for n in range(1, 120):
        assert sums.t11_leftover_sum(n) == 0


def test_t2_quotient_groups():
    for n in range(1, 80):
        groups = sums.t2_quotient_groups(n)
        assert groups[2] == 0
        assert sum(groups.values(), Fraction(0)) == sums.remainder_parts(n).t2


def test_denominator_sum_via_counts():
    for n in range(1, 60):
        assert sums.denominator_sum_via_counts(n) == sums.denominator_sum(n)


def test_variant_gap_examples():
    assert sums.variant_gap(1, "upper") == 1
    assert sums.variant_gap(2, "upper") == 3


def test_variant_gap_routes_and_bound():
    for n in range(1, 120):
        upper = sums.variant_gap(n, "upper")
        assert upper == sums.denominator_sum(n, "open") - sums.denominator_sum(n)
        direct = sum(
            min(r, s) for r, s in oracles.coprime_pairs_brute(n) if n % s == 0
        )
        assert upper == direct
        tau = expsums.divisor_count(n)
        assert 0 <= upper <= n * tau
        lower = sums.variant_gap(n, "lower")
        assert lower == sums.denominator_sum(n) - sums.denominator_sum(n, "closed")
        assert 0 <= lower <= n * tau


def test_half_open_variants_equal():
    for n in range(1, 120):
        assert sums.denominator_sum(n, "half-open-left") == sums.denominator_sum(n)


def test_chen_haynes_residual():
    assert sums.chen_haynes_residual(1, 1.0) == math.inf
    v = sums.chen_haynes_residual(4, float(Fraction(29, 12)))
    expect = abs(29 / 12 - sums.SIXTEEN_OVER_PI2 * 2) / math.log(4) ** 2
    assert math.isclose(v, expect, rel_tol=1e-15)


def test_sum_report_consistency():
    rep = sums.sum_report(4)
    assert rep.s == 10
    assert rep.integral == Fraction(29, 12)
    assert rep.r == Fraction(1, 3)
    assert rep.t == Fraction(-1, 6)
    assert rep.s_closed == 6 and rep.s_open == 16 and rep.s_half_open_left == 10
    assert math.isclose(rep.ratio, 10 / 8)
    rep1 = sums.sum_report(1)
    assert rep1.r == 0 and rep1.r_over_bound is None
    for n in (2, 7, 30):
        rep = sums.sum_report(n)
        assert rep.r == rep.s - n * rep.integral
        assert rep.t == -rep.r / 2
        assert rep.r_over_bound == pytest.approx(
            abs(float(rep.r)) / (n ** (4 / 3) * math.log(n) ** 2)
        )


def test_rejects_out_of_range():
    with pytest.raises(ValueError):
        sums.denominator_sum(0)
    with pytest.raises(ValueError):
        sums.count_above(5, -1)
    with pytest.raises(ValueError):
        sums.sawtooth_gap_sum(5, 0)
    with pytest.raises(ValueError):
        sums.remainder(3, method="magic")
    with pytest.raises(ValueError):
        sums.variant_gap(3, "sideways")


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 60))
def test_remainder_identity_property(n):
    assert sums.remainder(n) == -2 * sums.remainder_parts(n).t
