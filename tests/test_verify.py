import math
import random
import types
from fractions import Fraction

import numpy as np
import pytest

from mindenom import expsums, farey, minden, sums, verify


def _scalar_weighted_nums(s, n):
    """(num, w) per check of the scalar loop weighted_bound_grid replaces, a2-major."""
    lim = 3 * s + 1
    pu = [0] * lim
    pru = [0] * lim
    for r in range(1, lim):
        v = 0
        if math.gcd(r, s) == 1:
            e = n * farey.inv_mod(r, s) % s
            v = 2 * e - s if e else 0
        pu[r] = pu[r - 1] + v
        pru[r] = pru[r - 1] + r * v
    out = []
    for a2 in range(0, 2 * s):
        for w in range(1, s + 1):
            rlo = a2 // 2 + 1
            rhi = (a2 + 2 * w) // 2
            out.append((2 * (pru[rhi] - pru[rlo - 1]) - a2 * (pu[rhi] - pu[rlo - 1]), w))
    return out


def _scalar_weighted_grid(s, n, tail):
    return [
        expsums.exact_within_bound(Fraction(abs(num), 4 * s), w * tail)
        for num, w in _scalar_weighted_nums(s, n)
    ]


@pytest.mark.parametrize("scale", [1.0, 0.05, 0.01])
def test_weighted_bound_grid_matches_scalar_checks(scale):
    rng = random.Random(2024)
    failures = 0
    for s in range(2, 41):
        tail = scale * (
            expsums.divisor_count(s) * expsums.beta(s) * math.log(s) * math.sqrt(s)
        )
        ns = sorted({1, s, rng.randint(1, 40)})
        column = verify.weighted_bound_grid(s, np.array(ns, dtype=np.int64)[:, None], tail)
        assert column.shape == (len(ns), 2 * s, s)
        for n, row in zip(ns, column):
            grid = verify.weighted_bound_grid(s, n, tail)
            assert grid.shape == (2 * s, s) and np.array_equal(row, grid), (s, n)
            assert grid.ravel().tolist() == _scalar_weighted_grid(s, n, tail), (s, n)
            failures += int(grid.size - np.count_nonzero(grid))
    # the bound holds at the real tail and still at 0.05 of it; at 0.01 of it
    # it fails, so the comparison covers both outcomes
    assert (failures == 0) == (scale >= 0.05)


def test_weighted_bound_grid_agrees_at_the_boundary():
    # tails one ulp either side of where one check flips: any change to the
    # rounding of either side shows here
    rng = random.Random(7)
    flips = 0
    for s in (5, 12, 31, 40):
        n = rng.randint(1, s)
        cases = _scalar_weighted_nums(s, n)
        for i in rng.sample(range(len(cases)), 4):
            num, w = cases[i]
            edge = (math.nextafter(abs(num) / (4 * s), math.inf) - expsums.BOUND_SLACK) / w
            outcomes = set()
            for tail in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)):
                grid = verify.weighted_bound_grid(s, n, tail).ravel().tolist()
                assert grid == _scalar_weighted_grid(s, n, tail), (s, n, i, tail)
                outcomes.add(grid[i])
            flips += len(outcomes) == 2
    assert flips >= 12


def test_weighted_bound_grid_guards_its_range():
    with pytest.raises(ValueError):
        verify.weighted_bound_grid(0, 1, 1.0)
    with pytest.raises(ValueError):
        verify.weighted_bound_grid(verify.WEIGHTED_GRID_MAX_S + 1, 1, 1.0)


def test_weighted_bound_grid_depends_on_n_mod_s():
    s, tail = 37, 0.02 * 37**0.5
    grid = verify.weighted_bound_grid(s, 5, tail)
    for n in [5 + s, 5 - 3 * s, 5 + s * 2**70]:
        assert np.array_equal(verify.weighted_bound_grid(s, n, tail), grid)


def test_inverted_spreads_match_the_scalar_loop():
    # the loops of the twisted and odd-function checks: prefix sums in order of m
    rng = np.random.default_rng(3)
    for q in (2, 9, 12, 31):
        for table in (np.r_[0, 2 * np.arange(1, q) - q], rng.uniform(-1, 1, q)):
            for n, spread in enumerate(verify._inverted_spreads(table).tolist(), start=1):
                acc, prefixes = 0, [0]
                for m in range(1, q + 1):
                    acc += table[n * pow(m, -1, q) % q] if math.gcd(m, q) == 1 else 0
                    prefixes.append(acc)
                assert spread == max(prefixes) - min(prefixes), (q, n)


@pytest.mark.parametrize("seed", range(6))
def test_check_all_matches_check_loop(seed):
    rng = random.Random(seed)
    bulk, loop = verify.SuiteResult("bulk"), verify.SuiteResult("loop")
    if seed % 2:  # an earlier failure must keep its place as the first
        bulk.fail("a", "earlier")
        loop.fail("a", "earlier")
    for _ in range(4):
        name = rng.choice("ab")
        size = rng.randint(0, 50)
        ok = np.array([rng.random() < 0.9 for _ in range(size)], dtype=bool).reshape(-1, 1)
        bulk.check_all(name, ok, lambda i, size=size: f"element {i} of {size}")
        for i, cond in enumerate(ok.ravel()):
            loop.check(name, bool(cond), lambda: f"element {i} of {size}")
    assert (bulk.passed, bulk.failed, bulk.first_failure) == (
        loop.passed,
        loop.failed,
        loop.first_failure,
    )
    # an empty array registers its name with no checks; a loop over it never runs
    assert {k: t for k, t in bulk.checks.items() if t.passed + t.failed} == loop.checks


@pytest.mark.parametrize("suite", [name for name in verify.SUITE_NAMES if name != "all"])
def test_tallies_add_up_to_the_suite(suite):
    res = verify.run_suite(suite, 20)
    tallies = res.checks.values()
    assert res.passed == sum(t.passed for t in tallies)
    assert res.failed == sum(t.failed for t in tallies)
    assert res.first_failure in ([t.first_failure for t in tallies if t.failed] or [None])


def test_check_farey_catches_a_dropped_fraction(monkeypatch):
    real = farey.farey_sequence

    def dropping(k):
        seq = real(k)
        return seq[:5] + seq[6:] if k == 17 else seq

    monkeypatch.setattr(farey, "farey_sequence", dropping)
    res = verify.check_farey(30)
    assert res.failed > 0
    assert res.first_failure == f"farey_sequence(17) has length {len(real(17)) - 1}"


def test_check_farey_catches_an_off_by_one_next_denominator(monkeypatch):
    real = farey.next_denominator

    def off_by_one(k, r, s):
        return real(k, r, s) + ((k, r, s) == (23, 5, 19))

    # only the suite sees the fault: the Farey walk itself keeps the real recurrence
    fake = types.SimpleNamespace(**{**vars(farey), "next_denominator": off_by_one})
    monkeypatch.setattr(verify, "farey", fake)
    res = verify.check_farey(30)
    assert res.failed == 1
    t = real(23, 5, 19) + 1
    assert res.first_failure == f"next_denominator(23, 5, 19) = {t} fails a closed form"


def test_check_farey_catches_a_wrong_pair_set(monkeypatch):
    real = farey.adjacent_pairs

    def swapped(k):
        pairs = real(k)
        if k == 20:  # one pair takes the left denominator of another with its s
            i, j = [i for i, p in enumerate(pairs) if p.s == 7][:2]
            pairs[i] = pairs[j]
        return pairs

    monkeypatch.setattr(farey, "adjacent_pairs", swapped)
    res = verify.check_farey(30)
    assert res.failed == 1
    assert res.first_failure == "adjacent_pairs(20) set mismatch"


def test_check_farey_counts():
    # one length, one brute and one pair-list check per order, and one set check;
    # then one unimodularity and one closed-form check per adjacent pair
    res = verify.check_farey(30)
    inv_checks = sum(
        1 for q in range(1, 80) for a in range(1, q + 1) if math.gcd(a, q) == 1
    )
    pairs = sum(farey.totient_summatory(k) for k in range(1, 31))
    assert (res.passed, res.failed) == (inv_checks + 4 * 30 + 2 * pairs, 0)


def test_check_expsums_kloosterman_tolerance_scales_with_q(monkeypatch):
    # an error of 1e-10 hides under a fixed 1e-9 but not under 64 q eps,
    # which stays below 1e-12 for every q <= 50 the Ramanujan check runs at
    real = expsums.ramanujan
    monkeypatch.setattr(expsums, "ramanujan", lambda a, q: real(a, q) + 1e-10)
    res = verify.check_expsums(q_weil=20, q_dft=4, q_twisted=4, s_weighted=2)
    assert res.checks["ramanujan"] == verify.Tally(0, 210, "ramanujan(0, 1) != K(0, 0; 1)")
    assert res.failed == 210


def test_check_variants_reads_the_grid_not_the_reflection(monkeypatch):
    # a reflected path that drops the last window of every half grid fails
    # "reflected sum" for all four variants at every n >= 2 (n = 1 has only
    # its middle window), while the checks on the per-window grid sums alone
    # pass; "lower gap" compares denominator_sum(n) - denominator_sum(n,
    # "closed"), a reflected difference, with them and is left out here.
    # "chained sum" descends 10 and 2 and fails there; it coarsens 5 from
    # the first four windows of 10, which the patch keeps, and 1 has no
    # window left of its middle
    half = minden.half_grid_blocks
    monkeypatch.setattr(
        sums, "half_grid_blocks", lambda n, v: (block[:-1] for block in half(n, v))
    )
    res = verify.check_variants(max_n=10)
    assert res.checks["reflected sum"] == verify.Tally(
        4, 36, "denominator_sum(2, 'half-open-right') = -3 != grid sum 3"
    )
    assert res.checks["chained sum"] == verify.Tally(
        8, 8, "denominator_sums(divisors of 10, 'half-open-right') gives S(2) = -3 != grid sum 3"
    )
    for name in ("mirrored sum", "variant order", "open gap", "gap <= n tau(n)"):
        assert res.checks[name] == verify.Tally(10, 0, None)
