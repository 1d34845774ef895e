"""End-to-end acceptance checks.

Each criterion test covers one numbered criterion and prints exactly one
PASS/FAIL line; the assertion message carries the first counterexample when
one exists.  Criteria 1-4, 6 and 7 read the named checks of the `mindenom
verify` suites, run once in a module-scoped fixture.
"""

import math
import random
import types
from fractions import Fraction

import pytest

from mindenom import cli, minden, sums, verify

IDENTITY_MAX_N = 300
THETA_MAX_N = 100
VARIANT_MAX_N = 500
ANCHOR_MAX_N = 1000
INTERVAL_SAMPLES = 10_000
INTERVAL_SEED = 12345
WEIL_MAX_Q = 100
B1HAT_MAX_Q = 200
TWISTED_MAX_Q = 60
WEIGHTED_MAX_S = 40
RESIDUAL_MAX_N = 2000
TREND_MIN_FACTOR = 4.0


def _verdict(label, failure=None):
    print(f"{'FAIL' if failure else 'PASS'}: {label}")
    assert failure is None, f"{label}: {failure}"


@pytest.fixture(scope="module")
def suites():
    """The documented `mindenom verify` runs at their documented sizes, once each."""
    runs = (("identities", IDENTITY_MAX_N), ("variants", VARIANT_MAX_N), ("expsums", None))
    return {name: verify.run_suite(name, max_n) for name, max_n in runs}


def _suite_verdict(label, res, expected):
    """_verdict on named checks of a verify suite: each must pass, exactly expected[name] times."""
    for name, count in expected.items():
        tally = res.checks.get(name, verify.Tally())
        if tally.failed:
            _verdict(label, f"{name}: {tally.first_failure}")
        if tally.passed != count:
            _verdict(label, f"{name}: {tally.passed} checks, expected {count}")
    _verdict(label)


def test_criterion_01_remainder_is_minus_twice_sawtooth_total(suites):
    _suite_verdict(
        f"criterion 1: R = -2T exactly for every grid size <= {IDENTITY_MAX_N}",
        suites["identities"],
        {"R = -2T": IDENTITY_MAX_N},
    )


def test_criterion_02_sawtooth_decompositions(suites):
    _suite_verdict(
        f"criterion 2: T = T1+T2 and T1 = T11+T12 exactly for every grid size <= {IDENTITY_MAX_N}",
        suites["identities"],
        {"T = T1 + T2": IDENTITY_MAX_N, "T1 = T11 + T12": IDENTITY_MAX_N},
    )


def test_criterion_03_window_count_formula(suites):
    _suite_verdict(
        f"criterion 3: window count equals the gap-measure formula for all k, grid sizes <= {THETA_MAX_N}",
        suites["identities"],
        {"window count": sum(n + 1 for n in range(1, THETA_MAX_N + 1))},
    )


def test_criterion_04_variant_sums(suites):
    _suite_verdict(
        f"criterion 4: variant sums ordered, mirrored sum equal, open-gap divisor form <= n*tau(n), grid sizes <= {VARIANT_MAX_N}",
        suites["variants"],
        dict.fromkeys(("mirrored sum", "variant order", "open gap", "gap <= n tau(n)"), VARIANT_MAX_N),
    )


# not a verify copy: unlike check_minden it also samples intervals narrower than 1/5000
def test_criterion_05_fast_solver_vs_oracle():
    rng = random.Random(INTERVAL_SEED)
    failure = None
    checked = 0
    while checked < INTERVAL_SAMPLES and failure is None:
        qa, qb = rng.randint(1, 10_000), rng.randint(1, 10_000)
        a = Fraction(rng.randint(0, qa), qa)
        b = Fraction(rng.randint(0, qb), qb)
        if a == b:
            continue
        if a > b:
            a, b = b, a
        checked += 1
        for lo_closed, hi_closed in minden.VARIANT_FLAGS.values():
            iv = minden.Interval(a, b, lo_closed, hi_closed)
            fast = minden.min_denominator(iv, "fast")
            slow = minden.min_denominator(iv, "oracle")
            if fast != slow:
                failure = f"{iv}: fast {fast}, oracle {slow}"
                break
    _verdict(
        f"criterion 5: fast solver matches scanning oracle on {INTERVAL_SAMPLES} random intervals x 4 boundary variants",
        failure,
    )


def test_criterion_06_kloosterman_magnitude_bound(suites):
    _suite_verdict(
        f"criterion 6: |K(a,b;q)| <= gcd(a,b,q)^(1/2) tau(q) sqrt(q), exhaustive q <= {WEIL_MAX_Q}, imag < 16 eps q log2(q)",
        suites["expsums"],
        {"weil": WEIL_MAX_Q},
    )


def test_criterion_07_sawtooth_transform_and_bounds(suites):
    _suite_verdict(
        f"criterion 7: sawtooth transform closed form (q <= {B1HAT_MAX_Q}) and both "
        f"interval bounds (twisted q <= {TWISTED_MAX_Q} all subintervals, "
        f"weighted s <= {WEIGHTED_MAX_S} grid) hold",
        suites["expsums"],
        {
            "b1 transform": B1HAT_MAX_Q,
            # one check per (q, n) with n <= q
            "twisted": sum(range(2, TWISTED_MAX_Q + 1)),
            # per (s, n): 2s starts a/2 times s widths
            "weighted": WEIGHTED_MAX_S * sum(2 * s * s for s in range(2, WEIGHTED_MAX_S + 1)),
        },
    )


def test_criterion_08_ratio_trend_on_geometric_grid():
    rows = cli.sweep_rows(2**7, 2**20, factor=2)
    failure = None
    if [row.n for row in rows] != [2**k for k in range(7, 21)]:
        failure = f"grid {[row.n for row in rows]}"
    target = sums.SIXTEEN_OVER_PI2
    if failure is None:
        for row in rows:
            if row.n >= 1024 and not 1.35 < row.ratio < 2.04:
                failure = f"n={row.n}: ratio {row.ratio} outside (1.35, 2.04)"
                break
    if failure is None:
        devs = [abs(row.ratio - target) for row in rows]
        if any(b > a for a, b in zip(devs, devs[1:])):
            failure = f"deviations not monotone: {devs}"
        elif devs[-1] * TREND_MIN_FACTOR > devs[0]:
            failure = f"trend factor {devs[0] / devs[-1]:.2f} < {TREND_MIN_FACTOR}"
    _verdict(
        "criterion 8: scaled sum within (1.35, 2.04) from 2^10 and drifting "
        "toward 16/pi^2 monotonically with trend factor >= 4 on 2^7..2^20",
        failure,
    )


def test_criterion_09_integral_residual_decays_by_decade():
    rows = cli.sweep_rows(2, RESIDUAL_MAX_N, budget=RESIDUAL_MAX_N)
    failure = None
    if [row.n for row in rows] != list(range(2, RESIDUAL_MAX_N + 1)):
        failure = "rows missing"
    if failure is None:
        decades = [(2, 10), (10, 100), (100, 1000), (1000, RESIDUAL_MAX_N + 1)]
        maxima = [
            max(row.chen_haynes_residual for row in rows if lo <= row.n < hi)
            for lo, hi in decades
        ]
        orders = [math.floor(math.log10(m)) for m in maxima]
        if any(b > a for a, b in zip(orders, orders[1:])):
            failure = f"orders increase: {orders} from maxima {maxima}"
        elif any(b >= a for a, b in zip(maxima, maxima[1:])):
            failure = f"decade maxima not strictly decreasing: {maxima}"
    _verdict(
        f"criterion 9: normalized integral residual emitted for all grid sizes <= {RESIDUAL_MAX_N} "
        "with per-decade maxima of non-increasing order",
        failure,
    )


def test_criterion_10_first_last_window_anchors():
    failure = None
    for n in range(1, ANCHOR_MAX_N + 1):
        qs = minden.grid_denominators(n)
        if qs[0] != n:
            failure = f"n={n}: first window {qs[0]}"
            break
        if qs[-1] != 1:
            failure = f"n={n}: last window {qs[-1]}"
            break
        if sum(1 for q in qs if q > 0) != n:  # every window counts at threshold 0
            failure = f"n={n}: zero-threshold count"
            break
        if any(q > n for q in qs):  # none survives threshold n
            failure = f"n={n}: max {max(qs)} exceeds n"
            break
    _verdict(
        f"criterion 10: first window denominator n, last 1, counts n at threshold 0 "
        f"and 0 at threshold n, grid sizes <= {ANCHOR_MAX_N}",
        failure,
    )


def test_verify_documented_invocations(suites):
    # every check of the three runs passes, also the checks no criterion pins
    assert {name: res.first_failure for name, res in suites.items() if res.failed} == {}


def test_suite_verdict_fails_on_an_injected_identity_fault(monkeypatch):
    real = sums.sum_report

    def t12_off_by_one(n):
        rep = real(n)
        return rep._replace(t12=rep.t12 + 1) if n == 17 else rep

    # only the suite sees the fault
    fake = types.SimpleNamespace(**{**vars(sums), "sum_report": t12_off_by_one})
    monkeypatch.setattr(verify, "sums", fake)
    res = verify.check_identities(30)
    assert {name: t.failed for name, t in res.checks.items() if t.failed} == {"T1 = T11 + T12": 1}
    assert res.checks["T1 = T11 + T12"].first_failure == "T1 != T11+T12 at n=17"
    with pytest.raises(AssertionError, match="n=17"):
        _suite_verdict("injected fault", res, {"T1 = T11 + T12": 30})
