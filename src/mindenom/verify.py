"""Self-check suites behind the ``mindenom verify`` subcommand.

Five suites, one per concern: farey (sequence machinery against brute-force
enumeration), minden (fast interval solver against the scanning oracle plus
monotonicity, reflection and variant ordering), identities (the exact rational
identity chain for S, R and T), expsums (transform and bound checks), variants
(the four boundary variants of S, the reflected sums and the divisor-sum gap
formula).  Every check has a short name; a suite counts its checks in total
and per name (`SuiteResult.checks`) and records the first counterexample of
each, so a failure pinpoints the smallest offending input.

All randomized checks draw from seeded generators; two runs with the same
flags perform exactly the same checks.
"""

from __future__ import annotations

import math
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import expsums, farey, minden, sums

EPS = sys.float_info.epsilon


@dataclass
class Tally:
    """Counts and first counterexample of one named check."""

    passed: int = 0
    failed: int = 0
    first_failure: Optional[str] = None


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    first_failure: Optional[str] = None
    #: wall time of the suite, set by run_suite
    seconds: float = field(default=0.0, compare=False)
    #: one tally per check name, in first-use order
    checks: dict[str, Tally] = field(default_factory=dict, compare=False)

    def _add(self, name: str, passed: int, failed: int, detail: Callable[[], str]) -> None:
        """Count checks under name; detail() names the first failure, called only if needed."""
        tally = self.checks.get(name)
        if tally is None:
            tally = self.checks[name] = Tally()
        tally.passed += passed
        tally.failed += failed
        self.passed += passed
        self.failed += failed
        if failed and tally.first_failure is None:
            tally.first_failure = detail()
            if self.first_failure is None:
                self.first_failure = tally.first_failure

    def fail(self, name: str, detail: Optional[str] = None) -> None:
        """One failed check under name; detail, the counterexample, defaults to the name."""
        self._add(name, 0, 1, lambda: name if detail is None else detail)

    def check(self, name: str, cond: bool, detail: Callable[[], str]) -> None:
        """One check under name; detail() names it, called only if it fails."""
        tally = self.checks.get(name)
        if cond and tally is not None:  # the common case: one more pass of a known check
            tally.passed += 1
            self.passed += 1
        else:
            self._add(name, int(cond), int(not cond), detail)

    def check_all(self, name: str, ok: np.ndarray, detail: Callable[[int], str]) -> None:
        """One check per element of the boolean array ok, in its flat order.

        Counts and first_failure come out as from calling check on each
        element in turn; detail(i) names the check at flat index i and is
        only called for the first failure.
        """
        ok = np.asarray(ok, dtype=bool).ravel()
        passed = int(np.count_nonzero(ok))
        self._add(name, passed, ok.size - passed, lambda: detail(int(np.argmin(ok))))


def check_farey(max_k: int = 200) -> SuiteResult:
    res = SuiteResult("farey")
    # modular inverses, exhaustively for small moduli
    for q in range(1, 80):
        for a in range(1, q + 1):
            if math.gcd(a, q) != 1:
                continue
            b = farey.inv_mod(a, q)
            res.check(
                "inv_mod", 0 < b <= q and a * b % q == 1 % q, lambda: f"inv_mod({a}, {q}) = {b}"
            )
    phis = farey.totient_sieve(max_k)
    # brute force, built and sorted once at max_k: every p/q with q <= max_k,
    # deduplicated by value; F_k is its subsequence of denominators <= k
    brute = sorted({Fraction(p, q) for q in range(1, max_k + 1) for p in range(q + 1)})
    brute_num = np.array([x.numerator for x in brute], dtype=np.int64)
    brute_den = np.array([x.denominator for x in brute], dtype=np.int64)
    # coprimality of (r, s) for 1 <= r, s <= max_k; row and column 0 unused
    ar = np.arange(max_k + 1)
    coprime = np.gcd.outer(ar, ar) == 1
    coprime[0, :] = coprime[:, 0] = False
    summatory = 0
    for k in range(1, max_k + 1):
        summatory += phis[k]
        seq = farey.farey_sequence(k)
        res.check(
            "farey length",
            len(seq) == summatory + 1 and farey.totient_summatory(k) == summatory,
            lambda: f"farey_sequence({k}) has length {len(seq)}",
        )
        num = np.array([x.numerator for x in seq], dtype=np.int64)
        den = np.array([x.denominator for x in seq], dtype=np.int64)
        in_k = brute_den <= k
        res.check(
            "farey brute",
            np.array_equal(num, brute_num[in_k]) and np.array_equal(den, brute_den[in_k]),
            lambda: f"farey_sequence({k}) != brute enumeration",
        )
        a, r, b, s = num[:-1], den[:-1], num[1:], den[1:]
        res.check_all(
            "unimodular", (b * r - a * s == 1) & (r + s > k),
            lambda i: f"pair {seq[i]} < {seq[i + 1]} at order {k} not unimodular",
        )
        pairs = farey.adjacent_pairs(k)
        r = np.array([p.r for p in pairs], dtype=np.int64)
        s = np.array([p.s for p in pairs], dtype=np.int64)
        res.check(
            "pair list", len(pairs) == summatory and np.array_equal(s, den[1:]),
            lambda: f"adjacent_pairs({k}) inconsistent with the sequence",
        )
        # the pairs as a set: every (r, s) in 1..k, hitting exactly the
        # coprime (r, s) with k < r + s
        brute_pairs = coprime[: k + 1, : k + 1] & (ar[: k + 1, None] + ar[: k + 1] > k)
        found = np.zeros_like(brute_pairs)
        inside = bool(((r >= 1) & (r <= k) & (s >= 1) & (s <= k)).all())
        if inside:
            found[r, s] = True
        res.check(
            "pair set", inside and np.array_equal(found, brute_pairs),
            lambda: f"adjacent_pairs({k}) set mismatch",
        )
        t = np.array([farey.next_denominator(k, p.r, p.s) for p in pairs], dtype=np.int64)
        # second closed form: k - s * frac((k + r) / s) = k - (k + r) mod s
        res.check_all(
            "next_denominator", (t == k - (k + r) % s) & (t >= 1) & (t <= k),
            lambda i: f"next_denominator({k}, {r[i]}, {s[i]}) = {t[i]} fails a closed form",
        )
    return res


def _random_fraction(rng: random.Random, max_den: int) -> Fraction:
    q = rng.randint(1, max_den)
    return Fraction(rng.randint(0, q), q)


def check_minden(
    samples: int = 10_000, max_n: int = 200, seed: int = 987
) -> SuiteResult:
    res = SuiteResult("minden")
    rng = random.Random(seed)
    # fast vs oracle on random intervals, all four flag combinations each
    produced = 0
    while produced < samples:
        a = _random_fraction(rng, 10_000)
        b = _random_fraction(rng, 10_000)
        if a > b:
            a, b = b, a
        if a != b and b - a < Fraction(1, 5000):
            continue  # keep the oracle scan short; still random over admissible pairs
        produced += 1
        for lo_closed in (False, True):
            for hi_closed in (False, True):
                if a == b and not (lo_closed and hi_closed):
                    continue
                iv = minden.Interval(a, b, lo_closed, hi_closed)
                fast = minden.min_denominator(iv, "fast")
                oracle = minden.min_denominator(iv, "oracle")
                res.check(
                    "fast = oracle", fast == oracle, lambda: f"{iv}: fast={fast} oracle={oracle}"
                )
    # monotonicity under nesting: shrinking an interval can only raise q
    for _ in range(2_000):
        a = _random_fraction(rng, 500)
        b = _random_fraction(rng, 500)
        if a > b:
            a, b = b, a
        if a == b:
            continue
        width = b - a
        a2 = a + width * Fraction(rng.randint(0, 3), 10)
        b2 = b - width * Fraction(rng.randint(0, 3), 10)
        if a2 > b2 or (a2 == b2):
            continue
        outer = minden.Interval(a, b, True, True)
        inner = minden.Interval(a2, b2, False, False)
        res.check(
            "nesting", minden.min_denominator(inner) >= minden.min_denominator(outer),
            lambda: f"nesting violated for {inner} inside {outer}",
        )
    # reflection: the left-closed grid window mirrors a right-closed one
    for n in range(1, max_n + 1):
        for j in range(1, n + 1):
            left = minden.min_denominator_grid(n, j, "half-open-left")
            right = minden.min_denominator_grid(n, n - j + 1, "half-open-right")
            res.check(
                "reflection", left == right,
                lambda: f"reflection fails at n={n}, j={j}: {left} != {right}",
            )
    # variant ordering per window
    for n in range(1, min(max_n, 500) + 1):
        q_open = minden.grid_denominators(n, "open")
        q_default = minden.grid_denominators(n, "half-open-right")
        q_closed = minden.grid_denominators(n, "closed")
        res.check(
            "window order", all(o >= d >= c for o, d, c in zip(q_open, q_default, q_closed)),
            lambda: f"variant ordering fails at n={n}",
        )
    # block solver against the scalar descent, window by window; the last n
    # spans three blocks, so the joins between blocks are checked too
    for n in [*range(1, min(max_n, 200) + 1), 2 * minden.CHUNK + 1]:
        for variant in minden.VARIANT_FLAGS:
            res.check(
                "grid = per-window",
                minden.grid_denominators(n, variant)
                == [
                    minden.min_denominator_grid(n, j, variant)
                    for j in range(1, n + 1)
                ],
                lambda: f"grid_denominators({n}, {variant!r}) != per-window solver",
            )
    # degenerate points
    for _ in range(500):
        x = _random_fraction(rng, 1000)
        iv = minden.Interval(x, x, True, True)
        res.check(
            "point interval",
            minden.min_denominator(iv) == x.denominator
            and minden.min_denominator(iv, "oracle") == x.denominator,
            lambda: f"point interval at {x}",
        )
    return res


def check_identities(max_n: int = 300, theta_max_n: int = 100) -> SuiteResult:
    res = SuiteResult("identities")
    series = sums.window_integral_series(max_n)
    for n in range(1, max_n + 1):
        qs = minden.grid_denominators(n)
        s = sum(qs)
        nu, xi, sigma = sums.per_k_tables(n)
        integral = sum(nu, Fraction(0))
        rep = sums.sum_report(n)
        res.check(
            "integral routes", integral == series[n] == rep.integral,
            lambda: f"integral mismatch at n={n}: per-k {integral} vs incremental {series[n]}"
            f" vs sum_report {rep.integral}",
        )
        r_def = s - n * integral
        r_counts = sum(xi[1:], Fraction(0))
        res.check(
            "R routes", r_def == r_counts,
            lambda: f"R routes disagree at n={n}: {r_def} vs {r_counts}",
        )
        res.check(
            "R = -2T", r_def == -2 * rep.t, lambda: f"R != -2T at n={n}: {r_def} vs {rep.t}"
        )
        res.check("T = T1 + T2", rep.t == rep.t1 + rep.t2, lambda: f"T != T1+T2 at n={n}")
        res.check(
            "T1 = T11 + T12", rep.t1 == rep.t11 + rep.t12,
            lambda: f"T1 != T11+T12 at n={n}",
        )
        res.check(
            "sawtooth by order", sum(sigma[1:], Fraction(0)) == rep.t,
            lambda: f"sawtooth-by-order total != T at n={n}",
        )
        res.check(
            "T11 leftover", sums.t11_leftover_sum(n) == 0,
            lambda: f"T11 leftover sum nonzero at n={n}",
        )
        groups = sums.t2_quotient_groups(n)
        res.check(
            "T2 groups", groups[2] == 0 and sum(groups.values(), Fraction(0)) == rep.t2,
            lambda: f"T2 quotient grouping fails at n={n}",
        )
        # n nu_k + xi_k windows have q_j > k, for k = 1..n; all n have q_j > 0
        counts = [n, *(n * nu[k] + xi[k] for k in range(1, n + 1))]
        # S recovered from the order-count formula, no window queries involved
        s_counts = sum(counts, Fraction(0))
        res.check(
            "S via counts", s_counts == s, lambda: f"S via counts {s_counts} != {s} at n={n}"
        )
        if n <= theta_max_n:
            direct = np.count_nonzero(np.array(qs)[:, None] > np.arange(n + 1), axis=0)
            res.check_all(
                "window count", [c == d for c, d in zip(counts, direct.tolist())],
                lambda k: f"window count formula fails at n={n}, k={k}",
            )
        if n <= 50:
            for k in range(1, n + 1):
                res.check(
                    "jump = -2 sawtooth", xi[k] == -2 * sigma[k],
                    lambda: f"per-order jump != -2 sawtooth at n={n}, k={k}",
                )
    return res


def check_variants(max_n: int = 500) -> SuiteResult:
    """The four variant sums of the per-window grid, and denominator_sum(s) against them.

    denominator_sum reflects half of the open grid and takes the other three
    sums from it and the divisor sums G and c, so the reference sums come from
    minden.grid_blocks, which solves every window; every other check reads
    those alone.  "chained sum" makes one denominator_sums call per variant
    over the divisors of max_n, which coarsens each divisor from the half
    grid of a larger one.
    """
    res = SuiteResult("variants")
    grids = {}
    for n in range(1, max_n + 1):
        grid = grids[n] = {
            variant: sum(int(block.sum()) for block in minden.grid_blocks(n, variant))
            for variant in minden.VARIANT_FLAGS
        }
        reflected = {variant: sums.denominator_sum(n, variant) for variant in grid}
        for variant, s_grid in grid.items():
            res.check(
                "reflected sum", reflected[variant] == s_grid,
                lambda: f"denominator_sum({n}, {variant!r}) = {reflected[variant]}"
                f" != grid sum {s_grid}",
            )
        s, s_left = grid["half-open-right"], grid["half-open-left"]
        s_closed, s_open = grid["closed"], grid["open"]
        res.check(
            "mirrored sum", s_left == s, lambda: f"left/right half-open sums differ at n={n}"
        )
        res.check(
            "variant order", s_closed <= s <= s_open, lambda: f"variant ordering fails at n={n}"
        )
        gap = sums.variant_gap(n)
        res.check(
            "open gap", s_open - s == gap,
            lambda: f"open-variant gap {s_open - s} != divisor form {gap} at n={n}",
        )
        tau_n = expsums.divisor_count(n)
        res.check("gap <= n tau(n)", gap <= n * tau_n, lambda: f"gap {gap} > n tau(n) at n={n}")
        res.check(
            "lower gap",
            reflected["half-open-right"] - reflected["closed"] == s - s_closed,
            lambda: f"lower gap inconsistent at n={n}",
        )
    divisors = [n for n in range(1, max_n + 1) if max_n % n == 0]
    for variant in minden.VARIANT_FLAGS:
        chained = sums.denominator_sums(divisors, variant)
        for n, s in zip(divisors, chained):
            res.check(
                "chained sum", s == grids[n][variant],
                lambda: f"denominator_sums(divisors of {max_n}, {variant!r}) gives"
                f" S({n}) = {s} != grid sum {grids[n][variant]}",
            )
    return res


def _random_odd_values(q: int, rng: random.Random) -> list[float]:
    vals = [0.0] * q
    for m in range(1, (q + 1) // 2):
        v = rng.uniform(-1.0, 1.0)
        vals[m - 1] = v  # residue m
        vals[q - m - 1] = -v  # residue q - m
    return vals  # residues q/2 (q even) and q stay 0


def _random_even_values(q: int, rng: random.Random) -> list[float]:
    vals = [0.0] * q
    for m in range(1, q // 2 + 1):
        v = rng.uniform(-1.0, 1.0)
        vals[m - 1] = v
        vals[q - m - 1] = v
    vals[q - 1] = rng.uniform(-1.0, 1.0)
    return vals


#: Largest modulus weighted_bound_grid accepts: its numerators stay below
#: 8 s^3 <= 2^51, inside int64 and exact in float64.
WEIGHTED_GRID_MAX_S = 2**16


def _inverted_values(table: np.ndarray, n, r: np.ndarray) -> np.ndarray:
    """table[n inv(r, s) mod s] at the units r mod s = len(table), 0 at the other r.

    n is an int or an int64 array that broadcasts against r.
    """
    s = len(table)
    # n inv(r) mod s depends only on n mod s; reducing first keeps any int n in int64
    return np.where(np.gcd(r, s) == 1, table[n % s * farey.unit_inverses(s)[r % s] % s], 0)


def _inverted_spreads(table: np.ndarray) -> np.ndarray:
    """Per n = 1..q, q = len(table): max - min of the prefix sums over m = 0..q.

    The prefix sums are those of _inverted_values(table, n, m); their spread
    is the largest |sum| over the units m of any interval [l, h].
    The sums run in order of m, so a float table gives a scalar loop's values.
    """
    q = len(table)
    prefix = np.cumsum(_inverted_values(table, np.arange(1, q + 1)[:, None], np.arange(q + 1)), 1)
    return prefix.max(axis=1) - prefix.min(axis=1)


def weighted_bound_grid(s: int, n, tail: float) -> np.ndarray:
    """The weighted sawtooth bound at every start a2/2 and width w, as a (2s, s) bool array.

    n is an int, or an int64 column of shape (m, 1) that gives an (m, 2s, s)
    array, entry [i] the grid of n[i, 0].  Entry [a2, w - 1] of a grid, for
    0 <= a2 < 2s and 1 <= w <= s, is
    expsums.exact_within_bound(sum, w * tail) for the exact sum of
    (r - a2/2) b1(n inv(r, s) / s) over the r in ]a2/2, a2/2 + w] coprime to
    s.  That sum is num / 4s for an integer num built from prefix sums of
    v(r) = 2s b1(n inv(r, s) / s), with |num| <= 8 s^3 < 2^53.  So
    |num| / 4s is the correctly rounded float of the Fraction, and every
    outcome equals the scalar check's.
    """
    if not 1 <= s <= WEIGHTED_GRID_MAX_S:
        raise ValueError(f"s must be in 1..{WEIGHTED_GRID_MAX_S}, got {s}")
    r = np.arange(3 * s + 1, dtype=np.int64)
    v = _inverted_values(np.r_[0, 2 * np.arange(1, s) - s], n, r)  # 2s b1(x / s) at x
    pu, pru = np.cumsum(v, axis=-1), np.cumsum(r * v, axis=-1)
    a2 = np.arange(2 * s)[:, None]
    w = np.arange(1, s + 1)
    lo = a2 // 2
    hi = lo + w
    num = 2 * (pru[..., hi] - pru[..., lo]) - a2 * (pu[..., hi] - pu[..., lo])
    return np.nextafter(np.abs(num) / (4 * s), np.inf) <= w * tail + expsums.BOUND_SLACK


def check_expsums(
    q_weil: int = 100,
    q_dft: int = 200,
    q_twisted: int = 60,
    s_weighted: int = 40,
    seed: int = 424242,
) -> SuiteResult:
    res = SuiteResult("expsums")
    rng = random.Random(seed)

    # transform round-trip and parity preservation, within the FFT error
    # bound 64 q eps for values of modulus <= sqrt(2)
    for q in [1, 2, 3, 5, 8, 16, 31, 64, 100, 128, 200, 256]:
        tol = 64 * q * EPS
        f = expsums.PeriodicFunction(
            q, [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(q)]
        )
        back = expsums.idft(expsums.dft(f))
        res.check(
            "round trip", np.abs(back.values - f.values).max() <= tol,
            lambda: f"round-trip fails at q={q}",
        )
        if q >= 2 and q <= 128:
            even = expsums.PeriodicFunction(q, _random_even_values(q, rng))
            odd = expsums.PeriodicFunction(q, _random_odd_values(q, rng))
            even_hat, odd_hat = expsums.dft(even), expsums.dft(odd)
            res.check(
                "even transform",
                even_hat.is_even(tol) and np.abs(even_hat.values.imag).max() <= tol,
                lambda: f"even transform not even real at q={q}",
            )
            res.check(
                "odd transform",
                odd_hat.is_odd(tol) and np.abs(odd_hat.values.real).max() <= tol,
                lambda: f"odd transform not odd imaginary at q={q}",
            )

    # the FFT transforms against the direct O(q^2) sums at two primes above 100
    fft_rng = random.Random(f"fft:{seed}")  # own stream: the draws of `rng` stay as they were
    for q in (101, 199):
        values = np.array(
            [complex(fft_rng.uniform(-1, 1), fft_rng.uniform(-1, 1)) for _ in range(q)]
        )
        n = np.arange(1, q + 1)
        roots = np.exp(2j * np.pi * (np.outer(n, n) % q) / q)
        f = expsums.PeriodicFunction(q, values)
        for name, got, want in (
            ("dft", expsums.dft(f).values, roots.conj() @ values),
            ("idft", expsums.idft(f).values, roots @ values / q),
        ):
            worst = float(np.abs(got - want).max())
            res.check(
                "fft = direct", worst <= 64 * q * EPS,
                lambda: f"{name} off the direct sum by {worst} at q={q}",
            )

    # Kloosterman: realness, Weil bound, Ramanujan specialization and evenness,
    # each within the FFT error bound 64 q eps of the table
    for q in range(1, q_weil + 1):
        tol = 64 * q * EPS
        try:
            table = expsums.kloosterman_table(q)
        except ArithmeticError as exc:
            res.fail("weil", f"kloosterman table q={q}: {exc}")
            continue
        ar = np.arange(q)
        bound = (
            np.sqrt(np.gcd(np.gcd.outer(ar, ar), q))
            * expsums.divisor_count(q)
            * math.sqrt(q)
        )
        res.check(
            "weil", bool((np.abs(table) <= bound + tol).all()),
            lambda: f"Weil bound fails at q={q}",
        )
        res.check(
            "ramanujan evenness",
            bool((np.abs(table[:, 0] - table[-ar, 0]) <= tol).all()),
            lambda: f"Ramanujan evenness fails at q={q}",
        )
        if q <= 50:
            for a in range(q):
                res.check(
                    "ramanujan", abs(expsums.ramanujan(a, q) - table[a, 0]) <= tol,
                    lambda: f"ramanujan({a}, {q}) != K({a}, 0; {q})",
                )
        # the table against the scalar sum: every entry up to q = 30, then one
        # seeded entry in each divisor class {b : gcd(b, q) = d} and 7 more
        if q <= 30:
            entries = [(a, b) for a in range(q) for b in range(q)]
        else:
            classes: dict[int, list[int]] = {}
            for b in range(q):
                classes.setdefault(math.gcd(b, q), []).append(b)
            entries = [(fft_rng.randrange(q), fft_rng.choice(bs)) for bs in classes.values()]
            entries += [(fft_rng.randrange(q), fft_rng.randrange(q)) for _ in range(7)]
        for a, b in entries:
            res.check(
                "kloosterman table",
                abs(table[a, b] - expsums.kloosterman(a, b, q)) <= tol,
                lambda: f"kloosterman_table({q})[{a}, {b}] != K({a}, {b}; {q})",
            )

    # sawtooth transform: closed form vs direct DFT, and the transform-sum bound
    for q in range(1, q_dft + 1):
        f_hat = expsums.dft(expsums.b1_table(q))
        worst = max(
            abs(f_hat(x) - expsums.b1_hat_closed(x, q)) for x in range(1, q + 1)
        )
        res.check(
            "b1 transform", worst <= 16 * q * q * EPS,
            lambda: f"sawtooth transform mismatch {worst} at q={q}",
        )
        if q >= 2:
            total = np.abs(f_hat.values[:-1]).sum()
            res.check(
                "transform sum bound", total <= q * math.log(q) / 2 + expsums.BOUND_SLACK,
                lambda: f"transform sum bound fails at q={q}",
            )
        res.check(
            "full-period twisted", expsums.twisted_b1_sum(1, q, q, rng.randint(1, q)) == 0,
            lambda: f"full-period twisted sum nonzero at q={q}",
        )

    # twisted sawtooth bound, exhaustively over all subintervals via prefix extremes
    for q in range(2, q_twisted + 1):
        # the spread is an exact integer, so spread / 2q is the float of the Fraction
        spread = _inverted_spreads(np.r_[0, 2 * np.arange(1, q) - q])  # 2q b1(x / q) at x
        res.check_all(
            "twisted",
            np.nextafter(spread / (2 * q), np.inf)
            <= expsums.twisted_b1_bound(q) + expsums.BOUND_SLACK,
            lambda i: f"twisted bound fails at q={q}, n={i + 1}",
        )
    # spot the same bound through the public interval interface
    for _ in range(300):
        q = rng.randint(2, q_twisted)
        n = rng.randint(1, q)
        lo = rng.randint(1, q)
        hi = rng.randint(lo, q)
        total = expsums.twisted_b1_sum(lo, hi, q, n)
        res.check(
            "twisted spot", expsums.exact_within_bound(total, expsums.twisted_b1_bound(q)),
            lambda: f"twisted bound check fails at q={q}, n={n}, [{lo},{hi}]",
        )

    # weighted_bound_grid for every s <= s_weighted and n <= s_weighted, starts a2-major
    ns = np.arange(1, s_weighted + 1, dtype=np.int64)
    for s in range(2, s_weighted + 1):
        tail = (
            expsums.divisor_count(s)
            * expsums.beta(s)
            * math.log(s)
            * math.sqrt(s)
        )
        # n in blocks of at most 2^13 grid entries: all 40 n at once would hold
        # 3 MB of int64 temporaries at s = 40, above the rest of the suite's peak
        step = max(1, 2**12 // s**2)
        for lo in range(0, s_weighted, step):
            block = ns[lo : lo + step]
            for n, grid in zip(block.tolist(), weighted_bound_grid(s, block[:, None], tail)):
                res.check_all(
                    "weighted", grid,
                    lambda i: f"weighted bound fails at s={s}, n={n}, a={i // s}/2, w={i % s + 1}",
                )
    # spot-check the prefix evaluation against the public function
    for _ in range(200):
        s = rng.randint(2, 30)
        n = rng.randint(1, 30)
        a = Fraction(rng.randint(0, 2 * s), 2)
        w = rng.randint(1, s)
        total = expsums.weighted_b1_sum(s, a, a + w, n)
        res.check(
            "weighted spot",
            expsums.exact_within_bound(total, expsums.weighted_b1_bound(s, a, a + w)),
            lambda: f"weighted bound check fails at s={s}, a={a}, w={w}, n={n}",
        )

    # inverted-argument transform bound for odd functions, exhaustive small sizes
    for q in range(2, 41):
        scale = expsums.divisor_count(q) * expsums.beta(q) / math.sqrt(q)
        fns = [expsums.b1_table(q)]
        for _ in range(2):
            fns.append(expsums.PeriodicFunction(q, _random_odd_values(q, rng)))
        for f in fns:
            if not f.is_odd(1e-12):
                res.fail("odd-function bound", f"odd test function construction broken at q={q}")
                continue
            f_hat = expsums.dft(f)
            rhs = scale * np.abs(f_hat.values[:-1]).sum()
            spread = _inverted_spreads(np.roll(f.values.real, 1))  # residue 0 first
            res.check_all(
                "odd-function bound", spread <= rhs + 1e-9,
                lambda i: f"odd-function bound fails at q={q}, n={i + 1}",
            )

    # geometric sums against the sine bound
    res.check(
        "geometric", expsums.geometric_sum_bound_check(0, 1, Fraction(1, 2)),
        lambda: "geometric bound fails on the two-term cancellation",
    )
    res.check(
        "geometric", expsums.geometric_sum_bound_check(0, 9, Fraction(1, 3)),
        lambda: "geometric bound fails on [0, 9] at 1/3",
    )
    for _ in range(1_000):
        den = rng.randint(2, 400)
        num = rng.randint(1, den - 1)
        lo = rng.randint(-1000, 1000)
        res.check(
            "geometric",
            expsums.geometric_sum_bound_check(lo, lo + rng.randint(0, 300), Fraction(num, den)),
            lambda: f"geometric bound fails at alpha={num}/{den}",
        )

    # comparison sum used by the chained bounds: sum of cosecants below q log q
    for q in range(2, 501):
        total = sum(1 / math.sin(math.pi * m / q) for m in range(1, q))
        res.check(
            "cosecant", total <= q * math.log(q),
            lambda: f"cosecant comparison sum exceeds q log q at q={q}",
        )
    return res


_SUITES: dict[str, Callable[..., SuiteResult]] = {
    "farey": check_farey,
    "minden": check_minden,
    "identities": check_identities,
    "expsums": check_expsums,
    "variants": check_variants,
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(name: str, max_n: Optional[int] = None) -> SuiteResult:
    """Run one named suite, timed; max_n >= 1 overrides its primary size knob."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    if max_n is not None and max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    start = time.perf_counter()
    if max_n is None:
        res = _SUITES[name]()
    elif name == "minden":
        res = check_minden(samples=min(10_000, 50 * max_n), max_n=max_n)
    elif name == "identities":
        res = check_identities(max_n, theta_max_n=min(max_n, 100))
    elif name == "expsums":
        res = check_expsums(
            q_weil=min(100, max_n),
            q_dft=min(200, max_n),
            q_twisted=min(60, max_n),
            s_weighted=min(40, max_n),
        )
    else:
        res = _SUITES[name](max_n)
    res.seconds = time.perf_counter() - start
    return res


def run(suites: str = "all", max_n: Optional[int] = None) -> list[SuiteResult]:
    names = list(_SUITES) if suites == "all" else [suites]
    return [run_suite(name, max_n) for name in names]
