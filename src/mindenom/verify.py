"""Self-check suites behind the ``mindenom verify`` subcommand.

Five suites, one per concern: farey (sequence machinery against brute-force
enumeration), minden (fast interval solver against the scanning oracle plus
monotonicity, reflection and variant ordering), identities (the exact rational
identity chain for S, R and T), expsums (transform and bound checks), variants
(the four boundary variants of S and the divisor-sum gap formula).  Every
suite counts individual checks and records the first counterexample, so a
failure pinpoints the smallest offending input.

All randomized checks draw from seeded generators; two runs with the same
flags perform exactly the same checks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import expsums, farey, minden, sums


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    first_failure: Optional[str] = None

    def ok(self) -> None:
        self.passed += 1

    def fail(self, detail: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = detail

    def check(self, cond: bool, detail: str) -> None:
        if cond:
            self.ok()
        else:
            self.fail(detail)


def check_farey(max_k: int = 200) -> SuiteResult:
    res = SuiteResult("farey")
    # modular inverses, exhaustively for small moduli
    for q in range(1, 80):
        for a in range(1, q + 1):
            if math.gcd(a, q) != 1:
                continue
            b = farey.inv_mod(a, q)
            res.check(0 < b <= q and a * b % q == 1 % q, f"inv_mod({a}, {q}) = {b}")
    phis = farey.totient_sieve(max_k)
    summatory = 0
    for k in range(1, max_k + 1):
        summatory += phis[k]
        seq = farey.farey_sequence(k)
        res.check(
            len(seq) == summatory + 1
            and farey.totient_summatory(k) == summatory,
            f"farey_sequence({k}) has length {len(seq)}",
        )
        brute = sorted(
            {Fraction(p, q) for q in range(1, k + 1) for p in range(q + 1)}
        )
        res.check(seq == brute, f"farey_sequence({k}) != brute enumeration")
        for left, right in zip(seq, seq[1:]):
            a, r = left.numerator, left.denominator
            b, s = right.numerator, right.denominator
            res.check(
                b * r - a * s == 1 and r + s > k,
                f"pair {left} < {right} at order {k} not unimodular",
            )
        pairs = farey.adjacent_pairs(k)
        res.check(
            len(pairs) == summatory
            and [p.s for p in pairs] == [x.denominator for x in seq[1:]],
            f"adjacent_pairs({k}) inconsistent with the sequence",
        )
        brute_pairs = {
            (r, s)
            for r in range(1, k + 1)
            for s in range(1, k + 1)
            if math.gcd(r, s) == 1 and max(r, s) <= k < r + s
        }
        res.check(
            {(p.r, p.s) for p in pairs} == brute_pairs,
            f"adjacent_pairs({k}) set mismatch",
        )
        for p in pairs:
            t = farey.next_denominator(k, p.r, p.s)
            # second closed form: k - s * frac((k + r) / s), exactly
            frac_part = Fraction(k + p.r, p.s) - (k + p.r) // p.s
            res.check(
                t == k - p.s * frac_part and 1 <= t <= k,
                f"next_denominator({k}, {p.r}, {p.s}) = {t} fails a closed form",
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
                    fast == oracle, f"{iv}: fast={fast} oracle={oracle}"
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
            minden.min_denominator(inner) >= minden.min_denominator(outer),
            f"nesting violated for {inner} inside {outer}",
        )
    # reflection: the left-closed grid window mirrors a right-closed one
    for n in range(1, max_n + 1):
        for j in range(1, n + 1):
            left = minden.min_denominator_grid(n, j, "half-open-left")
            right = minden.min_denominator_grid(n, n - j + 1, "half-open-right")
            res.check(
                left == right, f"reflection fails at n={n}, j={j}: {left} != {right}"
            )
    # variant ordering per window
    for n in range(1, min(max_n, 500) + 1):
        q_open = minden.grid_denominators(n, "open")
        q_default = minden.grid_denominators(n, "half-open-right")
        q_closed = minden.grid_denominators(n, "closed")
        res.check(
            all(
                o >= d >= c
                for o, d, c in zip(q_open, q_default, q_closed)
            ),
            f"variant ordering fails at n={n}",
        )
    # degenerate points
    for _ in range(500):
        x = _random_fraction(rng, 1000)
        iv = minden.Interval(x, x, True, True)
        res.check(
            minden.min_denominator(iv) == x.denominator
            and minden.min_denominator(iv, "oracle") == x.denominator,
            f"point interval at {x}",
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
        res.check(
            integral == series[n],
            f"integral mismatch at n={n}: per-k {integral} vs incremental {series[n]}",
        )
        r_def = s - n * integral
        r_counts = sum(xi[1:], Fraction(0))
        res.check(
            r_def == r_counts, f"R routes disagree at n={n}: {r_def} vs {r_counts}"
        )
        parts = sums.remainder_parts(n)
        res.check(r_def == -2 * parts.t, f"R != -2T at n={n}: {r_def} vs {parts.t}")
        res.check(
            parts.t == parts.t1 + parts.t2, f"T != T1+T2 at n={n}"
        )
        res.check(
            parts.t1 == parts.t11 + parts.t12, f"T1 != T11+T12 at n={n}"
        )
        res.check(
            sum(sigma[1:], Fraction(0)) == parts.t,
            f"sawtooth-by-order total != T at n={n}",
        )
        res.check(
            sums.t11_leftover_sum(n) == 0, f"T11 leftover sum nonzero at n={n}"
        )
        groups = sums.t2_quotient_groups(n)
        res.check(
            groups[2] == 0 and sum(groups.values(), Fraction(0)) == parts.t2,
            f"T2 quotient grouping fails at n={n}",
        )
        # S recovered from the order-count formula, no window queries involved
        s_counts = Fraction(n) + sum(
            (n * nu[k] + xi[k] for k in range(1, n + 1)), Fraction(0)
        )
        res.check(s_counts == s, f"S via counts {s_counts} != {s} at n={n}")
        if n <= theta_max_n:
            for k in range(n + 1):
                direct = sum(1 for q in qs if q > k)
                formula = n * nu[k] + xi[k] if k else Fraction(n)
                res.check(
                    formula == direct,
                    f"window count formula fails at n={n}, k={k}",
                )
        if n <= 50:
            for k in range(1, n + 1):
                res.check(
                    xi[k] == -2 * sigma[k],
                    f"per-order jump != -2 sawtooth at n={n}, k={k}",
                )
    return res


def check_variants(max_n: int = 500) -> SuiteResult:
    res = SuiteResult("variants")
    for n in range(1, max_n + 1):
        s = sums.denominator_sum(n)
        s_left = sums.denominator_sum(n, "half-open-left")
        s_closed = sums.denominator_sum(n, "closed")
        s_open = sums.denominator_sum(n, "open")
        res.check(s_left == s, f"left/right half-open sums differ at n={n}")
        res.check(
            s_closed <= s <= s_open, f"variant ordering fails at n={n}"
        )
        gap = sums.variant_gap(n, "upper")
        res.check(
            s_open - s == gap,
            f"open-variant gap {s_open - s} != divisor form {gap} at n={n}",
        )
        tau_n = expsums.divisor_count(n)
        res.check(gap <= n * tau_n, f"gap {gap} > n tau(n) at n={n}")
        res.check(
            sums.variant_gap(n, "lower") == s - s_closed,
            f"lower gap inconsistent at n={n}",
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


def check_expsums(
    q_weil: int = 100,
    q_dft: int = 200,
    q_twisted: int = 60,
    s_weighted: int = 40,
    seed: int = 424242,
) -> SuiteResult:
    res = SuiteResult("expsums")
    rng = random.Random(seed)

    # transform round-trip and parity preservation
    for q in [1, 2, 3, 5, 8, 16, 31, 64, 100, 128, 200, 256]:
        f = expsums.PeriodicFunction(
            q, tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(q))
        )
        back = expsums.idft(expsums.dft(f))
        res.check(
            max(abs(back(n) - f(n)) for n in range(1, q + 1)) < 1e-9,
            f"round-trip fails at q={q}",
        )
        if q >= 2 and q <= 128:
            even = expsums.PeriodicFunction(q, tuple(_random_even_values(q, rng)))
            odd = expsums.PeriodicFunction(q, tuple(_random_odd_values(q, rng)))
            even_hat, odd_hat = expsums.dft(even), expsums.dft(odd)
            res.check(
                even_hat.is_even()
                and max(abs(v.imag) for v in even_hat.values) < 1e-9,
                f"even transform not even real at q={q}",
            )
            res.check(
                odd_hat.is_odd()
                and max(abs(v.real) for v in odd_hat.values) < 1e-9,
                f"odd transform not odd imaginary at q={q}",
            )

    # Kloosterman: realness, Weil bound, Ramanujan specialization and evenness
    for q in range(1, q_weil + 1):
        try:
            table = expsums.kloosterman_table(q)
        except ArithmeticError as exc:
            res.fail(f"kloosterman table q={q}: {exc}")
            continue
        ar = np.arange(q)
        bound = (
            np.sqrt(np.gcd(np.gcd.outer(ar, ar), q))
            * expsums.divisor_count(q)
            * math.sqrt(q)
        )
        res.check(
            bool((np.abs(table) <= bound + 1e-9).all()),
            f"Weil bound fails at q={q}",
        )
        res.check(
            bool(
                np.allclose(table[:, 0], table[:, 0][np.r_[0, q - 1 : 0 : -1]], atol=1e-9)
            )
            if q > 1
            else True,
            f"Ramanujan evenness fails at q={q}",
        )
        if q <= 50:
            for a in range(q):
                res.check(
                    abs(expsums.ramanujan(a, q) - table[a, 0]) < 1e-9,
                    f"ramanujan({a}, {q}) != K({a}, 0; {q})",
                )

    # sawtooth transform: closed form vs direct DFT, and the transform-sum bound
    for q in range(1, q_dft + 1):
        f_hat = expsums.dft(expsums.b1_table(q))
        worst = max(
            abs(f_hat(x) - expsums.b1_hat_closed(x, q)) for x in range(1, q + 1)
        )
        res.check(worst < 1e-9, f"sawtooth transform mismatch {worst} at q={q}")
        if q >= 2:
            total = sum(abs(f_hat(y)) for y in range(1, q))
            res.check(
                total <= q * math.log(q) / 2 + expsums.BOUND_SLACK,
                f"transform sum bound fails at q={q}",
            )
        res.check(
            expsums.twisted_b1_sum(1, q, q, rng.randint(1, q)) == 0,
            f"full-period twisted sum nonzero at q={q}",
        )

    # twisted sawtooth bound, exhaustively over all subintervals via prefix extremes
    for q in range(2, q_twisted + 1):
        bound = expsums.twisted_b1_bound(q)
        invs = [pow(m, -1, q) if math.gcd(m, q) == 1 else -1 for m in range(q + 1)]
        for n in range(1, q + 1):
            acc = 0
            lo_acc, hi_acc = 0, 0
            for m in range(1, q + 1):
                if invs[m] >= 0:
                    e = n * invs[m] % q
                    acc += 2 * e - q if e else 0
                lo_acc, hi_acc = min(lo_acc, acc), max(hi_acc, acc)
            # max over subintervals [l, h] of |sum| equals the prefix spread
            lhs = Fraction(hi_acc - lo_acc, 2 * q)
            res.check(
                expsums.exact_within_bound(lhs, bound),
                f"twisted bound fails at q={q}, n={n}",
            )
    # spot the same bound through the public interval interface
    for _ in range(300):
        q = rng.randint(2, q_twisted)
        n = rng.randint(1, q)
        lo = rng.randint(1, q)
        hi = rng.randint(lo, q)
        res.check(
            expsums.twisted_b1_bound_check(lo, hi, q, n),
            f"twisted bound check fails at q={q}, n={n}, [{lo},{hi}]",
        )

    # weighted sawtooth bound on the half-integer grid of starts, widths up to s
    for s in range(2, s_weighted + 1):
        tail = (
            expsums.divisor_count(s)
            * expsums.beta(s)
            * math.log(s)
            * math.sqrt(s)
        )
        lim = 3 * s + 1
        for n in range(1, s_weighted + 1):
            pu = [0] * lim
            pru = [0] * lim
            for r in range(1, lim):
                v = 0
                if math.gcd(r, s) == 1:
                    e = n * farey.inv_mod(r, s) % s
                    v = 2 * e - s if e else 0
                pu[r] = pu[r - 1] + v
                pru[r] = pru[r - 1] + r * v
            for a2 in range(0, 2 * s):  # start a = a2 / 2
                for w in range(1, s + 1):
                    rlo = a2 // 2 + 1
                    rhi = (a2 + 2 * w) // 2
                    num = 2 * (pru[rhi] - pru[rlo - 1]) - a2 * (
                        pu[rhi] - pu[rlo - 1]
                    )
                    lhs = Fraction(abs(num), 4 * s)
                    res.check(
                        expsums.exact_within_bound(lhs, w * tail),
                        f"weighted bound fails at s={s}, n={n}, a={a2}/2, w={w}",
                    )
    # spot-check the prefix evaluation against the public function
    for _ in range(200):
        s = rng.randint(2, 30)
        n = rng.randint(1, 30)
        a = Fraction(rng.randint(0, 2 * s), 2)
        w = rng.randint(1, s)
        res.check(
            expsums.weighted_b1_bound_check(s, a, a + w, n),
            f"weighted bound check fails at s={s}, a={a}, w={w}, n={n}",
        )

    # inverted-argument transform bound for odd functions, exhaustive small sizes
    for q in range(2, 41):
        scale = expsums.divisor_count(q) * expsums.beta(q) / math.sqrt(q)
        fns = [expsums.b1_table(q)]
        for _ in range(2):
            fns.append(expsums.PeriodicFunction(q, tuple(_random_odd_values(q, rng))))
        for f in fns:
            if not f.is_odd(1e-12):
                res.fail(f"odd test function construction broken at q={q}")
                continue
            f_hat = expsums.dft(f)
            rhs = scale * sum(abs(f_hat(y)) for y in range(1, q))
            for n in range(1, q + 1):
                acc = 0.0
                lo_acc = hi_acc = 0.0
                for m in range(1, q + 1):
                    if math.gcd(m, q) == 1:
                        acc += f(n * pow(m, -1, q)).real
                    lo_acc, hi_acc = min(lo_acc, acc), max(hi_acc, acc)
                res.check(
                    hi_acc - lo_acc <= rhs + 1e-9,
                    f"odd-function bound fails at q={q}, n={n}",
                )

    # geometric sums against the sine bound
    res.check(
        expsums.geometric_sum_bound_check(0, 1, Fraction(1, 2)),
        "geometric bound fails on the two-term cancellation",
    )
    res.check(
        expsums.geometric_sum_bound_check(0, 9, Fraction(1, 3)),
        "geometric bound fails on [0, 9] at 1/3",
    )
    for _ in range(1_000):
        den = rng.randint(2, 400)
        num = rng.randint(1, den - 1)
        lo = rng.randint(-1000, 1000)
        res.check(
            expsums.geometric_sum_bound_check(lo, lo + rng.randint(0, 300), Fraction(num, den)),
            f"geometric bound fails at alpha={num}/{den}",
        )

    # comparison sum used by the chained bounds: sum of cosecants below q log q
    for q in range(2, 501):
        total = sum(1 / math.sin(math.pi * m / q) for m in range(1, q))
        res.check(
            total <= q * math.log(q),
            f"cosecant comparison sum exceeds q log q at q={q}",
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
    """Run one named suite; max_n >= 1 overrides its primary size knob."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    if max_n is None:
        return _SUITES[name]()
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    if name == "minden":
        return check_minden(samples=min(10_000, 50 * max_n), max_n=max_n)
    if name == "identities":
        return check_identities(max_n, theta_max_n=min(max_n, 100))
    if name == "expsums":
        return check_expsums(
            q_weil=min(100, max_n),
            q_dft=min(200, max_n),
            q_twisted=min(60, max_n),
            s_weighted=min(40, max_n),
        )
    return _SUITES[name](max_n)


def run(suites: str = "all", max_n: Optional[int] = None) -> list[SuiteResult]:
    names = list(_SUITES) if suites == "all" else [suites]
    return [run_suite(name, max_n) for name in names]
