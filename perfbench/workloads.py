"""The four benchmark workloads: their ops, drawn from a seed, and their output checks.

Every workload is a list of ops.  ``make_ops(workload, seed)`` gives the same
list for the same seed; ``run_op`` calls mindenom through its CLI entry point
(``mindenom.cli.main``) or its public functions; ``Checker.check`` verifies
one op's output outside the timed region and returns the number of checks
made and the failures found.  ``fingerprint`` reduces an output to something
small that a traced and an untraced pass must agree on.

Sizes are fixed here, not by flags: a workload's name pins its work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

import numpy as np

import mindenom.cli
from mindenom import expsums, sums, verify

WORKLOADS = ("sweep_pow2", "exact_report", "verify_suites", "modq_transforms")

SWEEP_TOP = 1 << 20
SWEEP_STARTS = (1, 2, 4, 8, 16)
EXACT_BAND = (800, 2000)
MODQ_BAND = (512, 1536)
#: Ops per pass where op latency percentiles are reported: the 75th
#: percentile then has at least ten samples beyond it in a single pass.
STRATA = 48
#: Kloosterman entries per modulus compared with the scalar kloosterman().
KLOOSTERMAN_SAMPLES = 8
VERIFY_MAX_N = 100
EPS = sys.float_info.epsilon

GOLDEN_CSV = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_sweep.csv")


@dataclass(frozen=True)
class Op:
    label: str
    arg: Any


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One integer from each of `count` equal slices of [lo, hi), largest first.

    Stratifying keeps the spread of sizes (and so of op costs) nearly the same
    for every seed, while the seed still picks every value.  Running the
    largest op first, on a fresh heap, keeps the peak memory from depending on
    the order in which the allocator saw the smaller ones.
    """
    width = hi - lo
    values = [
        lo + width * i // count + rng.randrange(width * (i + 1) // count - width * i // count)
        for i in range(count)
    ]
    return sorted(values, reverse=True)


def _stratified_primes(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """The largest prime in [lo, hi), and one prime from each of `count - 1`
    consecutive groups of the others, largest first (see _stratified).

    A prime q has phi(q) = q - 1, so an op's cost is a smooth function of q;
    composite q would let a seed make a run cheaper by drawing moduli with
    many small factors, since kloosterman_table works on the phi(q) units.
    The largest table sets the peak memory, so every seed includes it.
    """
    primes = [q for q in range(lo, hi) if q > 1 and all(q % d for d in range(2, math.isqrt(q) + 1))]
    top = primes.pop()
    n = len(primes)
    groups = [primes[n * i // (count - 1) : n * (i + 1) // (count - 1)] for i in range(count - 1)]
    values = [rng.choice(group) for group in groups] + [top]
    return sorted(values, reverse=True)


def verify_calls(seed: int) -> list[tuple[str, str, dict]]:
    """The five suites at the sizes `mindenom verify --suite all --max-n 100` uses.

    Mirrors verify.run_suite for max_n = 100; the workload seed goes to the
    two seeded suites.
    """
    m = VERIFY_MAX_N
    return [
        ("farey", "check_farey", {"max_k": m}),
        ("minden", "check_minden", {"samples": min(10_000, 50 * m), "max_n": m, "seed": seed}),
        ("identities", "check_identities", {"max_n": m, "theta_max_n": min(m, 100)}),
        (
            "expsums",
            "check_expsums",
            {
                "q_weil": min(100, m),
                "q_dft": min(200, m),
                "q_twisted": min(60, m),
                "s_weighted": min(40, m),
                "seed": seed,
            },
        ),
        ("variants", "check_variants", {"max_n": m}),
    ]


def make_ops(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep_pow2":
        start = rng.choice(SWEEP_STARTS)
        return [Op(f"sweep --from {start}", ["--from", str(start), "--to", str(SWEEP_TOP)])]
    if workload == "exact_report":
        return [Op(f"compute --n {n}", n) for n in _stratified(rng, *EXACT_BAND, STRATA)]
    if workload == "verify_suites":
        # one op is one `verify --suite all` call: the latency a user waits for
        return [Op(f"verify --suite all --max-n {VERIFY_MAX_N}", verify_calls(seed))]
    if workload == "modq_transforms":
        return [Op(f"q={q}", q) for q in _stratified_primes(rng, *MODQ_BAND, STRATA)]
    raise ValueError(f"unknown workload {workload!r}")


def run_op(workload: str, op: Op, out_dir: str) -> Any:
    """Run one op; this is the only code inside the timed region."""
    if workload == "sweep_pow2":
        path = os.path.join(out_dir, f"sweep-{os.getpid()}.csv")
        rc = mindenom.cli.main(["sweep", *op.arg, "--factor", "2", "--out", path])
        return rc, path
    if workload == "exact_report":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = mindenom.cli.main(["compute", "--n", str(op.arg)])
        return rc, buf.getvalue()
    if workload == "verify_suites":
        return [getattr(verify, fn)(**kwargs) for _, fn, kwargs in op.arg]
    if workload == "modq_transforms":
        f = expsums.b1_table(op.arg)
        f_hat = expsums.dft(f)
        back = expsums.idft(f_hat)
        return f, f_hat, back, expsums.kloosterman_table(op.arg)
    raise ValueError(f"unknown workload {workload!r}")


def read_output(workload: str, out: Any) -> Any:
    """Load what an op left on disk, so checks and fingerprints see plain values."""
    if workload == "sweep_pow2":
        rc, path = out
        with open(path, "rb") as fh:
            data = fh.read()
        os.remove(path)
        return rc, data
    return out


def fingerprint(workload: str, out: Any) -> Any:
    if workload in ("sweep_pow2", "exact_report"):
        rc, data = out
        if isinstance(data, str):
            data = data.encode()
        return [rc, hashlib.sha256(data).hexdigest()]
    if workload == "verify_suites":
        return [[res.name, res.passed, res.failed, res.first_failure] for res in out]
    f, f_hat, back, table = out
    # values, not hashes: a float op may legitimately differ in the last bit
    return [
        [complex(v).real for v in f_hat.values[:8]],
        [complex(v).imag for v in f_hat.values[:8]],
        float(np.abs(table).sum()),
        [float(x) for x in table[-1, :8]],
    ]


class Checker:
    """Output checks for one workload; state built once per pass, outside the timed region."""

    def __init__(self, workload: str, ops: list[Op], seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self._series: Optional[list] = None
        if workload == "sweep_pow2":
            with open(GOLDEN_CSV, "rb") as fh:
                self._golden = fh.read().splitlines(keepends=True)
        if workload == "exact_report":
            self._max_n = max(op.arg for op in ops)

    def check(self, op: Op, out: Any) -> tuple[int, list[str]]:
        """(number of checks made, descriptions of the ones that failed)."""
        fails: list[str] = []
        made = 0

        def expect(cond: bool, what: str) -> None:
            nonlocal made
            made += 1
            if not cond:
                fails.append(f"{op.label}: {what}")

        getattr(self, "_check_" + self.workload)(op, out, expect)
        return made, fails

    def _check_sweep_pow2(self, op: Op, out: Any, expect) -> None:
        rc, data = out
        expect(rc == 0, f"exit code {rc}")
        start, stop = int(op.arg[1]), int(op.arg[3])
        expect(data == golden_slice(self._golden, start, stop), "CSV differs from the golden sweep")

    def _check_exact_report(self, op: Op, out: Any, expect) -> None:
        rc, text = out
        expect(rc == 0, f"exit code {rc}")
        try:
            rep = parse_report(text)
        except (ValueError, ZeroDivisionError) as exc:
            expect(False, f"unparsable report: {exc}")
            return
        keys = ("N", "S", "S_closed", "S_half_open_left", "S_open", "integral")
        keys += ("R", "T", "T1", "T11", "T12", "T2")
        missing = [k for k in keys if k not in rep]
        expect(not missing, f"missing keys {missing}")
        if missing:
            return
        n = op.arg
        if self._series is None:
            self._series = sums.window_integral_series(self._max_n)
        s, integral = rep["S"], rep["integral"]
        expect(rep["N"] == n, f"N={rep['N']}")
        expect(rep["R"] == s - n * integral, "R != S - N*integral")
        expect(rep["R"] == -2 * rep["T"], "R != -2T")
        expect(rep["T"] == rep["T1"] + rep["T2"], "T != T1 + T2")
        expect(rep["T1"] == rep["T11"] + rep["T12"], "T1 != T11 + T12")
        expect(rep["S_half_open_left"] == s, "S_half_open_left != S")
        expect(rep["S_closed"] <= s <= rep["S_open"], "S_closed <= S <= S_open fails")
        expect(rep["S_open"] - s == sums.variant_gap(n), "S_open - S != variant_gap(N)")
        expect(integral == self._series[n], "integral != window_integral_series[N]")

    def _check_verify_suites(self, op: Op, out: Any, expect) -> None:
        expect(len(out) == len(op.arg), f"{len(out)} suites ran")
        for res in out:
            expect(res.passed + res.failed > 0, f"suite {res.name} ran no checks")
            expect(res.failed == 0, f"suite {res.name}: {res.failed} failed, first: {res.first_failure}")

    def _check_modq_transforms(self, op: Op, out: Any, expect) -> None:
        q = op.arg
        f, f_hat, back, table = out
        fv = np.array(f.values)
        hat = np.array(f_hat.values)
        # float error of a length-q sum grows with q; these bounds sit far
        # above what the direct transforms produce and far below a wrong value
        tol_vec = 64 * q * EPS
        tol_hat = 16 * q * q * EPS
        expect(float(np.abs(np.array(back.values) - fv).max()) <= tol_vec, "idft(dft(f)) != f")
        closed = np.array([expsums.b1_hat_closed(x, q) for x in range(1, q + 1)])
        expect(float(np.abs(hat - closed).max()) <= tol_hat, "dft(b1) != b1_hat_closed")
        expect(table.shape == (q, q), f"table shape {table.shape}")
        if table.shape != (q, q):
            return
        rng = random.Random(f"kloosterman:{self.seed}:{q}")
        worst = max(
            abs(table[a, b] - expsums.kloosterman(a, b, q))
            for a, b in ((rng.randrange(q), rng.randrange(q)) for _ in range(KLOOSTERMAN_SAMPLES))
        )
        expect(worst <= tol_vec, f"sampled K(a, b; q) off by {worst}")
        # K(a, b) = K(b, a), and each row sums to 0 for q > 1 because
        # sum_b e(b inv(n) / q) vanishes; together they catch any one bad entry
        expect(float(np.abs(table - table.T).max()) <= tol_vec, "K(a, b) != K(b, a)")
        if q > 1:
            expect(float(np.abs(table.sum(axis=1)).max()) <= tol_hat, "row sums != 0")
        # gcd(a, b, q) is the largest divisor d of q that divides a and b, and
        # weil_bound(d, 0, q) grows with d: raise the limit lattice by lattice
        limit = np.full((q, q), expsums.weil_bound(1, 0, q))
        for d in range(2, q + 1):
            if q % d == 0:
                limit[::d, ::d] = np.maximum(limit[::d, ::d], expsums.weil_bound(d, 0, q))
        expect(bool((np.abs(table) <= limit + tol_vec).all()), "an entry exceeds weil_bound")


def golden_slice(golden_lines: list[bytes], start: int, stop: int) -> bytes:
    """Header plus the golden rows with start <= N <= stop."""
    rows = [ln for ln in golden_lines[1:] if start <= int(ln.split(b",", 1)[0]) <= stop]
    return b"".join([golden_lines[0], *rows])


def parse_report(text: str) -> dict[str, Any]:
    """`compute` output as {key: int | Fraction}; float-valued keys are skipped."""
    rep: dict[str, Any] = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"line without '=': {line!r}")
        if key in ("ratio", "chen_haynes_residual", "R_over_bound"):
            continue
        rep[key] = Fraction(value)
    return rep
