"""Command-line front end.

Three subcommands: ``compute`` prints the full exact report for one grid size
as key=value lines, ``sweep`` emits a CSV of sums and ratios over a linear or
geometric range of grid sizes, and ``verify`` runs the self-check suites.

Exit codes: 0 success, 1 failed verification, 2 invalid flags, 3 grid size
over the exact-path budget without --s-only, 4 unwritable output path.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterator, Optional, Sequence, TextIO

from . import sums, verify
from .minden import VARIANT_FLAGS, check_grid_size

DEFAULT_BUDGET = 2000
DEFAULT_VARIANT = "half-open-right"

CSV_HEADER = "N,S,ratio,integral,chen_haynes_residual"

#: compute output order: (display key, report field)
_REPORT_KEYS = (
    ("N", "n"),
    ("S", "s"),
    ("S_closed", "s_closed"),
    ("S_half_open_left", "s_half_open_left"),
    ("S_open", "s_open"),
    ("integral", "integral"),
    ("R", "r"),
    ("T", "t"),
    ("T1", "t1"),
    ("T11", "t11"),
    ("T12", "t12"),
    ("T2", "t2"),
    ("ratio", "ratio"),
    ("chen_haynes_residual", "chen_haynes_residual"),
    ("R_over_bound", "r_over_bound"),
)


@dataclass(frozen=True)
class SweepRow:
    """One CSV row."""

    n: int
    s: int
    ratio: float
    integral: float
    chen_haynes_residual: float


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        raise TypeError("no boolean report fields")
    if isinstance(value, (int, Fraction)):
        # Decimal prints every digit; str() of an int refuses more than 4300
        num = str(Decimal(value.numerator))
        return num if value.denominator == 1 else f"{num}/{Decimal(value.denominator)}"
    if isinstance(value, float):
        return format(value, ".12g")
    raise TypeError(f"cannot format {value!r}")


def _grid(start: int, stop: int, step: int, factor: Optional[float]) -> Iterator[int]:
    n = start
    while n <= stop:
        yield n
        if factor is None:
            n += step
        else:
            nxt = n * factor + 0.5
            if nxt >= stop + 1:  # also stops an overflow to inf before the floor
                return
            n = max(n + 1, int(math.floor(nxt)))


def sweep_rows(
    start: int,
    stop: int,
    step: int = 1,
    factor: Optional[float] = None,
    variant: str = DEFAULT_VARIANT,
    budget: int = DEFAULT_BUDGET,
) -> list[SweepRow]:
    """Rows of the sweep table, exact integral up to budget, float beyond.

    The integrals come first: the exact W of the rows n <= budget from
    sums.window_integrals, formed at those rows only and correctly rounded
    by float(), and the float integrals of the others from one
    sums.window_integral_floats pass.  Then every S comes from one
    sums.denominator_sums call over the grid: with an integer --factor
    each row from the factor up divides the next larger one and is
    coarsened from its half grid, and the other rows (--step, a fractional
    --factor, rows below the factor) descend one by one.  Raises ValueError
    for a bad range, step < 1 or a factor outside ]1, inf[, and
    OverflowError when stop > minden.GRID_MAX_N, before any work.
    """
    if start < 1 or stop < start:
        raise ValueError(f"need 1 <= start <= stop, got {start}..{stop}")
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    if factor is not None and not 1 < factor < math.inf:
        raise ValueError(f"factor must be finite and > 1, got {factor}")
    check_grid_size(stop)
    grid = list(_grid(start, stop, step, factor))
    exact_ns = [n for n in grid if n <= budget]
    integrals = [float(w) for w in sums.window_integrals(exact_ns)]
    integrals += sums.window_integral_floats(grid[len(exact_ns) :])
    rows = []
    for n, s, integral in zip(grid, sums.denominator_sums(grid, variant), integrals):
        rows.append(
            SweepRow(
                n=n,
                s=s,
                ratio=s / n**1.5,
                integral=integral,
                chen_haynes_residual=sums.chen_haynes_residual(n, integral),
            )
        )
    return rows


def write_sweep_csv(rows: Sequence[SweepRow], out: TextIO) -> None:
    out.write(CSV_HEADER + "\n")
    for row in rows:
        out.write(
            f"{row.n},{row.s},{_fmt(row.ratio)},{_fmt(row.integral)},"
            f"{_fmt(row.chen_haynes_residual)}\n"
        )


def _invalid(message: str) -> int:
    """Report an invalid flag value; exit code 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_compute(args: argparse.Namespace) -> int:
    if args.budget < 1:
        return _invalid(f"--budget must be >= 1, got {args.budget}")
    if args.s_only:
        s = sums.denominator_sum(args.n, args.variant)
        print(f"N={args.n}")
        print(f"S={s}")
        print(f"ratio={_fmt(s / args.n**1.5)}")
        return 0
    if args.n > args.budget:
        print(
            f"error: N={args.n} exceeds the exact-path budget {args.budget}; "
            "use --s-only or raise --budget",
            file=sys.stderr,
        )
        return 3
    if args.variant != DEFAULT_VARIANT:
        return _invalid(
            "the full report describes the half-open-right grid and already "
            "includes every variant sum; combine --variant with --s-only"
        )
    report = sums.sum_report(args.n)
    for key, attr in _REPORT_KEYS:
        value = getattr(report, attr)
        if value is None:
            continue
        print(f"{key}={_fmt(value)}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.budget < 1:
        return _invalid(f"--budget must be >= 1, got {args.budget}")
    rows = sweep_rows(args.start, args.stop, args.step, args.factor, args.variant, args.budget)
    if args.out is None:
        write_sweep_csv(rows, sys.stdout)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_sweep_csv(rows, fh)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 4
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = verify.run(args.suite, args.max_n)
    failed = False
    for res in results:
        total = res.passed + res.failed
        print(f"{res.name}: {total} checks in {res.seconds:.2f} s", file=sys.stderr)
        for name, tally in res.checks.items():
            print(f"  {name}: {tally.passed} passed, {tally.failed} failed", file=sys.stderr)
        print(f"{res.name}: {res.passed} passed, {res.failed} failed")
        if res.failed:
            failed = True
            print(f"  first counterexample: {res.first_failure}")
    print("FAIL" if failed else "OK")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mindenom",
        description="Minimal denominators over unit-fraction grids: "
        "exact sums, remainder identities, exponential-sum bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser(
        "compute", help="print the exact report for one grid size"
    )
    p_compute.add_argument("--n", type=int, required=True, help="grid size N")
    p_compute.add_argument(
        "--variant",
        choices=sorted(VARIANT_FLAGS),
        default=DEFAULT_VARIANT,
        help="window boundary variant (only with --s-only)",
    )
    p_compute.add_argument(
        "--s-only",
        action="store_true",
        help="print only the denominator sum and ratio (any N)",
    )
    p_compute.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help=f"largest N for the exact report (default {DEFAULT_BUDGET})",
    )
    p_compute.set_defaults(func=cmd_compute)

    p_sweep = sub.add_parser("sweep", help="emit a CSV over a range of grid sizes")
    p_sweep.add_argument("--from", dest="start", type=int, required=True)
    p_sweep.add_argument("--to", dest="stop", type=int, required=True)
    grid = p_sweep.add_mutually_exclusive_group()
    grid.add_argument("--step", type=int, default=1, help="linear increment")
    grid.add_argument(
        "--factor", type=float, default=None, help="geometric growth factor"
    )
    p_sweep.add_argument(
        "--variant", choices=sorted(VARIANT_FLAGS), default=DEFAULT_VARIANT
    )
    p_sweep.add_argument("--out", default=None, help="output path (default stdout)")
    p_sweep.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help=f"largest N computed on the exact path (default {DEFAULT_BUDGET})",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the self-check suites")
    p_verify.add_argument(
        "--suite", choices=verify.SUITE_NAMES, default="all"
    )
    p_verify.add_argument(
        "--max-n", type=int, default=None, help="override the suite size knob"
    )
    p_verify.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of main(): built on its first call, then reused in the process."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; a ValueError or OverflowError it raises on bad input exits 2."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError) as exc:
        return _invalid(str(exc))


if __name__ == "__main__":
    sys.exit(main())
