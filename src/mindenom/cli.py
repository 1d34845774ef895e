"""Command-line front end.

Three subcommands: ``compute`` prints the full exact report for one grid size
as key=value lines, ``sweep`` emits a CSV of sums and ratios over a linear or
geometric range of grid sizes, and ``verify`` runs the self-check suites.

Exit codes: 0 success, 1 failed verification, 2 invalid flags, 3 grid size
over the exact-path budget without --s-only, 4 unwritable output path.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, TextIO

from . import sums, verify
from .minden import VARIANT_FLAGS

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
    """One CSV row; r_over_bound is populated only when the exact path ran."""

    n: int
    s: int
    ratio: float
    integral: float
    chen_haynes_residual: float
    r_over_bound: Optional[float] = None


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        raise TypeError("no boolean report fields")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return str(value)
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
            n = max(n + 1, int(math.floor(n * factor + 0.5)))


def sweep_rows(
    start: int,
    stop: int,
    step: int = 1,
    factor: Optional[float] = None,
    variant: str = DEFAULT_VARIANT,
    budget: int = DEFAULT_BUDGET,
) -> list[SweepRow]:
    """Rows of the sweep table, exact integral up to budget, float beyond."""
    if start < 1 or stop < start:
        raise ValueError(f"need 1 <= start <= stop, got {start}..{stop}")
    grid = list(_grid(start, stop, step, factor))
    series = None
    if grid and grid[0] <= budget:
        series = sums.window_integral_series(min(stop, budget))
    rows = []
    for n in grid:
        s = sums.denominator_sum(n, variant)
        ratio = s / n**1.5
        r_over_bound = None
        if series is not None and n <= budget:
            exact = series[n]
            integral = float(exact)
            if variant == DEFAULT_VARIANT and n >= 2:
                # remainder against the same exact integral the row reports
                r = s - n * exact
                r_over_bound = abs(float(r)) / (n ** (4 / 3) * math.log(n) ** 2)
        else:
            integral = sums.window_integral_float(n)
        rows.append(
            SweepRow(
                n=n,
                s=s,
                ratio=ratio,
                integral=integral,
                chen_haynes_residual=sums.chen_haynes_residual(n, integral),
                r_over_bound=r_over_bound,
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
    if args.n < 1:
        return _invalid(f"--n must be >= 1, got {args.n}")
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
    if args.start < 1 or args.stop < args.start:
        return _invalid(f"need 1 <= --from <= --to, got {args.start}..{args.stop}")
    if args.factor is not None and not (1 < args.factor < math.inf):
        return _invalid(f"--factor must be finite and > 1, got {args.factor}")
    if args.step < 1:
        return _invalid(f"--step must be >= 1, got {args.step}")
    if args.budget < 1:
        return _invalid(f"--budget must be >= 1, got {args.budget}")
    rows = sweep_rows(
        args.start, args.stop, args.step, args.factor, args.variant, args.budget
    )
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
    if args.max_n is not None and args.max_n < 1:
        return _invalid(f"--max-n must be >= 1, got {args.max_n}")
    results = verify.run(args.suite, args.max_n)
    failed = False
    for res in results:
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
