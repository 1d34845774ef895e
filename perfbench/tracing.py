"""Spans and counters around the public functions of mindenom, patched from outside.

The tracer replaces every public module-level function of the traced modules
with a wrapper, wherever the function object is bound: ``sums`` imports
``grid_denominators``, ``coprime_pairs``, ``inv_mod`` and ``b1_residue`` into
its own namespace and ``expsums`` imports ``inv_mod``, so patching only the
defining module would miss those calls.  Nothing inside the package changes.

A span is ``[name, start, end, parent, busy]``: ``parent`` is the index of the
enclosing span (-1 at the top) and ``busy`` the time spent inside the
function.  For ordinary functions busy is ``end - start``; for the generator
``coprime_pairs`` it is the sum of its ``next()`` calls, because the caller's
loop body runs between them.  Spans stay in memory and are written out once,
after the timed region.  A function's self time is its busy time minus the
busy time of its direct child spans.

Functions called about 1e5 times or more per pass are counted but get no
span, which keeps the tracing overhead bounded; their time shows up as self
time of the calling span.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import time
from collections import Counter
from typing import Callable, Optional

MODULES = ("cli", "minden", "sums", "farey", "expsums", "verify")

#: Hot functions: a call counter, no span.
COUNT_ONLY = frozenset(
    {
        "farey.inv_mod",
        "farey.next_denominator",
        "minden.ceil_count_hits",
        "expsums.b1_residue",
        "expsums.exact_within_bound",
    }
)

_CHECKS = ("check_farey", "check_minden", "check_identities", "check_expsums", "check_variants")
_SUMS_TIMED = (
    "denominator_sum",
    "window_integral",
    "window_integral_series",
    "window_integral_float",
    "remainder_parts",
    "per_k_tables",
    "t2_quotient_groups",
    "t11_leftover_sum",
    "variant_gap",
    "sum_report",
)

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS: list[tuple[str, str, str]] = [
    ("minden.grid_denominators.calls", "count", "lower"),
    ("minden.grid_denominators.windows", "count", "lower"),
    ("minden.grid_denominators.s", "s", "lower"),
    ("minden.windows_per_s", "1/s", "higher"),
    ("minden.min_denominator.fast_calls", "count", "lower"),
    ("minden.min_denominator.oracle_calls", "count", "lower"),
    ("minden.min_denominator.s", "s", "lower"),
    ("minden.min_denominator_grid.calls", "count", "lower"),
    ("minden.min_denominator_grid.s", "s", "lower"),
    ("minden.self_s", "s", "lower"),
    *[(f"sums.{fn}.s", "s", "lower") for fn in _SUMS_TIMED],
    ("sums.self_s", "s", "lower"),
    ("farey.coprime_pairs.pairs", "count", "lower"),
    ("farey.coprime_pairs.s", "s", "lower"),
    ("farey.coprime_pairs.yield_ratio", "ratio", "higher"),
    ("farey.inv_mod.calls", "count", "lower"),
    *[
        (f"farey.{fn}.{key}", unit, "lower")
        for fn in ("farey_sequence", "adjacent_pairs", "totient_sieve")
        for key, unit in (("calls", "count"), ("s", "s"))
    ],
    ("farey.self_s", "s", "lower"),
    *[
        (f"expsums.{fn}.{key}", unit, "lower")
        for fn in ("dft", "idft", "kloosterman_table")
        for key, unit in (("calls", "count"), ("q_total", "count"), ("s", "s"))
    ],
    ("expsums.kloosterman.calls", "count", "lower"),
    ("expsums.kloosterman.s", "s", "lower"),
    ("expsums.b1_residue.calls", "count", "lower"),
    ("expsums.exact_within_bound.calls", "count", "lower"),
    ("expsums.twisted_b1_sum.s", "s", "lower"),
    ("expsums.weighted_b1_sum.s", "s", "lower"),
    ("expsums.self_s", "s", "lower"),
    *[
        (f"verify.{fn}.{key}", unit, better)
        for fn in _CHECKS
        for key, unit, better in (
            ("s", "s", "lower"),
            ("checks", "count", "higher"),
            ("failed", "count", "lower"),
        )
    ],
    ("verify.self_s", "s", "lower"),
    ("cli.sweep_rows.s", "s", "lower"),
    ("cli.write_sweep_csv.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
]


def divisor_summatory(n: int) -> int:
    """Sum of floor(n / r) for r = 1..n: the (r, s) candidates coprime_pairs(n) tests."""
    root = math.isqrt(n)
    return 2 * sum(n // r for r in range(1, root + 1)) - root * root


def _first_arg(args: tuple, kwargs: dict, key: str):
    return args[0] if args else kwargs[key]


def _note_grid(counts: Counter, args: tuple, kwargs: dict, result) -> None:
    counts["minden.grid_denominators.windows"] += _first_arg(args, kwargs, "n")


def _note_period(name: str, key: str) -> Callable:
    def note(counts: Counter, args: tuple, kwargs: dict, result) -> None:
        arg = _first_arg(args, kwargs, key)
        counts[f"{name}.q_total"] += arg if isinstance(arg, int) else arg.period

    return note


def _note_suite(name: str) -> Callable:
    def note(counts: Counter, args: tuple, kwargs: dict, result) -> None:
        counts[f"{name}.checks"] += result.passed + result.failed
        counts[f"{name}.failed"] += result.failed

    return note


_NOTES: dict[str, Callable] = {
    "minden.grid_denominators": _note_grid,
    "expsums.dft": _note_period("expsums.dft", "f"),
    "expsums.idft": _note_period("expsums.idft", "f_hat"),
    "expsums.kloosterman_table": _note_period("expsums.kloosterman_table", "q"),
    **{f"verify.{fn}": _note_suite(f"verify.{fn}") for fn in _CHECKS},
}


def _is_oracle_call(args: tuple, kwargs: dict) -> bool:
    algo = args[1] if len(args) > 1 else kwargs.get("algo", "fast")
    return algo == "oracle"


class Tracer:
    """Patches the package's public functions; records spans and counters while active."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------
    def _counter(self, name: str, fn: Callable) -> Callable:
        counts, key = self.counts, name + ".calls"

        def wrapper(*args, **kwargs):
            if self.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, name: str, fn: Callable, note: Optional[Callable]) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        key = name + ".calls"
        oracle_split = name == "minden.min_denominator"

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if oracle_split:
                # the scanning oracle is a hot path: count it, no span
                if _is_oracle_call(args, kwargs):
                    counts["minden.min_denominator.oracle_calls"] += 1
                    return fn(*args, **kwargs)
                counts["minden.min_denominator.fast_calls"] += 1
            counts[key] += 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = end = clock()
                rec[4] = end - start
                stack.pop()
            if note is not None:
                note(counts, args, kwargs, result)
            return result

        return wrapper

    def _generator(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(gen):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0.0]
            idx = len(spans)
            spans.append(rec)
            yielded = 0
            try:
                while True:
                    stack.append(idx)
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        rec[4] += clock() - t0
                        stack.pop()
                    yielded += 1
                    yield item
            finally:
                rec[2] = clock()
                gen.close()
                counts[name + ".pairs"] += yielded

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            counts[name + ".calls"] += 1
            counts[name + ".candidates"] += divisor_summatory(_first_arg(args, kwargs, "n"))
            return traced(fn(*args, **kwargs))

        return wrapper

    # -- patching -------------------------------------------------------
    def install(self) -> None:
        """Wrap every public function of MODULES in every mindenom namespace that binds it."""
        package = importlib.import_module("mindenom")
        modules = [package] + [importlib.import_module(f"mindenom.{m}") for m in MODULES]
        wrapped: dict[int, Callable] = {}
        for short in MODULES:
            module = importlib.import_module(f"mindenom.{short}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in COUNT_ONLY:
                    wrapped[id(obj)] = self._counter(name, obj)
                elif inspect.isgeneratorfunction(obj):
                    wrapped[id(obj)] = self._generator(name, obj)
                else:
                    wrapped[id(obj)] = self._span(name, obj, _NOTES.get(name))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results --------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead, which needs an untraced pass."""
        busy: Counter = Counter()
        self_by_module: Counter = Counter()
        child_busy = [0.0] * len(self.spans)
        for _, _, _, parent, b in self.spans:
            if parent >= 0:
                child_busy[parent] += b
        for i, (name, _, _, _, b) in enumerate(self.spans):
            busy[name] += b
            self_by_module[name.split(".", 1)[0]] += b - child_busy[i]
        values: dict[str, float] = {}
        for metric, _, _ in LAYER_METRICS:
            head, _, key = metric.rpartition(".")
            if metric == "trace.overhead":
                continue
            if metric.endswith(".self_s"):
                values[metric] = self_by_module[metric[: -len(".self_s")]]
            elif key == "s":
                values[metric] = busy[head]
            else:
                values[metric] = self.counts[metric]
        grid_s = busy["minden.grid_denominators"]
        values["minden.windows_per_s"] = (
            self.counts["minden.grid_denominators.windows"] / grid_s if grid_s else 0.0
        )
        candidates = self.counts["farey.coprime_pairs.candidates"]
        values["farey.coprime_pairs.yield_ratio"] = (
            self.counts["farey.coprime_pairs.pairs"] / candidates if candidates else 0.0
        )
        return values

    def write_spans(self, path: str) -> None:
        """Spans as JSON: a name table and [name_index, start, end, parent, busy] rows."""
        names: dict[str, int] = {}
        rows = [
            [names.setdefault(name, len(names)), start, end, parent, b]
            for name, start, end, parent, b in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(names), "spans": rows}, fh, separators=(",", ":"))
