"""Self-test of the benchmark: its checks catch wrong outputs, and tracing changes none.

    python3 perfbench/selftest.py

Uses small inputs, so it takes a few seconds.  It checks that

* each workload's output check passes on real output and fails on a
  deliberately perturbed copy (S off by one, one CSV digit changed, one
  Kloosterman entry or one transform value moved, a suite with a failure);
* an op gives the same output, by the fingerprint run.py compares, with the
  tracer installed as without it, and the tracer records spans;
* the tracer produces exactly the per-layer metrics BENCHMARK.json lists;
* run.py exits non-zero without printing a result in a directory holding
  only BENCHMARK.json and perfbench/.

Exit code 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mindenom import expsums, sums, verify  # noqa: E402
from workloads import Checker, Op  # noqa: E402


OUT_DIR = os.path.join(HERE, "out")
results: list[tuple[str, bool]] = []


def expect(cond: bool, what: str) -> None:
    results.append((what, bool(cond)))
    print(("PASS " if cond else "FAIL ") + what)


def passes(workload: str, op: Op, out, seed: int = 1) -> bool:
    return not Checker(workload, [op], seed).check(op, out)[1]


def small_ops() -> dict[str, Op]:
    return {
        "sweep_pow2": Op("sweep --from 16", ["--from", "16", "--to", "4096"]),
        "exact_report": Op("compute --n 60", 60),
        "verify_suites": Op("verify --suite variants", [("variants", "check_variants", {"max_n": 20})]),
        "modq_transforms": Op("q=96", 96),
    }


def run_small(workload: str, op: Op):
    return workloads.read_output(workload, workloads.run_op(workload, op, OUT_DIR))


def perturbations(outs: dict) -> None:
    ops = small_ops()
    op = ops["exact_report"]
    rc, text = outs["exact_report"]
    expect(passes("exact_report", op, (rc, text)), "exact_report: real output passes")
    s_line = next(line for line in text.splitlines() if line.startswith("S="))
    bad = text.replace(s_line, f"S={int(s_line[2:]) + 1}", 1)
    expect(not passes("exact_report", op, (rc, bad)), "exact_report: S off by one fails")

    op = ops["sweep_pow2"]
    rc, data = outs["sweep_pow2"]
    expect(passes("sweep_pow2", op, (rc, data)), "sweep_pow2: real CSV passes")
    last = data.rstrip(b"\n").rfind(b"1")
    bad = data[:last] + b"2" + data[last + 1 :]
    expect(not passes("sweep_pow2", op, (rc, bad)), "sweep_pow2: one changed digit fails")

    op = ops["verify_suites"]
    res = outs["verify_suites"]
    expect(passes("verify_suites", op, res), "verify_suites: real suite passes")
    bad = copy.copy(res[0])
    bad.fail("planted counterexample")
    expect(not passes("verify_suites", op, [bad]), "verify_suites: a failed check fails")

    op = ops["modq_transforms"]
    f, f_hat, back, table = outs["modq_transforms"]
    expect(passes("modq_transforms", op, (f, f_hat, back, table)), "modq_transforms: real output passes")
    bad_table = table.copy()
    bad_table[7, 11] += 1e-3
    expect(
        not passes("modq_transforms", op, (f, f_hat, back, bad_table)),
        "modq_transforms: one moved Kloosterman entry fails",
    )
    values = list(f_hat.values)
    values[5] += 1e-6
    bad_hat = expsums.PeriodicFunction(f_hat.period, tuple(values))
    expect(
        not passes("modq_transforms", op, (f, bad_hat, back, table)),
        "modq_transforms: one moved transform value fails",
    )


def traced_equals_untraced(outs: dict) -> None:
    originals = (verify.check_variants, sums.coprime_pairs)
    tracer = tracing.Tracer()
    tracer.install()
    expect(sums.coprime_pairs is not originals[1], "tracer patches names bound by import")
    try:
        for workload, op in small_ops().items():
            tracer.active = True
            out = run_small(workload, op)
            tracer.active = False
            same = run.same_output(
                workloads.fingerprint(workload, out), workloads.fingerprint(workload, outs[workload])
            )
            expect(same, f"{workload}: traced output equals untraced output")
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    expect(
        {"cli.main", "sums.sum_report", "verify.check_variants", "expsums.kloosterman_table"} <= names,
        "tracer records spans at cli, sums, verify and expsums",
    )
    expect((verify.check_variants, sums.coprime_pairs) == originals, "tracer uninstalls")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = [m["name"] for m in spec["per_layer"]]
    produced = list(tracer.metrics()) + ["trace.overhead"]
    expect(sorted(listed) == sorted(produced), "tracer metrics match BENCHMARK.json per_layer")


def bare_directory() -> None:
    bare = os.path.join(OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if os.path.isfile(os.path.join(HERE, name)):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_pow2", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "run.py refuses a directory without sources")


def main() -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    outs = {w: run_small(w, op) for w, op in small_ops().items()}
    perturbations(outs)
    traced_equals_untraced(outs)
    bare_directory()
    failed = [what for what, ok in results if not ok]
    print(f"{len(results) - len(failed)}/{len(results)} self-test checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
