"""Run-to-run spread of the end-to-end metrics, and the committed baseline.

    python3 perfbench/spread.py --workloads all --seeds 1-10
    python3 perfbench/spread.py --workloads all --seeds 1-10 --baseline perfbench/baseline.json

Runs ``run.py --trace 0`` once per seed and workload, one run at a time, and
prints for every end-to-end metric its median and its quartile spread: the
distance between the first and third quartiles of the per-seed values
(``statistics.quantiles(values, n=4)``) as a share of their median, next to
the metric's bound from BENCHMARK.json.  A metric is steady when its spread is
below a third of its bound; setup_s is reported but has no spread limit.

With ``--baseline`` it also makes one traced run per workload (on the first
seed) and writes the per-seed values, their quartiles, the per-layer
breakdown, each module's share of self time and the measured shares that the
workload descriptions predict.  Entries of workloads not re-measured are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_pow2", "exact_report", "verify_suites", "modq_transforms")
MODULES = ("cli", "minden", "sums", "farey", "expsums", "verify")

#: Shares of the traced wall time that the workload descriptions predict:
#: (label, per-layer metrics summed, quoted share).
PREDICTIONS = {
    "sweep_pow2": [
        ("grid_denominators", ["minden.grid_denominators.s"], "about 80 %"),
        ("window_integral_float", ["sums.window_integral_float.s"], "about 5 %"),
    ],
    "exact_report": [
        ("remainder_parts + window_integral", ["sums.remainder_parts.s", "sums.window_integral.s"], "about 95 %"),
        ("the four variant sums", ["sums.denominator_sum.s"], "under 10 %"),
    ],
    "verify_suites": [
        (
            "expsums transforms",
            ["expsums.dft.s", "expsums.idft.s", "expsums.kloosterman_table.s"],
            "about 3 %",
        ),
    ],
    "modq_transforms": [
        (
            "expsums transforms",
            ["expsums.dft.s", "expsums.idft.s", "expsums.kloosterman_table.s"],
            "nearly all",
        ),
    ],
}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    tag = f"{workload}-seed{seed}-trace{trace}"
    with open(os.path.join(HERE, "out", f"result-{tag}.json"), encoding="utf-8") as fh:
        detail = json.load(fh)
    return {"line": line, "detail": detail}


def spread_of(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def prediction_table(workload: str, res: dict) -> dict:
    layers = res["per_layer"]
    wall = res["traced_wall_s"]
    self_shares = {m: layers[f"{m}.self_s"] / wall for m in MODULES}
    return {
        "traced_wall_s": wall,
        "self_share": self_shares,
        "dominant_self": max(self_shares, key=self_shares.get),
        "predicted_shares": [
            {"what": label, "quoted": quoted, "measured": sum(layers[k] for k in keys) / wall}
            for label, keys, quoted in PREDICTIONS[workload]
        ],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--baseline", default=None, help="write the baseline JSON here")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = WORKLOADS if args.workloads == "all" else tuple(args.workloads.split(","))
    seeds = parse_seeds(args.seeds)
    out: dict = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    if args.baseline and os.path.exists(args.baseline):
        # re-measuring some workloads keeps the entries of the others
        with open(args.baseline, encoding="utf-8") as fh:
            out["workloads"] = json.load(fh)["workloads"]
    steady = True
    for workload in workloads:
        runs = [run(workload, seed, spec["run_seconds"], 0) for seed in seeds]
        entry: dict = {"correct": all(r["line"]["correct"] for r in runs), "end_to_end": {}}
        entry["ops_failed"] = sum(r["line"]["failed"] for r in runs) / sum(
            r["line"]["attempted"] for r in runs
        )
        print(f"{workload}: {len(runs)} runs, correct={entry['correct']}, ops_failed={entry['ops_failed']}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["line"]["metrics"][name]["value"] for r in runs]
            stats = spread_of(values)
            stats["values"] = values
            stats["unit"] = metric["unit"]
            limited = name != "setup_s"
            ok = not limited or stats["spread"] < metric["bound"] / 3
            steady &= ok
            entry["end_to_end"][name] = stats
            flag = "" if ok else "  <-- above a third of the bound"
            print(
                f"  {name:<12} median {stats['median']:.6g} {metric['unit']:<6} "
                f"spread {stats['spread']:.4f} (bound {metric['bound']}){flag}"
            )
        entry["environment"] = runs[0]["detail"]["environment"]
        if args.baseline:
            traced = run(workload, seeds[0], spec["run_seconds"], 1)
            res = traced["detail"]["results"][0]
            entry["traced_seed"] = seeds[0]
            entry["traced_correct"] = traced["line"]["correct"]
            entry["per_layer"] = res["per_layer"]
            entry["trace"] = prediction_table(workload, res)
            print(f"  dominant self time: {entry['trace']['dominant_self']}")
            for row in entry["trace"]["predicted_shares"]:
                print(f"  {row['what']}: measured {row['measured']:.1%}, quoted {row['quoted']}")
        out["workloads"][workload] = entry
    if args.baseline:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
