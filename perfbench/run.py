"""Benchmark entry point for mindenom.

    python3 perfbench/run.py --workload <name|all> --seed <n> [--seconds 30] [--trace 0|1]

Run from a checkout of the repository: the program under test is the
checkout's ``src/mindenom``, imported from source.  Every pass of a workload
runs in a fresh single-threaded interpreter (perfbench/worker.py), because a
CLI user pays the cold cost on every call and ``expsums._roots`` would carry
warm state from pass to pass.  Passes repeat, at least twice, while the next
one fits in ``--seconds``; the reported values are medians over passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones, plus ``trace.overhead`` (traced wall_s over untraced wall_s, minus 1).
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A fuller record, with the environment, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
GOLDEN = os.path.join(HERE, "golden_sweep.csv")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("sweep_pow2", "exact_report", "verify_suites", "modq_transforms")
MIN_PASSES = 2
#: Extra interpreter starts per run that only import mindenom, for setup_s.
SETUP_PROBES = 5
#: A pass takes 5-15 s on a 2-core Xeon VM; the caps keep a run under 180 s.
PASS_TIMEOUT_S = 60
#: No new pass starts once this much of a run has gone, whatever --seconds says.
RUN_CAP_S = 100
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class PassFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(argv: list[str], env: dict[str, str]) -> tuple[float, str]:
    """Start worker.py; return (seconds until it had imported mindenom, rest of its stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *argv], stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True
    )
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"worker timed out after {PASS_TIMEOUT_S} s") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready != "ready\n" or proc.returncode != 0:
        raise PassFailed(f"worker exited with code {proc.returncode}")
    return setup, rest


def quantile(values: list[float], which: int) -> float:
    """Quartile `which` (1, 2 or 3) with linear interpolation; the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[which - 1]


def same_output(a, b, rel: float = 1e-9) -> bool:
    """Fingerprints agree: exactly, except that floats may differ by a relative `rel`."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same_output(x, y, rel) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=rel, abs_tol=rel)
    return a == b


def mismatches(ref: list, other: list) -> list[int]:
    """Ops whose outputs differ between two passes; an op that failed in either is skipped."""
    return [
        i
        for i, (a, b) in enumerate(zip(ref, other))
        if a is not None and b is not None and not same_output(a, b)
    ]


def load_metric_specs() -> tuple[list[dict], list[dict]]:
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    os.makedirs(OUT, exist_ok=True)
    spawn(["--setup-only"], env)  # untimed: writes bytecode caches, warms the file cache
    setups = [spawn(["--setup-only"], env)[0] for _ in range(SETUP_PROBES)]
    passes: list[dict] = []
    failures: list[str] = []
    crashed = 0
    started = time.perf_counter()
    durations: list[float] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        argv = ["--workload", workload, "--seed", str(seed), "--out-dir", OUT]
        if traced:
            argv += ["--trace", "1", "--spans", os.path.join(OUT, f"spans-{workload}-seed{seed}-pass{len(passes)}.json")]
        t0 = time.perf_counter()
        try:
            setup, text = spawn(argv, env)
            result = json.loads(text.strip().splitlines()[-1])
        except (PassFailed, ValueError, IndexError) as exc:
            crashed += 1
            failures.append(f"pass {len(passes) + crashed}: {exc}")
            if crashed > 1:
                break
            continue
        durations.append(time.perf_counter() - t0)
        setups.append(setup)
        result["traced"] = traced
        passes.append(result)
        failures.extend(result["failures"])
        elapsed = time.perf_counter() - started
        nxt = statistics.median(durations)
        if len(passes) >= MIN_PASSES and (elapsed + nxt > seconds or elapsed + nxt > RUN_CAP_S):
            break

    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    attempted = sum(p["ops"] for p in passes) + crashed
    failed_ops = sum(p["failed_ops"] for p in passes) + crashed
    # the traced run must give the same outputs as the untraced run
    mismatched = 0
    if plain:
        ref = plain[0]["fingerprints"]
        for p in passes[1:]:
            bad = mismatches(ref, p["fingerprints"])
            mismatched += len(bad)
            failures.extend(f"op {i}: output differs between passes" for i in bad)
    failed = failed_ops + mismatched
    latencies = [x for p in plain for x in p["latencies_s"]]
    e2e = {}
    if plain:
        e2e = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "op_p50_s": quantile(latencies, 2),
            "op_p75_s": quantile(latencies, 3),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "checks_run": statistics.median(p["checks_run"] for p in plain),
        }
    layers, traced_wall = {}, None
    if traced_passes and plain:
        for key in traced_passes[0]["layers"]:
            layers[key] = statistics.median(p["layers"][key] for p in traced_passes)
        traced_wall = statistics.median(p["wall_s"] for p in traced_passes)
        layers["trace.overhead"] = traced_wall / e2e["wall_s"] - 1
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": len(passes),
        "traced_passes": len(traced_passes),
        "setup_samples": len(setups),
        "op_samples": len(latencies),
        "attempted": attempted,
        "failed": failed,
        "ops_failed": failed / attempted if attempted else 1.0,
        "correct": failed == 0 and crashed == 0 and bool(plain) and (not trace or bool(traced_passes)),
        "failures": failures[:10],
        "end_to_end": e2e,
        "per_layer": layers,
        "blas_threads": max((p["blas_threads"] for p in passes), default=-1),
        "traced_wall_s": traced_wall,
        "pass_walls_s": [p["wall_s"] for p in passes],
        "pass_traced": [p["traced"] for p in passes],
        "spans": [p.get("spans", 0) for p in traced_passes],
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a git tree."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, blas_threads: int) -> dict:
    nproc = len(os.sched_getaffinity(0))
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "blas_threads": blas_threads,
        "git_commit": git_commit(),
        "seed": seed,
    }


def report(res: dict, e2e_specs: list[dict], layer_specs: list[dict], prefix: str = "") -> dict:
    """Print a human-readable block for one workload; return its metrics for the JSON line."""
    print(
        f"{res['workload']} seed={res['seed']} trace={res['trace']}: {res['passes']} passes "
        f"({res['traced_passes']} traced), {res['attempted']} ops attempted, {res['failed']} failed"
    )
    samples = {"setup_s": res["setup_samples"], "op_p50_s": res["op_samples"], "op_p75_s": res["op_samples"]}
    for spec in e2e_specs:
        name = spec["name"]
        if name in res["end_to_end"]:
            n = samples.get(name, res["passes"] - res["traced_passes"])
            print(f"  {name:<14} {res['end_to_end'][name]:>14.6g} {spec['unit']:<6} (n={n})")
    print(f"  {'ops_failed':<14} {res['ops_failed']:>14.6g} fraction")
    for failure in res["failures"]:
        print(f"  failure: {failure}")
    if res["trace"]:
        for spec in layer_specs:
            value = res["per_layer"].get(spec["name"])
            if value is not None and value != 0:
                print(f"  {spec['name']:<40} {value:>14.6g} {spec['unit']}")
    chosen = layer_specs if res["trace"] else e2e_specs
    source = res["per_layer"] if res["trace"] else res["end_to_end"]
    return {
        prefix + s["name"]: {"value": source[s["name"]], "unit": s["unit"]}
        for s in chosen
        if s["name"] in source
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "mindenom", "__init__.py")):
        print(f"error: no mindenom sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if not os.path.isfile(GOLDEN):
        print(f"error: missing {GOLDEN}", file=sys.stderr)
        return 2
    e2e_specs, layer_specs = load_metric_specs()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    metrics: dict = {}
    for res in results:
        metrics.update(report(res, e2e_specs, layer_specs, f"{res['workload']}." if len(results) > 1 else ""))
    env = environment(args.seed, max(r["blas_threads"] for r in results))
    print("environment: " + json.dumps(env))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "results": results}, fh, indent=1)
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
