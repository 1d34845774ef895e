"""One pass of one workload, in a fresh interpreter started by run.py.

The first thing the process does is import mindenom; it then writes
``ready`` to stdout, so the parent can time interpreter start plus import
(setup_s).  With ``--setup-only`` it exits there.  Otherwise it runs every op
of the workload once, timing each; checks the outputs outside the timed
region; and writes one JSON line with the timings, peak memory, check
results and output fingerprints.  With ``--trace 1`` the ops run under the
tracer and the line also carries the per-layer metrics.
"""

import sys

import mindenom  # noqa: F401  (setup_s ends when these imports return)
import mindenom.cli  # noqa: F401

sys.stdout.write("ready\n")
sys.stdout.flush()
if "--setup-only" in sys.argv:
    sys.exit(0)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def blas_threads() -> int:
    """Threads of numpy's bundled OpenBLAS, or -1 where that library is not found."""
    import ctypes
    import glob
    import os

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True, help="directory for op outputs")
    parser.add_argument("--spans", default=None, help="where a traced pass writes its spans")
    args = parser.parse_args()

    ops = workloads.make_ops(args.workload, args.seed)
    checker = workloads.Checker(args.workload, ops, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    # modq tables are q x q: check each op as it returns instead of holding all
    check_inline = args.workload == "modq_transforms"
    clock = time.perf_counter
    latencies, outputs = [], []
    checks_made, failures, failed_ops = 0, [], set()
    fingerprints = [None] * len(ops)
    peak_kb = 0

    def settle(i, out):
        nonlocal checks_made
        out = workloads.read_output(args.workload, out)
        made, fails = checker.check(ops[i], out)
        checks_made += made
        failures.extend(fails)
        if fails:
            failed_ops.add(i)
        fingerprints[i] = workloads.fingerprint(args.workload, out)

    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.active = True
        t0 = clock()
        try:
            out = workloads.run_op(args.workload, op, args.out_dir)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out = None
            failed_ops.add(i)
            failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
        latencies.append(clock() - t0)
        if tracer is not None:
            tracer.active = False
        peak_kb = max(peak_kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if out is None:
            continue
        if check_inline:
            settle(i, out)
        else:
            outputs.append((i, out))
    for i, out in outputs:
        settle(i, out)

    result = {
        "ops": len(ops),
        "failed_ops": len(failed_ops),
        "failures": failures[:10],
        "latencies_s": latencies,
        "wall_s": sum(latencies),
        "peak_rss_mb": peak_kb / 1024,
        "checks_run": checks_made,
        "fingerprints": fingerprints,
        "blas_threads": blas_threads(),
    }
    if args.workload == "verify_suites":
        # the suites' own checks, passed plus failed
        result["checks_run"] = sum(r[1] + r[2] for fp in fingerprints if fp is not None for r in fp)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        result["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
