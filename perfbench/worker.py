"""One benchmark run in a fresh process; started by run.py, not by hand.

Times `import quivalg` from the spawn instant the parent passes in,
then runs closed-loop passes over the workload's cases and prints one
JSON object as its last line of output.  With --setup-only it stops
after the import.  With --trace 1 it installs the tracer and runs one
traced pass.
"""

import argparse
import json
import resource
import statistics
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    import quivalg

    setup_s = time.perf_counter() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # lazily imported by decompose; loaded here so every pass sees the
    # same warm interpreter and the import is not charged to one pass
    t0 = time.perf_counter()
    import sympy  # noqa: F401

    lazy_import_s = time.perf_counter() - t0

    import spans
    import workloads

    cases = workloads.cases_for(args.workload, args.seed)
    out = {
        "setup_s": setup_s,
        "lazy_import_s": lazy_import_s,
        "python": sys.version.split()[0],
        "scalar_type": quivalg.linalg.QQ.__name__,
        "sweep_kernel_c": bool(quivalg.algebra._HAVE_C),
        "cases": len(cases),
    }
    passes = []
    cpu0 = time.process_time()
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(sys.modules)
        out["unwrapped"] = tracer.unwrapped_bindings(sys.modules)
        passes.append(_timed_pass(lambda: tracer.span("bench.pass", workloads.run_pass, cases)))
        tracer.uninstall()
        out["layers_seen"] = tracer.layers_seen()
        out["layers"] = tracer.aggregate()
    else:
        start = time.perf_counter()
        while True:
            passes.append(_timed_pass(lambda: workloads.run_pass(cases)))
            elapsed = time.perf_counter() - start
            # stop when another pass of the same length would overrun
            if elapsed + passes[-1][0] > args.seconds:
                break
    out["process_cpu_s"] = time.process_time() - cpu0
    times = [t for t, _ in passes]
    out["run_s_samples"] = times
    out["run_s"] = statistics.median(times)
    out["attempted"] = sum(r.attempted for _, r in passes)
    out["failed"] = sum(r.failed for _, r in passes)
    out["failures"] = [f for _, r in passes for f in r.failures][:10]
    out["relations_kept"] = passes[-1][1].relations_kept
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


def _timed_pass(run_pass):
    t0 = time.perf_counter()
    res = run_pass()
    return time.perf_counter() - t0, res


if __name__ == "__main__":
    sys.exit(main())
