"""Benchmark of quivalg, run from the root of a source checkout.

    python3 perfbench/run.py --workload verify-paper --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): verify-paper, auslander, quotients.  The
seed generates the inputs; the program only sees the generated inputs.

Configuration: the package is imported from src/ (PYTHONPATH=src), with
whatever scalar type and sweep kernel that gives; the environment block
of every result records both.  Each run is a closed loop with one
caller in one fresh single-threaded process: the next case starts when
the previous one returns.  The run process measures whole passes over
the workload's cases until another pass would overrun --seconds, and
always at least one; run_s is the median pass time.

Set-up time is measured by spawning the interpreter and timing
`import quivalg`, in import-only processes (six before the run process
and six after it, so the samples span the run) and in the run process
itself; setup_s is the median of the thirteen.

With --trace 0 the result carries the end-to-end metrics, measured with
tracing off.  With --trace 1 the untraced run process is followed by a
second fresh process that wraps the package's public functions
(spans.py) and makes one traced pass; the result carries the per-layer
metrics, and the tracing overhead is the traced pass time minus the
untraced run_s.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it holds the details:
the environment block, every pass time, the failure reasons and the
trace coverage checks.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SPAWNS_EACH_SIDE = 6  # import-only spawns before the run process, and again after it
# share of the traced pass that may run outside every traced quivalg
# function before the trace is said not to cover the workload
MAX_UNTRACED_SHARE = 0.01
RUN_TIMEOUT_S = 170.0

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "relations_kept": "count",
}

# layers each workload is meant to exercise; a traced run that records
# no span in one of them fails its coverage check
EXERCISED = {
    "verify-paper": ["verify", "endquiver", "algebra", "endos", "homological", "modules", "linalg"],
    "auslander": ["textio", "endquiver", "algebra", "endos", "homological", "modules", "linalg"],
    "quotients": ["textio", "algebra"],
}


def per_layer_metrics():
    """(name, unit, better) for every per-layer metric, in report order."""
    out = [("verify.stage.%s.s" % st, "s", "lower") for st, _, _ in spans.STAGES]
    timed = {}
    for layer, _module, attr in spans.TRACED:
        timed.setdefault(layer, []).append(spans.span_name(layer, attr))
    reported = {
        "verify": [],
        "endquiver": ["endquiver.end_as_quiver_algebra"],
        "algebra": ["algebra.build_algebra", "algebra.build_dimension_only"],
        "endos": timed["endos"],
        "homological": timed["homological"],
        "modules": timed["modules"],
        "linalg": timed["linalg"],
        "textio": [],
    }
    extra = {
        "endquiver": [
            ("endquiver.minimize_relations.s", "s", "lower"),
            ("endquiver.minimize.trials", "count", "lower"),
            ("endquiver.minimize.useful_ratio", "ratio", "higher"),
        ],
        "algebra": [
            ("algebra.probe_aborted", "count", "lower"),
            ("algebra.not_finite", "count", "lower"),
        ],
        "linalg": [("linalg.rat.calls", "count", "lower")],
        "textio": [
            ("textio.parse_algebra.s", "s", "lower"),
            ("textio.parse_module.s", "s", "lower"),
        ],
    }
    for layer in spans.LAYERS:
        for name in reported[layer]:
            out.append((name + ".calls", "count", "lower"))
            out.append((name + ".s", "s", "lower"))
        out.extend(extra.get(layer, []))
        out.append((layer + ".self_s", "s", "lower"))
    out += [
        ("bench.self_s", "s", "lower"),
        ("scalar.fraction_new.calls", "count", "lower"),
        ("process.cpu_s", "s", "lower"),
        ("trace.run_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


def _loadavg():
    try:
        return list(os.getloadavg())
    except OSError:
        return None


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "quivalg").glob("*")):
        if path.suffix in (".py", ".c"):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(extra, timeout):
    """Run worker.py to completion and return its last output line as JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--spawned-at", ""] + extra
    t = time.perf_counter()
    cmd[3] = repr(t)
    res = subprocess.run(
        cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, timeout=timeout, text=True
    )
    if res.returncode != 0:
        raise RuntimeError("worker exited with code %d" % res.returncode)
    return json.loads(res.stdout.strip().splitlines()[-1])


def _baseline_config():
    path = HERE / "baseline.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["environment"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(EXERCISED))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "quivalg" / "__init__.py").is_file():
        print("perfbench: no quivalg sources under %s" % SRC, file=sys.stderr)
        return 2

    started = time.perf_counter()
    load_start = _loadavg()
    setups = [_spawn(["--setup-only"], 60)["setup_s"] for _ in range(SETUP_SPAWNS_EACH_SIDE)]
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    run = _spawn(common + ["--trace", "0"], RUN_TIMEOUT_S - (time.perf_counter() - started))
    setups.append(run["setup_s"])
    setups += [_spawn(["--setup-only"], 60)["setup_s"] for _ in range(SETUP_SPAWNS_EACH_SIDE)]
    attempted, failed, failures = run["attempted"], run["failed"], run["failures"]
    if args.trace:
        # a second fresh process, so both passes start equally cold
        traced = _spawn(common + ["--trace", "1"], RUN_TIMEOUT_S - (time.perf_counter() - started))
        attempted += traced["attempted"]
        failed += traced["failed"]
        failures = failures + traced["failures"]

    environment = {
        "python": run["python"],
        "scalar_type": run["scalar_type"],
        "sweep_kernel_c": run["sweep_kernel_c"],
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": _loadavg(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }
    base = _baseline_config()
    if base is not None:
        same = all(environment[k] == base[k] for k in ("scalar_type", "sweep_kernel_c"))
        environment["same_configuration_as_baseline"] = same
        if not same:
            print(
                "perfbench: configuration differs from the baseline (scalar %s, C kernel %s)"
                % (environment["scalar_type"], environment["sweep_kernel_c"]),
                file=sys.stderr,
            )

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment,
        "setup_s_samples": setups,
        "lazy_import_s": run["lazy_import_s"],
        "process_cpu_s": run["process_cpu_s"],
        "run_s_samples": run["run_s_samples"],
        "cases_per_pass": run["cases"],
        "failed_ratio": failed / attempted,
        "failed_ratio_base": "%d failed of %d attempted cases" % (failed, attempted),
        "failures": failures,
    }
    correct = failed == 0
    if args.trace:
        layers = dict(traced["layers"])
        layers["trace.run_s"] = traced["run_s"]
        layers["trace.overhead_s"] = traced["run_s"] - run["run_s"]
        layers["process.cpu_s"] = run["process_cpu_s"]
        coverage = _coverage(args.workload, traced, layers)
        detail["coverage"] = coverage
        correct = correct and coverage["ok"]
        metrics = {}
        for name, unit, _better in per_layer_metrics():
            metrics[name] = {"value": layers.get(name, 0), "unit": unit}
    else:
        values = {
            "run_s": run["run_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": run["peak_rss_mb"],
            "relations_kept": run["relations_kept"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    print(json.dumps({"perfbench": detail}, default=str))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def _coverage(workload, traced, layers):
    """Trace coverage: wrappers bound everywhere, every expected layer
    seen, and the quivalg layers' self times adding up to the traced
    pass, so that at most MAX_UNTRACED_SHARE of it runs outside them."""
    missing_layers = [lay for lay in EXERCISED[workload] if lay not in traced["layers_seen"]]
    layer_sum = sum(layers.get(lay + ".self_s", 0.0) for lay in spans.LAYERS)
    untraced_share = 1.0 - layer_sum / layers["trace.run_s"]
    return {
        "ok": not traced["unwrapped"] and not missing_layers and untraced_share <= MAX_UNTRACED_SHARE,
        "unwrapped": traced["unwrapped"],
        "layers_without_spans": missing_layers,
        "layer_self_s_sum": layer_sum,
        "traced_run_s": layers["trace.run_s"],
        "untraced_share": untraced_share,
    }


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        sys.exit(3)
