"""Record the benchmark baseline, or check that work counts repeat.

    python3 perfbench/baseline.py           # write perfbench/baseline.json
    python3 perfbench/baseline.py --check   # counts against baseline.json

Recording makes, for every workload of BENCHMARK.json, one untraced
run for each seed 1..10 and two traced runs with seed 1, and writes the
file whole.  It stores each end-to-end metric's median and quartiles
over the seeds, the spread (q3 - q1) / median, the per-stage table of
verify-paper, the tracing overhead and every work count of the traced
run.  The two traced runs must give identical counts, or nothing is
written.

--check makes one traced run with seed 1 per workload and compares its
counts with the stored ones exactly.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"
SEEDS = range(1, 11)

NOTE = (
    "medians and quartiles over seeds 1..10, one untraced run each; traced "
    "figures from seed 1. Stage, inclusive and self times come from the "
    "traced pass, which also counts every Fraction construction through a "
    "Python-level __new__ (scalar.fraction_new.calls in counts); that cost "
    "is inside them, so Fraction-heavy layers (linalg, algebra) read high. overhead_s is the traced pass minus an untraced pass in "
    "another process; on a machine whose speed drifts 15-20 % between "
    "runs it is noise and can come out negative. relations_kept on "
    "quotients counts the generated input relations, so it is fixed by the "
    "inputs."
)

# which end-to-end metric each per-layer metric should move, and where
LAYER_TO_END_TO_END = {
    "verify.stage.<name>.s": "run_s on verify-paper",
    "endquiver.end_as_quiver_algebra, endquiver.minimize_relations.s, "
    "endquiver.minimize.trials, endquiver.minimize.useful_ratio": "run_s and relations_kept on verify-paper",
    "algebra.build_algebra, algebra.build_dimension_only, algebra.probe_aborted, "
    "algebra.not_finite, algebra.self_s": "run_s on verify-paper; run_s and peak_rss_mb on quotients",
    "endos.EndStructure, endos.decompose, endos.self_s": "run_s on verify-paper and auslander",
    "homological.<fn>, homological.self_s": "run_s on verify-paper",
    "modules.<fn>, modules.self_s": "run_s on auslander and verify-paper",
    "linalg.<fn>, linalg.rat.calls, linalg.self_s": "run_s on auslander",
    "scalar.fraction_new.calls": "run_s on auslander and verify-paper",
    "textio.parse_algebra.s, textio.parse_module.s": "none: guards that stay near 0 on quotients and auslander",
    "process.cpu_s, trace.overhead_s": "none: cpu_s near run_s means no waiting; overhead sizes the trace",
}


def bench(workload, seed, trace):
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec()["run_seconds"]), "--trace", str(trace),
    ]
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    if res.returncode != 0:
        raise SystemExit("%s seed %d trace %d exited with %d" % (workload, seed, trace, res.returncode))
    lines = res.stdout.strip().splitlines()
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])["perfbench"]
    if not result["correct"]:
        raise SystemExit("%s seed %d trace %d is not correct: %s" % (workload, seed, trace, detail))
    values = {k: m["value"] for k, m in result["metrics"].items()}
    return values, detail


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def counts(layer_values):
    units = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    return {k: v for k, v in layer_values.items() if units.get(k) in ("count", "ratio")}


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def record():
    why = {w["name"]: w["why"] for w in spec()["workloads"]}
    out = {
        "note": NOTE,
        "layer_to_end_to_end": LAYER_TO_END_TO_END,
        "workloads": {},
    }
    for w in why:
        runs = [bench(w, s, 0) for s in SEEDS]
        env = runs[0][1]["environment"]
        out["environment"] = {
            k: env[k] for k in ("python", "scalar_type", "sweep_kernel_c", "nproc", "commit", "source_sha256")
        }
        e2e = {name: quartiles([v[name] for v, _ in runs]) for name in runs[0][0]}
        traced = [bench(w, 1, 1) for _ in range(2)]
        first, second = counts(traced[0][0]), counts(traced[1][0])
        if first != second:
            diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
            raise SystemExit("%s: counts differ between two traced runs: %s" % (w, diff))
        layers = traced[0][0]
        entry = {
            "why": why[w],
            "end_to_end": e2e,
            "trace": {
                "untraced_run_s": traced[0][1]["run_s_samples"][0],
                "traced_run_s": layers["trace.run_s"],
                "overhead_s": layers["trace.overhead_s"],
                "self_s": {k: v for k, v in layers.items() if k.endswith(".self_s")},
            },
            "counts": first,
        }
        if w == "verify-paper":
            entry["stages_s"] = {k: v for k, v in layers.items() if k.startswith("verify.stage.")}
        out["workloads"][w] = entry
        print(json.dumps({w: {k: e2e[k]["median"] for k in e2e}}), flush=True)
        print(json.dumps({w: {k: round(e2e[k]["spread"], 4) for k in e2e}}), flush=True)
    OUT.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")


def check():
    stored = json.loads(OUT.read_text())["workloads"]
    ok = True
    for w in stored:
        got = counts(bench(w, 1, 1)[0])
        want = stored[w]["counts"]
        diff = {k: (want.get(k), got.get(k)) for k in set(want) | set(got) if want.get(k) != got.get(k)}
        print(json.dumps({w: "counts repeat exactly" if not diff else diff}), flush=True)
        ok = ok and not diff
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args()
    if args.check:
        return check()
    record()
    return 0


if __name__ == "__main__":
    sys.exit(main())
