#!/usr/bin/env python3
"""Build and run the tamp::kv service benchmark.

    python3 benchmark/run.py                      # all workloads, seed 1
    python3 benchmark/run.py --workload read-zipf --seed 7 --seconds 16
    python3 benchmark/run.py --trace 1            # the traced run

Builds kv_bench from ../src with stats off in build-benchmark/ (the
measured run) and, for --trace 1, with TAMP_STATS=ON in
build-benchmark-stats/ (the traced run).  Each workload runs in its own
process.  Prints every metric as
`workload metric value unit`, writes the results to --out, and prints as
its last line one JSON object: {"correct", "attempted", "failed",
"metrics"}.  Without --trace the metrics are BENCHMARK.json's end_to_end
list; with --trace 1 they are its per_layer list, taken from a traced
run that follows an untraced one (trace.overhead_pct compares the two).
Exits non-zero if a build fails or any output check fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PLAIN = ROOT / "build-benchmark"
STATS = ROOT / "build-benchmark-stats"
RUN_TIMEOUT_S = 80  # per kv_bench process; a run takes 20-35 s
# BENCHMARK.json gates three closed loops.  update-uniform-4m and the two
# pipelines are run, traced and compared too, but they drift past any
# bound the gate allows on a shared host (see README.md).
WORKLOADS = ["read-zipf", "update-uniform-4m", "scan-insert-zipf",
             "churn-1m", "pipeline-250k", "pipeline-saturate"]


def build(tree, stats):
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(tree),
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                    "-DTAMP_STATS=" + ("ON" if stats else "OFF")],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(tree), "-j", "4",
                    "--target", "kv_bench"], stdout=sys.stderr, check=True)


def kv_bench(tree, workload, seed, seconds, trace_out=None):
    cmd = [str(tree / "kv_bench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit(f"kv_bench {workload} failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def run_workload(workload, args, spec):
    """One workload: returns (result, printable metric lines)."""
    plain = kv_bench(PLAIN, workload, args.seed, args.seconds)
    shown = dict(plain["metrics"])
    result = plain
    if args.trace:
        trace_file = PLAIN / f"trace-{workload}.json"
        traced = kv_bench(STATS, workload, args.seed, args.seconds,
                          trace_file)
        shown = {k: v for k, v in traced["metrics"].items()
                 if k not in plain["metrics"]}
        shown.update({k: plain["metrics"][k] for k in
                      ("throughput_ops_s", "latency_samples")})
        base = plain["metrics"]["throughput_ops_s"][0]
        shown["trace.overhead_pct"] = [
            100.0 * (1.0 - traced["metrics"]["throughput_ops_s"][0] / base),
            "%"]
        print(f"{workload} trace {trace_file.relative_to(ROOT)}")
        result = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
        }
    names = [m["name"] for m in spec["per_layer" if args.trace
                                     else "end_to_end"]]
    missing = [n for n in names if n not in shown]
    if missing:
        sys.exit(f"kv_bench {workload} did not report {missing}")
    lines = [f"{workload} {k} {v!r} {u}" for k, (v, u) in shown.items()]
    metrics = {n: {"value": shown[n][0], "unit": shown[n][1]} for n in names}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}, lines


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all of them)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="measured time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                    const=1, default=0,
                    help="1: per-layer metrics from the traced run")
    ap.add_argument("--out", type=Path, default=PLAIN / "result.json",
                    help="where to write the results as JSON")
    args = ap.parse_args()

    try:
        build(PLAIN, stats=False)
        if args.trace:
            build(STATS, stats=True)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"build failed: {e}")

    chosen = [args.workload] if args.workload else WORKLOADS
    results = {}
    for w in chosen:
        results[w], lines = run_workload(w, args, spec)
        print("\n".join(lines), flush=True)
        if not results[w]["correct"]:
            print(f"{w} FAILED its output checks", file=sys.stderr)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(
        {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
         "results": results}, indent=1) + "\n")

    if len(chosen) == 1:
        final = results[chosen[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
