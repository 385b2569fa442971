#!/usr/bin/env python3
"""Benchmark telemetry pipeline for the tamp harness.

Runs benchmark families (``bench_<family>`` binaries built with the
``stats`` preset, so the tamp::obs counters are compiled in) and merges
each family's counter-annotated google-benchmark JSON into a
schema-stable report, ``BENCH_<family>.json``:

    python3 tools/bench_report.py --families locks,reclaim,lists,hash,kv \
        --build-dir build-stats --out-dir .

Gate a change against its base (what CI's bench-smoke job runs, with the
base commit built beside the change):

    python3 tools/bench_report.py --families locks,reclaim,lists,hash,kv \
        --build-dir build-stats --paired ../base/build-stats \
        --min-time 0.05 --out-dir ci-bench --raw-out-dir ci-bench

--paired runs each family binary of the base build and of --build-dir
PAIRS times each, alternately, on one host: the side that runs first
alternates from pair to pair, and each run is one repetition at
--min-time.  Each (series, threads) point is judged by
benchmark/compare.py's verdict() at BOUND, the bound BENCHMARK.json sets
for throughput and p99: on items/s always, and on tamp.p99 where every
run of the point set tamp.lat_primary (its percentiles came from the
benchmark's own op-latency timer, not from whichever histogram moved
most).  A series is one benchmark function, and its points are its runs
at every argument and thread count (BM_HeavyBarrier/0..3 are the four
points of one series).  A series fails on a metric when a strict
majority of its judged points read "regressed" and none reads
"improved"; the mode exits 1 if and only if a series fails.  A point
that only one side ran is listed, not judged.  Each family prints its
count of points per verdict, and the quartiles of every point of a
failing series.  Each side's reports land in OUT_DIR/base and
OUT_DIR/change (RAW_OUT_DIR likewise).

The constants come from A/A campaigns: one stats build on both sides,
4-vCPU host, the five CI families at --min-time 0.05 (208 points, 72 of
them with a judged p99, in 52 series; a campaign takes about 5 min).
In each of five campaigns at PAIRS = 5, between 1 and 7 items/s points
and between 4 and 7 p99 points read "regressed", so a per-point gate
would have failed all five; no series failed.  One-point series failed
two of six campaigns when BM_HeavyBarrier/N were four series, hence the
grouping by function.  A scratch copy whose TTASLock acquires 1.5 times
per lock() (20-38% slower per point) failed BM_TTASLock.  PAIRS = 5
roughly doubles the CI job's time.

Report schema (``schema_version`` 1); series and points are sorted so
reports diff cleanly under plain ``diff``.  A report keeps, per point,
the run whose items/s is the median of its runs:

    {
      "schema_version": 1,
      "family": "locks",
      "context": { ... benchmark library context, trimmed ... },
      "series": [
        { "name": "BM_TASLock",
          "points": [
            { "threads": 4,
              "items_per_sec": 1.9e8,
              "real_time_ns": 21.2,
              "counters": { "tamp.spin.acquires": 1.1e7, ... } },
            ...
          ] },
        ...
      ]
    }

raw_<family>.json holds the list of the side's google-benchmark outputs,
one per run, in run order.
"""

import argparse
import collections
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

SCHEMA_VERSION = 1

# NOTE: the benchmark library in this toolchain (1.7.x) takes a bare
# double for --benchmark_min_time, not a "0.2s" duration string.
DEFAULT_MIN_TIME = 0.2

PAIRS = 5
BOUND = 0.24

VERDICTS = ("unchanged", "unresolved", "improved", "regressed")

_THREADS_RE = re.compile(r"/threads:(\d+)$")


def fail(msg):
    print(f"bench_report: error: {msg}", file=sys.stderr)
    sys.exit(2)


def load_compare():
    """benchmark/compare.py, imported by path (benchmark/ is no package)."""
    path = Path(__file__).resolve().parent.parent / "benchmark" / "compare.py"
    spec = importlib.util.spec_from_file_location("compare", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def split_name(raw_name):
    """'BM_X/8/real_time/threads:4' -> ('BM_X/8', 4)."""
    threads = 1
    m = _THREADS_RE.search(raw_name)
    if m:
        threads = int(m.group(1))
        raw_name = raw_name[: m.start()]
    parts = [p for p in raw_name.split("/") if p != "real_time"]
    return "/".join(parts), threads


def run_family(family, build_dir, min_time, bench_filter):
    binary = os.path.join(build_dir, "bench", f"bench_{family}")
    if not os.path.exists(binary):
        fail(
            f"{binary} not found — build it first "
            f"(cmake --preset stats && cmake --build --preset stats)"
        )
    cmd = [
        binary,
        f"--benchmark_min_time={min_time}",
        "--benchmark_format=json",
    ]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    print(f"bench_report: running {' '.join(cmd)}", file=sys.stderr)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"{binary} exited with status {proc.returncode}")
    try:
        raw = json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        fail(f"benchmark output is not valid JSON: {e}")
    if not isinstance(raw, dict):
        fail(f"benchmark output: top level is {type(raw).__name__}, "
             f"expected an object")
    return raw


def points(raw):
    """{(series, threads): point} of one run's google-benchmark output."""
    out = {}
    for entry in raw.get("benchmarks", []):
        if not isinstance(entry, dict) or not isinstance(
                entry.get("name"), str):
            fail("benchmark output: 'benchmarks' entry without a string "
                 "'name' (truncated run?)")
        name, threads = split_name(entry["name"])
        out[(name, threads)] = {
            "threads": threads,
            "items_per_sec": entry.get("items_per_second"),
            "real_time_ns": entry.get("real_time")
            if entry.get("time_unit") == "ns"
            else None,
            "counters": {
                k: v
                for k, v in entry.items()
                if k.startswith("tamp.") and isinstance(v, (int, float))
            },
        }
    return out


def by_point(raws):
    """{(series, threads): [point of each run that has it]}."""
    runs = {}
    for raw in raws:
        for key, p in points(raw).items():
            runs.setdefault(key, []).append(p)
    return runs


def median_rep(runs):
    """Of one point's runs, keep the whole row whose items/sec is the
    median — percentiles and counters stay internally consistent (they
    describe one actual run, not a mix)."""
    ranked = sorted(runs, key=lambda p: p["items_per_sec"] or 0.0)
    return ranked[len(ranked) // 2]


def build_report(family, raws):
    series = {}
    for (name, _), runs in by_point(raws).items():
        series.setdefault(name, []).append(median_rep(runs))
    ctx = raws[0].get("context", {})
    context = {
        k: ctx.get(k)
        for k in ("date", "host_name", "num_cpus", "mhz_per_cpu",
                  "library_build_type")
        if k in ctx
    }
    context["stats_compiled_in"] = any(
        p["counters"] for pts in series.values() for p in pts
    )
    return {
        "schema_version": SCHEMA_VERSION,
        "family": family,
        "context": context,
        "series": [
            {"name": name, "points": sorted(pts, key=lambda p: p["threads"])}
            for name, pts in sorted(series.items())
        ],
    }


def write_json(path, doc):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def write_reports(family, raws, out_dir, raw_out_dir):
    if raw_out_dir:
        raw_out = os.path.join(raw_out_dir, f"raw_{family}.json")
        write_json(raw_out, raws)
        print(f"bench_report: wrote raw output {raw_out}")
    report = build_report(family, raws)
    out = os.path.join(out_dir, f"BENCH_{family}.json")
    write_json(out, report)
    npts = sum(len(s["points"]) for s in report["series"])
    print(
        f"bench_report: wrote {out} "
        f"({len(report['series'])} series, {npts} points, "
        f"stats_compiled_in={report['context']['stats_compiled_in']})"
    )


def p99(point):
    c = point["counters"]
    return c.get("tamp.p99") if c.get("tamp.lat_primary") else None


# (metric, better, value of a point or None where it is not judged)
METRICS = (
    ("items/s", "higher", lambda p: p["items_per_sec"]),
    ("p99", "lower", p99),
)


def judge(family, base_raws, change_raws, compare):
    """Print the family's verdict table; return True if a series fails."""
    base, change = by_point(base_raws), by_point(change_raws)
    counts = {m: collections.Counter() for m, _, _ in METRICS}
    judged = {}  # (function, metric) -> [(point, verdict, base, change)]
    for key in sorted(set(base) & set(change)):
        for metric, better, value in METRICS:
            b = [value(p) for p in base[key]]
            c = [value(p) for p in change[key]]
            if None in b or None in c:
                continue
            v, _ = compare.verdict(b, c, better, BOUND)
            counts[metric][v] += 1
            function = key[0].split("/")[0]
            judged.setdefault((function, metric), []).append((key, v, b, c))

    print(f"{'[' + family + ']':18s}" + "".join(f"{v:>11s}" for v in VERDICTS))
    for metric, _, _ in METRICS:
        print(f"  {metric:16s}" +
              "".join(f"{counts[metric][v]:11d}" for v in VERDICTS))
    for key in sorted(set(base) ^ set(change)):
        side = "base" if key in base else "change"
        print(f"  {key[0]}/threads:{key[1]}: {side} only, not judged")
    failing = [
        (f, m) for (f, m), pts in sorted(judged.items())
        if 2 * sum(v == "regressed" for _, v, _, _ in pts) > len(pts)
        and not any(v == "improved" for _, v, _, _ in pts)
    ]
    fmt = lambda vals: "/".join(f"{x:.4g}" for x in compare.quartiles(vals))
    for function, metric in failing:
        pts = judged[(function, metric)]
        nreg = sum(v == "regressed" for _, v, _, _ in pts)
        print(f"  FAIL {function} {metric}: {nreg} of {len(pts)} points "
              f"regressed (base vs change, q1/median/q3)")
        for (series, threads), v, b, c in pts:
            print(f"    {series + '/threads:' + str(threads):28s} "
                  f"{fmt(b):>26s}  {fmt(c):>26s}  {v}")
    return bool(failing)


def paired(args, families):
    compare = load_compare()
    dirs = {"base": args.paired, "change": args.build_dir}
    failing = False
    for family in families:
        raws = {"base": [], "change": []}
        for i in range(PAIRS):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                raws[side].append(run_family(family, dirs[side],
                                             args.min_time, args.filter))
        for side, side_raws in raws.items():
            write_reports(family, side_raws, os.path.join(args.out_dir, side),
                          args.raw_out_dir
                          and os.path.join(args.raw_out_dir, side))
        failing |= judge(family, raws["base"], raws["change"], compare)
    if failing:
        print("bench_report: FAIL — a series regressed against the base",
              file=sys.stderr)
    return 1 if failing else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--families", required=True,
        help="comma/space-separated family list (bench_<family>)",
    )
    ap.add_argument("--build-dir", default="build-stats")
    ap.add_argument(
        "--out-dir", default=".",
        help="directory for the BENCH_<family>.json reports",
    )
    ap.add_argument(
        "--raw-out-dir",
        help="also write raw_<family>.json (the google-benchmark "
             "outputs) here",
    )
    ap.add_argument(
        "--min-time", type=float, default=DEFAULT_MIN_TIME,
        help="per-benchmark min time, seconds (bare double)",
    )
    ap.add_argument("--filter", help="forwarded as --benchmark_filter")
    ap.add_argument(
        "--paired", metavar="BASE_BUILD_DIR",
        help=f"judge --build-dir against this build: {PAIRS} alternating "
             f"pairs of runs per family; exit 1 if a series regressed",
    )
    args = ap.parse_args()

    families = [f for f in re.split(r"[,\s]+", args.families) if f]
    if not families:
        fail("--families: no family names given")
    if args.paired:
        sys.exit(paired(args, families))
    for family in families:
        raw = run_family(family, args.build_dir, args.min_time, args.filter)
        write_reports(family, [raw], args.out_dir, args.raw_out_dir)


if __name__ == "__main__":
    main()
