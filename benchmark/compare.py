#!/usr/bin/env python3
"""Paired parent/change comparison of benchmark runs.

    python3 benchmark/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files (`run.py --out FILE`) of one side,
taken alternately with the other side's: the i-th file of each side, in
name order, form a pair.  For every workload both sides ran and every
end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles, the fraction of pairs the change wins, and a verdict:

  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  improved    the change wins at least 9 in 10 pairs and its median beats
              the parent's by more than the parent's interquartile range;
  unresolved  either side's spread (IQR / median) is wider than the bound,
              and not every change run beats every parent run;
  unchanged   otherwise.

Exits 1 on a regression in a workload BENCHMARK.json gates, or when the
change fails more operations per attempt than the parent on any
workload.  Verdicts on the other workloads (update-uniform-4m and the
pipelines) are printed marked "not gated": they drift past any allowed
bound on a shared host, even between runs of one commit.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{workload: [result, ...]} in file-name order."""
    runs = {}
    for f in sorted(Path(directory).glob("*.json")):
        for w, r in json.loads(f.read_text())["results"].items():
            runs.setdefault(w, []).append(r)
    return runs


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs) / len(pairs)
    if sign * (pm - cm) > bound * abs(pm):
        return "regressed", wins
    if wins >= 0.9 and sign * (cm - pm) > p3 - p1:
        return "improved", wins
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    every_run_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if spread > bound and not every_run_better:
        return "unresolved", wins
    return "unchanged", wins


def error_rate(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / max(1, attempted)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    gated = {w["name"] for w in spec["workloads"]}
    failing = False
    print(f"{'workload':18s} {'metric':17s} {'parent q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'wins':>5s}  verdict")
    for w in [x for x in parent if x in change]:
        for m in spec["end_to_end"]:
            pv = [r["metrics"][m["name"]]["value"] for r in parent[w]
                  if m["name"] in r["metrics"]]
            cv = [r["metrics"][m["name"]]["value"] for r in change[w]
                  if m["name"] in r["metrics"]]
            if not pv or not cv:
                continue
            v, wins = verdict(pv, cv, m["better"], m["bound"])
            failing |= v == "regressed" and w in gated
            if w not in gated:
                v += " (not gated)"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
            print(f"{w:18s} {m['name']:17s} {fmt(quartiles(pv)):>30s} "
                  f"{fmt(quartiles(cv)):>30s} {wins:5.2f}  {v}")
        pe, ce = error_rate(parent[w]), error_rate(change[w])
        if ce > pe:
            print(f"{w:18s} error_rate rose from {pe:.3g} to {ce:.3g}")
            failing = True
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
