#!/usr/bin/env python3
"""Render the liveness-classification table from sim_progress_test.

The `sim` preset's sim_progress_test sweeps the migrated catalog through
tamp::sim::classify_progress() (fair-demonic, crash-stop, and solo-run
probes) and, when TAMP_PROGRESS_JSON is set, writes the machine-readable
verdict table.  The test itself is the gate: it fails on any row error,
on any verdict that disagrees with the book, and on fewer than 10
matches.  This tool renders the table for humans:

    TAMP_PROGRESS_JSON=progress.json ./build-sim/tests/sim_progress_test
    python3 tools/progress_report.py progress.json            # table
    python3 tools/progress_report.py progress.json --markdown # EXPERIMENTS.md

Malformed or truncated JSON dies with a one-line diagnostic and exit
status 2, never a traceback.

The verdicts are *sampled*: each property rests on the probe schedules the
bounded exploration actually drove, so "wait_free" here means "no sampled
operation exceeded its step bound under a demon that hates it" — see the
caveats in sim_progress_test.cpp and EXPERIMENTS.md before quoting them.
"""

import argparse
import json
import sys

BOOL_PROPS = ("starvation_free", "deadlock_free", "global_progress",
              "solo_terminates")


def fail(msg):
    print(f"progress_report: error: {msg}", file=sys.stderr)
    sys.exit(2)


def load_structures(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}")
    if not isinstance(data, dict) or not isinstance(
            data.get("structures"), list):
        fail(f"{path}: expected an object with a 'structures' list")
    rows = data["structures"]
    for i, r in enumerate(rows):
        if not isinstance(r, dict):
            fail(f"{path}: structures[{i}] is not an object")
        for key in ("name", "book", "expected", "verdict", "error"):
            if not isinstance(r.get(key), str):
                fail(f"{path}: structures[{i}] missing string '{key}'")
        for key in BOOL_PROPS:
            if not isinstance(r.get(key), bool):
                fail(f"{path}: structures[{i}] missing boolean '{key}'")
        if not isinstance(r.get("completed_ops"), int):
            fail(f"{path}: structures[{i}] missing integer "
                 f"'completed_ops'")
    if not rows:
        fail(f"{path}: empty structures list (truncated run?)")
    return rows


def props_cell(row):
    marks = []
    for key, short in zip(BOOL_PROPS, ("SF", "DF", "GP", "ST")):
        marks.append(short if row[key] else "--")
    return " ".join(marks)


def print_table(rows):
    name_w = max(len("structure"), *(len(r["name"]) for r in rows))
    book_w = max(len("book"), *(len(r["book"]) for r in rows))
    verdict_w = max(len("verdict"), *(len(r["verdict"]) for r in rows))
    header = (f"{'structure':<{name_w}}  {'book':<{book_w}}  "
              f"{'verdict':<{verdict_w}}  {'SF DF GP ST':<11}  ops  note")
    print(header)
    print("-" * len(header))
    agree = 0
    for r in rows:
        ok = r["verdict"] == r["expected"] and not r["error"]
        agree += ok
        note = r["error"] or ("" if ok else
                              f"expected {r['expected']}")
        print(f"{r['name']:<{name_w}}  {r['book']:<{book_w}}  "
              f"{r['verdict']:<{verdict_w}}  {props_cell(r):<11}  "
              f"{r['completed_ops']:>5}  {note}".rstrip())
    print(f"\n{agree}/{len(rows)} verdicts agree with the book "
          f"(SF starvation-free, DF deadlock-free, GP global progress, "
          f"ST solo terminates; all sampled)")


def print_markdown(rows):
    print("| Structure | Book claim | Probed verdict | Agrees |")
    print("|---|---|---|---|")
    for r in rows:
        ok = r["verdict"] == r["expected"] and not r["error"]
        print(f"| `{r['name']}` | {r['book']} | {r['verdict']} "
              f"| {'yes' if ok else 'NO — ' + (r['error'] or r['expected'])} |")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("json", help="progress.json from sim_progress_test "
                                 "(TAMP_PROGRESS_JSON)")
    ap.add_argument("--markdown", action="store_true",
                    help="emit a markdown table instead of the text table")
    args = ap.parse_args()

    rows = load_structures(args.json)
    if args.markdown:
        print_markdown(rows)
    else:
        print_table(rows)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # | head et al.
        sys.exit(0)
