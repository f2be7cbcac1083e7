#!/usr/bin/env python3
"""Aggregate BENCH_*.json outputs into one trajectory table.

Every bench/micro_* harness that measures an overhead or invariant
emits a BENCH_<name>.json with a self-describing pass criterion:

    {"benchmark": ..., "workload": ..., "runs": [...],
     "slowdown_armed": 1.04,
     "criterion": "slowdown_armed <= 1.15 && ...",
     "criterion_met": true}

This tool collects every such file under a directory (default: the
build tree), prints one row per benchmark — workload, size, headline
slowdown, the stated criterion, pass/fail — and exits nonzero if any
benchmark failed its own criterion. It evaluates nothing itself: the
harness that ran the measurement owns the verdict; this is the
roll-up that makes a regression visible in one table.

Usage:
    bench_report.py [--dir build] [--require NAME ...]

--require fails the report when a named benchmark's JSON is absent
(e.g. CI demanding that the accuracy overhead bench actually ran).
"""

import argparse
import glob
import json
import os
import sys


def fail(msg):
    print(f"bench_report: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not loadable JSON: {e}")
    for key in ("benchmark", "criterion", "criterion_met"):
        if key not in doc:
            fail(f"{path}: missing '{key}'")
    return doc


def render_table(rows):
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    out = []
    for n, r in enumerate(rows):
        out.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
        if n == 0:
            out.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "\n".join(out) + "\n"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dir", default="build",
                    help="directory scanned for BENCH_*.json")
    ap.add_argument("--require", nargs="*", default=[],
                    help="benchmark names that must be present")
    args = ap.parse_args()

    paths = sorted(glob.glob(os.path.join(args.dir, "BENCH_*.json")))
    if not paths:
        fail(f"no BENCH_*.json under '{args.dir}' — run the bench "
             f"binaries first (e.g. build/bench/micro_observer_overhead)")

    docs = [load(p) for p in paths]
    names = {d["benchmark"] for d in docs}
    missing = [r for r in args.require if r not in names]
    if missing:
        fail(f"required benchmarks missing: {missing} "
             f"(found: {sorted(names)})")

    rows = [["benchmark", "workload", "size", "slowdown",
             "criterion", "result"]]
    failures = 0
    for doc in docs:
        slowdown = doc.get("slowdown_armed")
        met = bool(doc["criterion_met"])
        failures += 0 if met else 1
        rows.append([
            doc["benchmark"],
            str(doc.get("workload", "-")),
            str(doc.get("size", "-")),
            f"{slowdown:.3f}x" if isinstance(slowdown, (int, float))
            else "-",
            doc["criterion"],
            "pass" if met else "FAIL",
        ])
    print(render_table(rows))

    if failures:
        fail(f"{failures} of {len(docs)} benchmarks failed their "
             f"stated criterion")
    print(f"bench_report: PASS ({len(docs)} benchmarks met their "
          f"criteria)")


if __name__ == "__main__":
    main()
