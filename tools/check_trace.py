#!/usr/bin/env python3
"""Validate graphite observability artifacts.

Checks that a Chrome trace_event JSON file is loadable and structurally
sound (the same constraints chrome://tracing and Perfetto impose), and
that an interval metrics CSV has the expected fixed columns plus numeric
data rows.

Usage:
    check_trace.py --trace trace.json [--metrics metrics.csv]
    check_trace.py --spans spans.jsonl
    check_trace.py --accuracy accuracy.jsonl
    check_trace.py --replay trace.json
    check_trace.py --run-cli PATH_TO_GRAPHITE_CLI

Flow events ('s'/'t'/'f', the span engine's Perfetto arrows) are
validated for well-formedness: every flow event carries an id and the
"span" category, every flow id has exactly one start and one finish
(finish at or after the start, binding enclosing with bp="e"), and
steps stay within [start, finish]. Dangling flow ids are fatal only
when the trace dropped no events; a lane ring that wrapped may
legitimately have lost one side of a pair.

The --spans mode validates a spans.jsonl dump written via --spans-out:
every record parses, carries the expected schema, and satisfies the
exact-accounting invariant (stage durations sum to the span total);
the summary row's stage_cycles must likewise sum to total_cycles.

The --replay mode validates a failure-replay trace written by the fuzz
harness: the structural checks above, plus per-thread non-overlap of
wait-class scopes (a thread cannot be in two blocking waits at once)
and the otherData recorded/dropped event accounting.

The --accuracy mode validates the accuracy observatory's JSONL report
(written via --accuracy-jsonl or accuracy/out): one summary line, one
line per violation point with known names, violation counts bounded by
delivery counts, and in-range pair-skew rows.

The --run-cli mode drives the full acceptance path: it runs a small
workload with tracing, metrics, and spans enabled in a temp directory,
validates all three artifacts (including span flow arrows in the
trace), then re-runs with observability disabled and asserts no
artifact files appear.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

# The phases TraceSink writes (src/obs/trace_event.cpp): complete
# scopes, instants, lane-name metadata and span flow arrows. Anything
# else is a stray event no sink should emit.
VALID_PHASES = {"X", "i", "M", "s", "t", "f"}
FLOW_PHASES = {"s", "t", "f"}
SPAN_KINDS = {"read_miss", "write_miss", "upgrade", "atomic",
              "writeback", "evict", "app_msg"}
SPAN_STAGES = {"local_check", "req_hop", "req_queue", "req_ser",
               "directory", "invalidation", "recall", "dram_queue",
               "dram_service", "reply_hop", "reply_queue", "reply_ser"}
# X scopes during which the emitting thread is blocked; two instances
# can never overlap on one lane. (Other X scopes, e.g. net.send, model
# in-flight latency and may legitimately overlap.)
WAIT_SCOPES = {"sys.wait", "msg.wait", "sync.barrier"}
FIXED_METRICS_COLUMNS = [
    "interval",
    "start_cycle",
    "end_cycle",
    "wall_seconds",
    "host_wall_ms",
    "host_rss_kb",
    "skew_max_cycles",
    "skew_min_cycles",
    "causality_violations",
]
VIOLATION_POINTS = {"net_app", "net_system", "net_memory",
                    "mem_request", "mem_invalidation", "mem_recall",
                    "mem_reply", "mem_writeback"}


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_trace(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not loadable JSON: {e}")

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail(f"{path}: missing traceEvents object wrapper")
    events = doc["traceEvents"]
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents must be a non-empty list")

    for i, ev in enumerate(events):
        where = f"{path}: event {i}"
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                fail(f"{where}: missing '{key}'")
        if ev["ph"] not in VALID_PHASES:
            fail(f"{where}: unknown phase {ev['ph']!r}")
        if ev["ph"] == "M":
            continue  # metadata events carry no timestamp
        if "ts" not in ev:
            fail(f"{where}: missing 'ts'")
        if not isinstance(ev["ts"], (int, float)) or ev["ts"] < 0:
            fail(f"{where}: bad ts {ev['ts']!r}")
        if ev["ph"] == "X":
            if "dur" not in ev or ev["dur"] < 0:
                fail(f"{where}: complete event needs non-negative dur")
        if ev["ph"] in FLOW_PHASES:
            if "id" not in ev or not isinstance(ev["id"], int):
                fail(f"{where}: flow event needs an integer id")
            if ev.get("cat") != "span":
                fail(f"{where}: flow event needs cat 'span'")
            if ev["ph"] == "f" and ev.get("bp") != "e":
                fail(f"{where}: flow finish needs bp 'e'")

    check_flows(path, doc)

    counts = {}
    for ev in events:
        counts[ev["ph"]] = counts.get(ev["ph"], 0) + 1
    print(f"check_trace: {path}: {len(events)} events OK {counts}")
    return doc


def check_flows(path, doc):
    """Flow pairing: one 's' and one 'f' per id, steps in between."""
    events = doc["traceEvents"]
    flows = {}
    for i, ev in enumerate(events):
        if ev["ph"] in FLOW_PHASES:
            flows.setdefault(ev["id"], []).append((ev["ph"], ev["ts"], i))
    if not flows:
        return
    dropped = doc.get("otherData", {}).get("droppedEvents", 0)
    dangling = 0
    for fid, evs in flows.items():
        starts = [e for e in evs if e[0] == "s"]
        finishes = [e for e in evs if e[0] == "f"]
        if len(starts) > 1 or len(finishes) > 1:
            fail(f"{path}: flow id {fid}: duplicate start/finish")
        if not starts or not finishes:
            dangling += 1
            continue
        s_ts, f_ts = starts[0][1], finishes[0][1]
        if f_ts < s_ts:
            fail(f"{path}: flow id {fid}: finish ts {f_ts} before "
                 f"start ts {s_ts}")
        for ph, ts, i in evs:
            if ph == "t" and not (s_ts <= ts <= f_ts):
                fail(f"{path}: flow id {fid}: step ts {ts} outside "
                     f"[{s_ts}, {f_ts}]")
    if dangling and not dropped:
        fail(f"{path}: {dangling} dangling flow ids with no dropped "
             f"events to explain them")
    print(f"check_trace: {path}: {len(flows)} flow ids OK "
          f"({dangling} unpaired, {dropped} events dropped)")


def check_replay(path):
    """Failure-replay traces: nesting + event accounting."""
    doc = check_trace(path)
    events = doc["traceEvents"]

    # A thread is blocked for the whole span of a wait-class scope, so
    # per (tid, name) the spans must be disjoint.
    spans = {}
    for ev in events:
        if ev["ph"] == "X" and ev["name"] in WAIT_SCOPES:
            spans.setdefault((ev["tid"], ev["name"]), []).append(
                (ev["ts"], ev["ts"] + ev["dur"]))
    overlaps = 0
    for (tid, name), ivs in spans.items():
        ivs.sort()
        for (s0, e0), (s1, _) in zip(ivs, ivs[1:]):
            if s1 < e0:
                overlaps += 1
                print(f"check_trace: {path}: tid {tid} '{name}' "
                      f"[{s1},...) overlaps [{s0},{e0})",
                      file=sys.stderr)
    if overlaps:
        fail(f"{path}: {overlaps} overlapping wait scopes")

    other = doc.get("otherData")
    if not isinstance(other, dict):
        fail(f"{path}: missing otherData")
    for key in ("recordedEvents", "droppedEvents"):
        if not isinstance(other.get(key), int) or other[key] < 0:
            fail(f"{path}: otherData.{key} missing or negative")
    emitted = sum(1 for ev in events if ev["ph"] != "M")
    if other["recordedEvents"] != emitted:
        fail(f"{path}: otherData.recordedEvents {other['recordedEvents']}"
             f" != {emitted} non-metadata events in file")
    n_waits = sum(len(v) for v in spans.values())
    print(f"check_trace: {path}: replay OK ({n_waits} wait scopes "
          f"disjoint, {other['recordedEvents']} recorded, "
          f"{other['droppedEvents']} dropped)")


def check_metrics(path, require_columns=()):
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = [ln for ln in f.read().splitlines() if ln]
    except OSError as e:
        fail(f"{path}: unreadable: {e}")
    if len(lines) < 2:
        fail(f"{path}: need a header and at least one data row")

    header = lines[0].split(",")
    if header[: len(FIXED_METRICS_COLUMNS)] != FIXED_METRICS_COLUMNS:
        fail(f"{path}: fixed lead columns wrong: "
             f"{header[:len(FIXED_METRICS_COLUMNS)]}")
    for col in require_columns:
        if col not in header:
            fail(f"{path}: required column '{col}' missing")

    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(header):
            fail(f"{path}: row {i}: {len(cells)} cells vs "
                 f"{len(header)} columns")
        try:
            [float(c) for c in cells]
        except ValueError:
            fail(f"{path}: row {i}: non-numeric cell")
        if int(cells[0]) != i - 1:
            fail(f"{path}: row {i}: interval index out of order")

    print(f"check_trace: {path}: {len(lines) - 1} metric rows x "
          f"{len(header)} columns OK")


def check_spans(path):
    """spans.jsonl: schema + exact accounting per span and in summary."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = [ln for ln in f.read().splitlines() if ln]
    except OSError as e:
        fail(f"{path}: unreadable: {e}. Generate one with "
             "graphite_cli --spans-out PATH.")
    if not lines:
        fail(f"{path}: empty spans file — the run wrote no spans. "
             "Was --spans-out set and did the run finish?")

    n_spans = 0
    summary = None
    for i, line in enumerate(lines):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{path}: line {i}: not JSON: {e}")
        kind = rec.get("type")
        if kind == "span":
            n_spans += 1
            for key in ("set", "trace", "span", "parent", "kind",
                        "requester", "home", "distance", "start", "end",
                        "total", "skew", "folded", "stages"):
                if key not in rec:
                    fail(f"{path}: line {i}: span missing '{key}'")
            if rec["kind"] not in SPAN_KINDS:
                fail(f"{path}: line {i}: unknown kind {rec['kind']!r}")
            if rec["span"] == 0:
                fail(f"{path}: line {i}: span id 0")
            if rec["total"] != rec["end"] - rec["start"]:
                fail(f"{path}: line {i}: total != end - start")
            stage_sum = 0
            for st in rec["stages"]:
                if st["stage"] not in SPAN_STAGES:
                    fail(f"{path}: line {i}: unknown stage "
                         f"{st['stage']!r}")
                if st["dur"] < 0 or st["begin"] < rec["start"]:
                    fail(f"{path}: line {i}: bad stage mark {st}")
                stage_sum += st["dur"]
            if stage_sum != rec["total"]:
                fail(f"{path}: line {i}: stage sum {stage_sum} != "
                     f"total {rec['total']} (exact accounting broken)")
        elif kind == "interval":
            if sum(rec["stage_cycles"].values()) != rec["total_cycles"]:
                fail(f"{path}: line {i}: interval stage_cycles do not "
                     f"sum to total_cycles")
        elif kind == "summary":
            if summary is not None:
                fail(f"{path}: line {i}: duplicate summary row")
            summary = rec
            if sum(rec["stage_cycles"].values()) != rec["total_cycles"]:
                fail(f"{path}: line {i}: summary stage_cycles do not "
                     f"sum to total_cycles")
            kind_cycles = sum(v["cycles"] for v in rec["kinds"].values())
            if kind_cycles != rec["total_cycles"]:
                fail(f"{path}: line {i}: per-kind cycles {kind_cycles} "
                     f"!= total_cycles {rec['total_cycles']}")
        else:
            fail(f"{path}: line {i}: unknown record type {kind!r}")
    if summary is None:
        fail(f"{path}: no summary row")
    if summary["sampled"] and not n_spans:
        fail(f"{path}: summary claims samples but file has none")
    print(f"check_trace: {path}: {n_spans} span records OK "
          f"({summary['completed']} completed, bottleneck "
          f"{summary['bottleneck']})")
    return summary


def check_accuracy(path):
    """accuracy.jsonl: summary + per-point + pair-skew schema checks."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = [ln for ln in f.read().splitlines() if ln]
    except OSError as e:
        fail(f"{path}: unreadable: {e}. Generate one with "
             "graphite_cli --accuracy-jsonl PATH.")
    if not lines:
        fail(f"{path}: empty accuracy report")

    summary = None
    points = {}
    n_pairs = 0
    for i, line in enumerate(lines):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{path}: line {i}: not JSON: {e}")
        kind = rec.get("type")
        if kind == "accuracy_summary":
            if i != 0 or summary is not None:
                fail(f"{path}: line {i}: summary must be the first and "
                     f"only summary line")
            summary = rec
            for key in ("tiles", "deliveries", "violations",
                        "violation_fraction", "worst_magnitude_cycles",
                        "pair_skew_max_cycles", "pair_skew_mean_cycles",
                        "pair_samples"):
                if key not in rec:
                    fail(f"{path}: line {i}: summary missing '{key}'")
            if rec["violations"] > rec["deliveries"]:
                fail(f"{path}: line {i}: violations "
                     f"{rec['violations']} > deliveries "
                     f"{rec['deliveries']}")
        elif kind == "accuracy_point":
            for key in ("point", "deliveries", "violations",
                        "magnitude_p50", "magnitude_p95",
                        "magnitude_max"):
                if key not in rec:
                    fail(f"{path}: line {i}: point missing '{key}'")
            if rec["point"] not in VIOLATION_POINTS:
                fail(f"{path}: line {i}: unknown violation point "
                     f"{rec['point']!r}")
            if rec["point"] in points:
                fail(f"{path}: line {i}: duplicate point "
                     f"{rec['point']!r}")
            if rec["violations"] > rec["deliveries"]:
                fail(f"{path}: line {i}: point violations exceed "
                     f"deliveries")
            points[rec["point"]] = rec
        elif kind == "accuracy_pair":
            n_pairs += 1
            for key in ("src", "dst", "max_skew_cycles",
                        "mean_skew_cycles", "samples"):
                if key not in rec:
                    fail(f"{path}: line {i}: pair missing '{key}'")
            if summary is not None:
                n = summary["tiles"]
                if not (0 <= rec["src"] < n and 0 <= rec["dst"] < n):
                    fail(f"{path}: line {i}: pair ({rec['src']},"
                         f"{rec['dst']}) outside {n} tiles")
            if rec["samples"] <= 0:
                fail(f"{path}: line {i}: pair row with no samples")
            if rec["mean_skew_cycles"] > rec["max_skew_cycles"]:
                fail(f"{path}: line {i}: pair mean skew above max")
        else:
            fail(f"{path}: line {i}: unknown record type {kind!r}")
    if summary is None:
        fail(f"{path}: no accuracy_summary row")
    if set(points) != VIOLATION_POINTS:
        fail(f"{path}: points missing: "
             f"{sorted(VIOLATION_POINTS - set(points))}")
    point_v = sum(p["violations"] for p in points.values())
    if point_v != summary["violations"]:
        fail(f"{path}: per-point violations {point_v} != summary "
             f"{summary['violations']}")
    print(f"check_trace: {path}: accuracy report OK "
          f"({summary['violations']} violations / "
          f"{summary['deliveries']} deliveries, {n_pairs} pair rows)")
    return summary


def run_cli_mode(cli):
    workload = ["--workload", "fft", "--tiles", "8", "--threads", "8",
                "--size", "256"]
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "trace.json")
        metrics = os.path.join(tmp, "metrics.csv")
        spans = os.path.join(tmp, "spans.jsonl")
        accuracy = os.path.join(tmp, "accuracy.jsonl")
        cmd = [cli] + workload + [
            "--trace-out", trace,
            "--metrics-out", metrics,
            "--metrics-interval", "10000",
            "--spans-out", spans,
            "--accuracy-jsonl", accuracy,
        ]
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=300)
        if r.returncode != 0:
            fail(f"cli exited {r.returncode}:\n{r.stdout}\n{r.stderr}")
        doc = check_trace(trace)
        if not any(ev["ph"] == "s" for ev in doc["traceEvents"]):
            fail(f"{trace}: spans enabled but no flow events emitted")
        check_metrics(metrics, require_columns=[
            "mem.l2_misses_total", "tile.0.l2.misses", "sim.cycles_max",
            "mem.shard_lock.acquisitions", "mem.shard_lock.contended",
            "mem.shard_lock.wait_ns", "transport.queue_depth",
            "net.inflight_packets", "span.completed",
        ])
        summary = check_spans(spans)
        if summary["completed"] == 0:
            fail(f"{spans}: fft run completed no spans")
        acc = check_accuracy(accuracy)
        if acc["deliveries"] == 0:
            fail(f"{accuracy}: fft run checked no deliveries")

    # Disabled mode must create no artifact files.
    with tempfile.TemporaryDirectory() as tmp:
        r = subprocess.run([cli] + workload, capture_output=True,
                           text=True, timeout=300, cwd=tmp)
        if r.returncode != 0:
            fail(f"cli (disabled obs) exited {r.returncode}:"
                 f"\n{r.stdout}\n{r.stderr}")
        leftovers = os.listdir(tmp)
        if leftovers:
            fail(f"disabled run created files: {leftovers}")
    print("check_trace: disabled mode creates no artifacts OK")
    print("check_trace: PASS")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trace", help="trace JSON to validate")
    ap.add_argument("--replay",
                    help="failure-replay trace JSON to validate")
    ap.add_argument("--metrics", help="metrics CSV to validate")
    ap.add_argument("--spans", help="spans.jsonl to validate")
    ap.add_argument("--accuracy", help="accuracy.jsonl to validate")
    ap.add_argument("--run-cli", metavar="PATH",
                    help="run graphite_cli end-to-end and validate")
    args = ap.parse_args()

    if args.run_cli:
        run_cli_mode(args.run_cli)
        return
    if (not args.trace and not args.metrics and not args.replay
            and not args.spans and not args.accuracy):
        ap.error("nothing to do: pass --trace, --replay, --metrics, "
                 "--spans, --accuracy, or --run-cli")
    if args.trace:
        check_trace(args.trace)
    if args.replay:
        check_replay(args.replay)
    if args.metrics:
        check_metrics(args.metrics)
    if args.spans:
        check_spans(args.spans)
    if args.accuracy:
        check_accuracy(args.accuracy)
    print("check_trace: PASS")


if __name__ == "__main__":
    main()
