#!/usr/bin/env python3
"""Host cost of the Graphite simulator on three fixed 16-tile simulations.

    python3 perfbench/run.py [--workload fft-w4|blackscholes-w4|radix-det|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The program builds perfbench_sim from
perfbench/CMakeLists.txt into .bench_build/perfbench (the simulator is
compiled from src/ with the default build's settings), runs the
workload's kernel natively once, untimed, for its reference checksum, and
then runs simulations one at a time, each in its own process, until
--seconds have passed: a closed loop of one client. The seed is the
kernel's input seed.

A simulation counts as failed when its process exits non-zero (the
shutdown coherence validation failing and a missing simulator counter
are two causes), when its checksum differs from the native run's, or,
on a workload whose host scheduler is deterministic (radix-det), when its
simulated fingerprint differs from the first run's. The workload names,
each simulation's host slot count and whether its scheduler is
deterministic all come from perfbench_sim.

--trace 0 reports the end-to-end metrics, each the median over the run's
simulations. --trace 1 alternates untraced and traced simulations and
reports the per-layer metrics: simulator counters from the untraced
ones, host time per call into graphite::api from the traced ones (the
median and p99 of each call class, see timed_env.h), and
trace.overhead, the median traced run_s over the median untraced run_s.
Traces are written to .bench_build/perfbench/trace/<workload>/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. With --workload all every metric name is
prefixed with its workload. The line before it, "verdict: " and a JSON
object, gives for each workload the host slot width its simulations
used, the host's CPU count, "comparable" (false when the host has fewer
CPUs than slots: the figures then measure an oversubscribed host), and
"fingerprint_vs_reference": whether a deterministic workload's simulated
fingerprint "matches" or "differs" from the one perfbench/reference.json
holds for this seed, or "none" when it holds none (null on free-running
workloads, whose simulated statistics vary from run to run).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_sim")
REFERENCE = os.path.join(HERE, "reference.json")

# Every run must end within 180 s; keep a margin for the last simulation.
HARD_LIMIT_S = 160

FINGERPRINT_KEYS = [
    "checksum_bits", "sim.cycles", "sim.instructions", "mem.l1d_misses",
    "mem.l2_misses", "net.memory.packets", "net.system.packets",
    "net.app.packets", "span.completed", "accuracy.deliveries",
    "accuracy.violations",
]

E2E_UNITS = {
    "run_s": "s", "sim_mips": "MIPS", "cpu_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring perfbench_sim up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "simulator.h")):
        log("perfbench: simulator sources (src/) not found next to "
            "perfbench/")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_sim",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def call(args, timeout):
    """Run perfbench_sim; return (parsed JSON or None, error text)."""
    try:
        p = subprocess.run([BINARY] + args, capture_output=True, text=True,
                           timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, "timed out after %.0f s" % timeout
    lines = p.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if lines else None
    except ValueError:
        out = None
    if p.returncode != 0 or out is None or not out.get("ok"):
        err = (out or {}).get("error") or p.stderr.strip()[-300:]
        return None, "exit %d: %s" % (p.returncode, err)
    return out, ""


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def fingerprint(rec, artifacts):
    fp = {k: rec[k] for k in FINGERPRINT_KEYS}
    for name in ("spans.jsonl", "accuracy.jsonl"):
        path = os.path.join(artifacts, name)
        fp[name] = file_digest(path) if os.path.isfile(path) else None
    return fp


def recorded_fingerprint(workload, seed):
    try:
        with open(REFERENCE) as f:
            ref = json.load(f)
    except (OSError, ValueError):
        return None
    return ref.get("fingerprints", {}).get(workload, {}).get(str(seed))


def simulate(workload, seed, traced, index, deadline):
    """One simulation in its own process; returns (record, error)."""
    args = ["--mode", "traced" if traced else "plain",
            "--workload", workload, "--seed", str(seed)]
    artifacts = os.path.join(BUILD, "tmp", "%d-%d" % (os.getpid(), index))
    shutil.rmtree(artifacts, ignore_errors=True)
    os.makedirs(artifacts)
    args += ["--artifacts", artifacts]
    if traced:
        args += ["--trace-out", os.path.join(
            BUILD, "trace", workload, "seed%d-%d.json" % (seed, index))]
    rec, err = call(args, max(5.0, deadline - time.monotonic()))
    if rec is not None:
        rec["traced"] = traced
        rec["fingerprint"] = fingerprint(rec, artifacts)
    shutil.rmtree(artifacts, ignore_errors=True)
    return rec, err


def median(values):
    return statistics.median(values) if values else 0


def e2e_metrics(sims):
    return {
        "run_s": median([s["run_s"] for s in sims]),
        "sim_mips": median([s["sim.instructions"] / s["run_s"] / 1e6
                            for s in sims]),
        "cpu_s": median([s["cpu_s"] for s in sims]),
        "setup_s": median([s["setup_s"] for s in sims]),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in sims]),
    }


def layer_metrics(plain, traced):
    """Per-layer metrics: (value, unit) by name."""
    def count(key):
        return median([s[key] for s in plain])

    def ratio(num, den):
        return median([s[num] / s[den] if s[den] else 0 for s in plain])

    def calls(cls, field):
        return median([s["calls"][cls][field] for s in traced])

    def reads(field):
        return median([s["calls"]["read_hit"][field] +
                       s["calls"]["read_miss"][field] for s in traced])

    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    def timed(prefix, cls, scale=1.0, unit="ns"):
        put(prefix, calls(cls, "p50_ns") * scale, unit)
        put(prefix + "_p99", calls(cls, "p99_ns") * scale, unit)

    put("perf.exec_calls", calls("exec", "count"), "count")
    timed("perf.exec_ns", "exec")
    put("perf.instructions", count("sim.instructions"), "count")
    put("mem.read_calls", reads("count"), "count")
    timed("mem.read_hit_ns", "read_hit")
    put("mem.accesses", count("mem.accesses"), "count")
    put("mem.l1_hit_ratio",
        median([1 - s["mem.l1d_misses"] / s["mem.l1d_accesses"]
                for s in plain]), "ratio")
    timed("mem.read_miss_ns", "read_miss")
    put("mem.write_calls", calls("write", "count"), "count")
    timed("mem.write_ns", "write")
    put("mem.atomic_calls", calls("atomic", "count"), "count")
    timed("mem.atomic_ns", "atomic")
    put("mem.l1d_misses", count("mem.l1d_misses"), "count")
    put("mem.l2_misses", count("mem.l2_misses"), "count")
    put("mem.writebacks", count("mem.writebacks"), "count")
    put("mem.tile_lock.contended", count("mem.tile_lock.contended"),
        "count")
    put("mem.tile_lock.wait_s", count("mem.tile_lock.wait_ns") / 1e9, "s")
    put("mem.shard_lock.contended", count("mem.shard_lock.contended"),
        "count")
    put("mem.shard_lock.wait_s", count("mem.shard_lock.wait_ns") / 1e9,
        "s")
    put("mem.lock_uncontended_ratio", median([
        1 - (s["mem.tile_lock.contended"] + s["mem.shard_lock.contended"]) /
        max(1, s["mem.tile_lock.acquisitions"] +
            s["mem.shard_lock.acquisitions"]) for s in plain]), "ratio")
    put("network.memory_packets", count("net.memory.packets"), "count")
    put("network.memory_bytes", count("net.memory.bytes"), "bytes")
    put("network.system_packets", count("net.system.packets"), "count")
    put("network.packets_per_l2_miss",
        ratio("net.memory.packets", "mem.l2_misses"), "ratio")
    put("sync.events", count("sync.events"), "count")
    put("sync.wait_s", count("sync.wait_us") / 1e6, "s")
    put("core.barrier_calls", calls("barrier", "count"), "count")
    timed("core.barrier_s", "barrier", 1e-9, "s")
    timed("core.spawn_s", "spawn", 1e-9, "s")
    put("core.syscalls", count("syscalls.total"), "count")
    put("host.pool.quanta", count("host.pool.quanta"), "count")
    put("host.pool.yields", count("host.pool.yields"), "count")
    put("host.pool.skew_parks", count("host.pool.skew_parks"), "count")
    put("host.slot_util", median([
        s["cpu_s"] / (s["run_s"] * max(1, s["slots"])) for s in plain]),
        "ratio")
    put("host.ctx_switches", count("ctx_switches"), "count")
    put("obs.spans_completed", count("span.completed"), "count")
    put("obs.accuracy_deliveries", count("accuracy.deliveries"), "count")
    put("obs.artifact_bytes", count("obs.artifact_bytes"), "bytes")
    put("obs.recorder_events", count("telemetry.recorder.events"),
        "count")
    put("sim.cycles", count("sim.cycles"), "count")
    put("trace.overhead", median([s["run_s"] for s in traced]) /
        median([s["run_s"] for s in plain]), "ratio")
    return m


def run_workload(workload, seed, seconds, trace, nproc):
    """Measure one workload; returns (result object, verdict) or None."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    native, err = call(["--mode", "native", "--workload", workload,
                        "--seed", str(seed)], HARD_LIMIT_S)
    if native is None:
        log("perfbench: native reference run failed: " + err)
        return None
    if trace:
        tdir = os.path.join(BUILD, "trace", workload)
        shutil.rmtree(tdir, ignore_errors=True)
        os.makedirs(tdir)

    measure_from = time.monotonic()
    sims, failures, first_fp = [], [], None
    while True:
        index = len(sims) + len(failures)
        traced = bool(trace) and index % 2 == 1
        rec, err = simulate(workload, seed, traced, index, deadline)
        if rec is not None and rec["checksum_bits"] != native["checksum_bits"]:
            err = "checksum %r differs from native %r" % (
                rec["checksum"], native["checksum"])
            rec = None
        if rec is not None and rec["deterministic"]:
            if first_fp is None:
                first_fp = rec["fingerprint"]
            elif rec["fingerprint"] != first_fp:
                err = "simulated fingerprint differs from the first run"
                rec = None
        if rec is None:
            failures.append(err)
            log("perfbench: %s run %d failed: %s" % (workload, index, err))
        else:
            sims.append(rec)
        now = time.monotonic()
        kinds = {s["traced"] for s in sims}
        enough = False in kinds and (True in kinds or not trace)
        if now >= deadline or (now - measure_from >= seconds and
                               (enough or not sims)):
            break

    plain = [s for s in sims if not s["traced"]]
    tsims = [s for s in sims if s["traced"]]
    for i, s in enumerate(sims):
        print("%s sim %d %-6s run_s=%.4f cpu_s=%.3f setup_s=%.4f "
              "rss_mb=%.1f cycles=%d" % (
                  workload, i, "traced" if s["traced"] else "plain",
                  s["run_s"], s["cpu_s"], s["setup_s"], s["peak_rss_mb"],
                  s["sim.cycles"]))
    print("per-sim: " + json.dumps([
        {"traced": s["traced"], "run_s": s["run_s"], "cpu_s": s["cpu_s"],
         "setup_s": s["setup_s"], "peak_rss_mb": s["peak_rss_mb"],
         "sim_cycles": s["sim.cycles"], "slots": s["slots"]} for s in sims]))
    slots = max((s["slots"] for s in sims), default=0)
    verdict = {"slots": slots, "nproc": nproc, "comparable": nproc >= slots,
               "fingerprint_vs_reference": None}
    if first_fp is not None:
        rec_fp = recorded_fingerprint(workload, seed)
        verdict["fingerprint_vs_reference"] = (
            "none" if rec_fp is None else
            "matches" if rec_fp == first_fp else "differs")
        print("fingerprint: " + json.dumps(first_fp, sort_keys=True))
    if not plain or (trace and not tsims):
        return {"correct": False, "attempted": len(sims) + len(failures),
                "failed": len(failures), "metrics": {}}, verdict

    if trace:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in layer_metrics(plain, tsims).items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in e2e_metrics(plain).items()}
    for k, v in metrics.items():
        print("%s %-32s %.6g %s" % (workload, k, v["value"], v["unit"]))
    print("%s attempted %d failed %d" % (
        workload, len(sims) + len(failures), len(failures)))
    return {"correct": not failures, "attempted": len(sims) + len(failures),
            "failed": len(failures), "metrics": metrics}, verdict


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    help="a workload name, or all (default)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not build():
        return 1
    info, err = call(["--mode", "info"], 60)
    if info is None:
        log("perfbench: perfbench_sim --mode info failed: " + err)
        return 1
    nproc = len(os.sched_getaffinity(0))
    print("build: %s, lockdep %s, %s; host nproc %d; seed %d" % (
        info["build_type"], "on" if info["lockdep"] else "off",
        info["compiler"], nproc, args.seed))

    names = info["workloads"] if args.workload == "all" else [args.workload]
    if not set(names) <= set(info["workloads"]):
        ap.error("--workload must be one of %s or all" %
                 ", ".join(info["workloads"]))
    results, verdicts = {}, {}
    for name in names:
        out = run_workload(name, args.seed, args.seconds, args.trace, nproc)
        if out is None:
            return 1
        results[name], verdicts[name] = out
        if not verdicts[name]["comparable"]:
            log("perfbench: %s used %d host slots on %d CPUs; its figures "
                "are not comparable" % (name, verdicts[name]["slots"], nproc))
    print("verdict: " + json.dumps(verdicts, sort_keys=True))
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (n, k): v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
