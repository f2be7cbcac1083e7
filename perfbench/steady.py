#!/usr/bin/env python3
"""Steadiness check of the benchmark, and the record of its reference.

    python3 perfbench/steady.py [--workloads fft-w4,radix-det]
                                [--seeds 1-10] [--seconds S] [--record]

Run from the repository root. Runs perfbench/run.py once per workload and
seed with --trace 0, then reports for each end-to-end metric the spread
of its per-run medians, (q3 - q1) / median with statistics.quantiles(n=4),
against a third of the metric's bound in BENCHMARK.json. It also counts
the modes of each workload's per-simulation run_s, cpu_s and simulated
cycles (see modes()).

--record writes the build, the host, each workload's full configuration,
the radix-det fingerprint of every seed run and the spreads seen to
perfbench/reference.json, which run.py compares fingerprints against.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench_sim")
MODE_SEPARATION = 4.0
MODE_MIN_SHARE = 0.05


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def modes(values):
    """Best two-group split of the sorted values (least squared error).

    The values form two modes when the group means lie more than
    MODE_SEPARATION pooled standard deviations apart and the smaller
    group holds at least MODE_MIN_SHARE of them.
    """
    xs = sorted(values)
    if len(xs) < 4:
        return {"modes": 1}

    def sse(part):
        mean = statistics.fmean(part)
        return sum((x - mean) ** 2 for x in part)

    i = min(range(2, len(xs) - 1), key=lambda i: sse(xs[:i]) + sse(xs[i:]))
    lo, hi = statistics.fmean(xs[:i]), statistics.fmean(xs[i:])
    sd = ((sse(xs[:i]) + sse(xs[i:])) / (len(xs) - 2)) ** 0.5
    sep = (hi - lo) / sd if sd > 0 else float("inf")
    two = sep > MODE_SEPARATION and min(i, len(xs) - i) >= \
        MODE_MIN_SHARE * len(xs)
    return {"modes": 2 if two else 1, "low_mean": lo, "low_count": i,
            "high_mean": hi, "high_count": len(xs) - i,
            "separation_sd": sep}


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("steady: %s failed:\n%s" % (" ".join(cmd), p.stderr[-2000:]))
    out = {"result": json.loads(lines[-1])}
    for line in lines:
        if line.startswith("per-sim: "):
            out["sims"] = json.loads(line[len("per-sim: "):])
        elif line.startswith("fingerprint: "):
            out["fingerprint"] = json.loads(line[len("fingerprint: "):])
        elif line.startswith("verdict: "):
            verdict = json.loads(line[len("verdict: "):])[workload]
            out["versus_recorded"] = verdict["fingerprint_vs_reference"]
            out["comparable"] = verdict["comparable"]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=None,
                    help="default: the workloads of BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in bench["workloads"]])

    report = {}
    ok = True
    for w in workloads:
        runs = []
        for seed in seeds:
            r = run_once(w, seed, seconds)
            runs.append(r)
            res = r["result"]
            print("%-16s seed %-3d attempted %-3d failed %d  %s" % (
                w, seed, res["attempted"], res["failed"], "  ".join(
                    "%s=%.5g" % (k, v["value"])
                    for k, v in res["metrics"].items())), flush=True)
        entry = {"seeds": seeds, "failed": sum(
            r["result"]["failed"] for r in runs), "metrics": {}}
        for name, bound in bounds.items():
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            s = spread(vals)
            entry["metrics"][name] = {
                "median": statistics.median(vals), "spread": s,
                "limit": bound / 3, "steady": s < bound / 3}
            if name != "setup_s" and s >= bound / 3:
                ok = False
        sims = [s for r in runs for s in r.get("sims", [])]
        entry["sims"] = len(sims)
        entry["modes"] = {k: modes([s[k] for s in sims])
                          for k in ("run_s", "cpu_s", "sim_cycles")}
        entry["slots"] = sims[0]["slots"] if sims else None
        entry["comparable"] = all(r["comparable"] for r in runs)
        if any("fingerprint" in r for r in runs):
            entry["fingerprints"] = {
                str(seed): r["fingerprint"]
                for seed, r in zip(seeds, runs) if "fingerprint" in r}
            verdicts = [r.get("versus_recorded") for r in runs]
            entry["versus_recorded"] = {
                v: verdicts.count(v) for v in set(verdicts)}
            print("%-16s fingerprint vs recorded: %s" % (
                w, json.dumps(entry["versus_recorded"])))
        report[w] = entry
        for name, m in entry["metrics"].items():
            print("%-16s %-12s median %-10.5g spread %.4f (limit %.4f) %s"
                  % (w, name, m["median"], m["spread"], m["limit"],
                     "ok" if m["steady"] else "WIDE"))
        print("%-16s modes over %d simulations: %s" % (
            w, len(sims), json.dumps(entry["modes"])), flush=True)

    with open(os.path.join(os.path.dirname(BINARY), "steady.json"), "w") as f:
        json.dump(report, f, indent=1)

    if args.record:
        try:
            with open(REFERENCE) as f:
                ref = json.load(f)
        except (OSError, ValueError):
            ref = {}
        info = json.loads(subprocess.run(
            [BINARY, "--mode", "info"], capture_output=True, text=True,
            check=True).stdout)
        info.pop("ok")
        info["nproc"] = len(os.sched_getaffinity(0))
        ref["build_and_host"] = info
        configs = ref.setdefault("configs", {})
        for w, entry in report.items():
            p = subprocess.run([BINARY, "--mode", "config", "--workload", w,
                                "--seed", "0"], capture_output=True,
                               text=True, check=True)
            configs[w] = p.stdout.splitlines()
            ref.setdefault("steadiness", {})[w] = {
                k: v for k, v in entry.items() if k != "fingerprints"}
            if "fingerprints" in entry:
                ref.setdefault("fingerprints", {}).setdefault(w, {}).update(
                    entry["fingerprints"])
        with open(REFERENCE, "w") as f:
            json.dump(ref, f, indent=1, sort_keys=True)
            f.write("\n")
        print("recorded " + os.path.relpath(REFERENCE, ROOT))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
