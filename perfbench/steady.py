#!/usr/bin/env python3
"""Steadiness evidence for the end-to-end benchmark.

Runs interleaved sets of untraced runs of the same code and reports, per
set, workload and end-to-end metric, the median and quartiles of the
per-run values, their spread (interquartile distance over the median) and
how far each set's median lies from the first set's. Run it from the root
of a checkout:

    python3 perfbench/steady.py --sets 2 --runs 10 \
        --out perfbench/steadiness/<name>.json

(--seconds defaults to run_seconds of BENCHMARK.json.)

Set k uses seeds k*runs+1 .. (k+1)*runs. Runs alternate between sets and
workloads, so host drift lands on every set alike. The bounds in
BENCHMARK.json are checked: a spread (setup_s excepted) above a third of
its bound, or a set median worse than the first by more than the bound,
is flagged. Each run's wall-clock figures (set-up, ops per second,
latency quantiles) and host CPU steal, from its config record, are
summarized beside them for comparison.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# Wall-clock figures from each run's config record: summarized beside the
# end-to-end metrics for comparison, never flagged.
WALL = ["wall_setup_s", "wall_ops_per_s", "wall_latency_p50_ms", "wall_latency_p90_ms"]


def run_once(workload, seed, seconds):
    cmd = ["bash", os.path.join(HERE, "run.sh"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    wall = time.time() - t0
    if p.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
    lines = p.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {res['failed']} of {res['attempted']} ops failed:\n{p.stderr}")
    cfg = next(json.loads(l[len("config "):]) for l in lines if l.startswith("config "))
    return res, cfg, wall


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--workloads", default=None, help="comma-separated; default: all of BENCHMARK.json")
    ap.add_argument("--out", default=None, help="write the evidence as JSON here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    raw = {w: [[] for _ in range(args.sets)] for w in workloads}
    walls = []
    for i in range(args.runs):
        for s in range(args.sets):
            for w in workloads:
                seed = s * args.runs + i + 1
                res, cfg, wall = run_once(w, seed, seconds)
                walls.append(wall)
                raw[w][s].append({"seed": seed, "host_steal_frac": cfg["host_steal_frac"],
                                  **{k: v["value"] for k, v in res["metrics"].items()},
                                  **{k: cfg[k] for k in WALL}})
                print(f"set {s} {w:14s} seed {seed:3d}  steal={cfg['host_steal_frac']:.3f}  " +
                      "  ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
                      flush=True)

    report = {"seconds": seconds, "runs_per_set": args.runs, "sets": args.sets,
              "uname": os.uname().release, "nproc": os.cpu_count(),
              "max_run_wall_s": max(walls), "workloads": {}}
    flagged = []
    print()
    print(f"{'workload':14s} {'metric':16s} {'bound':>6s}  " +
          "  ".join(f"set{s} median [q1, q3] spread" for s in range(args.sets)) + "  worst drift")
    for w in workloads:
        report["workloads"][w] = {}
        for m, bound in bounds.items():
            sets = [summarize([r[m] for r in raw[w][s]]) for s in range(args.sets)]
            better = next(x["better"] for x in spec["end_to_end"] if x["name"] == m)
            drifts = []
            for st in sets[1:]:
                d = st["median"] / sets[0]["median"] - 1
                drifts.append(d if better == "lower" else -d)  # > 0: worse
            report["workloads"][w][m] = {"bound": bound, "sets": sets, "drift_worse": drifts}
            cells = "  ".join(f"{st['median']:.5g} [{st['q1']:.5g}, {st['q3']:.5g}] {st['spread']:.3f}" for st in sets)
            worst = max(drifts) if drifts else 0.0
            note = ""
            if m != "setup_s" and any(st["spread"] > bound / 3 for st in sets):
                note += " SPREAD>bound/3"
            if worst > bound:
                note += " DRIFT>bound"
            if note:
                flagged.append(f"{w} {m}{note}")
            print(f"{w:14s} {m:16s} {bound:6.3f}  {cells}  {worst:+.3f}{note}")
        report["workloads"][w]["host_steal_frac"] = [[r["host_steal_frac"] for r in raw[w][s]] for s in range(args.sets)]
        report["workloads"][w]["wall"] = {}
        for k in WALL:
            sets = [summarize([r[k] for r in raw[w][s]]) for s in range(args.sets)]
            report["workloads"][w]["wall"][k] = {"sets": sets}
            print(f"{w:14s} {k:16s} {'-':>6s}  " +
                  "  ".join(f"{st['median']:.5g} [{st['q1']:.5g}, {st['q3']:.5g}] {st['spread']:.3f}" for st in sets) + "  (not gated)")
    report["flagged"] = flagged
    print("\nflagged:", flagged or "none")
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
