#!/usr/bin/env python3
"""Steadiness report: is each end-to-end metric steady within its bound?

    python3 perfbench/steadiness.py [--runs 10] [--sets 1]
        [--workloads campaign,fleet,triage] [--seconds S] [--first-seed 1]

Runs perfbench/run.py --trace 0 `runs` times per workload, each with
another seed (first-seed, first-seed+1, ...), and prints each metric's
median, quartiles and spread -- (Q3 - Q1) / median, with quartiles from
statistics.quantiles(values, n=4) -- against the metric's bound in
BENCHMARK.json. setup_s is checked first. A metric is flagged when its
spread exceeds its bound and warned about when the spread exceeds a
third of it.

With --sets 2 every seed runs once per set, the sets' runs of a seed
back to back and in alternating order (seed 1: set 1 then set 2; seed
2: set 2 then set 1; ...), so a busy period on the host falls on both
sets alike rather than on one. The report then also checks that every
second-set median is no worse than the first by more than the bound,
and that each seed reproduced the same result digest in every set.

Exit code 0 when nothing is flagged, 1 otherwise. Run from the root of
a checkout; --seconds defaults to BENCHMARK.json's run_seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run.py failed on {workload} seed {seed}")
    lines = proc.stdout.strip().splitlines()
    digest = next((l.split("digest ")[1] for l in lines
                   if l.startswith("workload ")), "?")
    return json.loads(lines[-1]), digest


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(
        values)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 to form quartiles")

    # setup_s first: a change that moves work into set-up shows there.
    metrics = sorted(bench["end_to_end"],
                     key=lambda m: m["name"] != "setup_s")
    flagged = []
    for workload in args.workloads.split(","):
        sets = [[] for _ in range(args.sets)]
        for i in range(args.runs):
            seed = args.first_seed + i
            order = [(i + k) % args.sets for k in range(args.sets)]
            for s in order:
                result, digest = run_once(workload, seed, args.seconds)
                if not result["correct"] or result["failed"]:
                    flagged.append(f"{workload} seed {seed}: checks failed")
                sets[s].append((seed, result, digest))
                print(f"{workload} set {s + 1} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.6g}"
                    for k, v in result["metrics"].items()), flush=True)

        print(f"\n{workload}: {args.runs} runs x {args.sets} set(s), "
              f"{args.seconds:g} s each")
        print(f"  {'metric':22s} {'set':>3s} {'median':>12s} {'Q1':>12s} "
              f"{'Q3':>12s} {'spread':>8s} {'bound':>6s}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for _, r, _ in runs]
                med, q1, q3, sp = spread(values)
                medians.append(med)
                mark = ""
                if sp > bound:
                    mark = "  FLAG: spread above bound"
                    flagged.append(f"{workload} {name} spread {sp:.3f}")
                elif sp > bound / 3:
                    mark = "  warn: spread above a third of bound"
                print(f"  {name:22s} {s + 1:3d} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {sp:8.4f} {bound:6.3f}{mark}")
            for s in range(1, len(medians)):
                worse = medians[s] / medians[0] - 1.0
                if m["better"] == "higher":
                    worse = -worse
                mark = ""
                if worse > bound:
                    mark = "  FLAG: median worse than set 1 beyond bound"
                    flagged.append(f"{workload} {name} set {s + 1} "
                                   f"median {worse:+.3f}")
                print(f"  {name:22s} set {s + 1} vs 1: {worse:+.4f}{mark}")
        for s in range(1, len(sets)):
            for (seed, _, d0), (_, _, d1) in zip(sets[0], sets[s]):
                if d0 != d1:
                    flagged.append(f"{workload} seed {seed}: digest "
                                   f"{d0} != {d1} in set {s + 1}")
        print()

    for f in flagged:
        print(f"FLAGGED: {f}")
    print("steady" if not flagged else f"{len(flagged)} flag(s)")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
