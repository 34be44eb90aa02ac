#!/usr/bin/env python3
"""Compare two sets of benchmark results, refusing unlike hosts.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records perfbench/run.py writes to
<build>/results (copy them aside between the two builds). Untraced
records (*-trace0.json) are compared per workload and end-to-end
metric: each side's median and quartiles over its runs, the new
median's change in the metric's worse direction, and a verdict against
the bound in BENCHMARK.json. A change is "unresolved" when either
side's own spread exceeds the bound.

Runs from different host classes -- nproc, CPU model, compiler or
build type -- are not comparable; the script refuses them and exits 2.
Exit code 1 when any metric is worse by more than its bound, else 0.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOST_CLASS = ("nproc", "cpu_model", "compiler", "build_type")


def load(directory):
    records = [json.loads(p.read_text())
               for p in sorted(Path(directory).glob("*-trace0.json"))]
    if not records:
        raise SystemExit(f"compare: no *-trace0.json records in {directory}")
    return records


def host_classes(records):
    return {tuple(r["host"][k] for k in HOST_CLASS) for r in records}


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main():
    if len(sys.argv) != 3:
        raise SystemExit(__doc__.split("\n\n")[1])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(sys.argv[1]), load(sys.argv[2])

    classes = host_classes(base) | host_classes(new)
    if len(classes) != 1:
        print("compare: refusing to compare runs from different host "
              "classes (" + ", ".join(HOST_CLASS) + "):")
        for c in sorted(classes):
            print("  " + " | ".join(map(str, c)))
        return 2

    worse_than_bound = False
    print(f"{'workload':9s} {'metric':18s} {'base median':>12s} "
          f"{'new median':>12s} {'change':>8s} {'bound':>6s}  verdict")
    for workload in [w["name"] for w in bench["workloads"]]:
        b = [r for r in base if r["workload"] == workload]
        n = [r for r in new if r["workload"] == workload]
        if not b or not n:
            continue
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            bm, bq1, bq3 = summary([r["metrics"][name] for r in b])
            nm, nq1, nq3 = summary([r["metrics"][name] for r in n])
            change = nm / bm - 1.0
            worse = -change if m["better"] == "higher" else change
            if (bq3 - bq1) / bm > bound or (nq3 - nq1) / nm > bound:
                verdict = "unresolved: spread above bound"
            elif worse > bound:
                verdict = "WORSE beyond bound"
                worse_than_bound = True
            elif worse < 0:
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"{workload:9s} {name:18s} {bm:12.6g} {nm:12.6g} "
                  f"{change:+8.3f} {bound:6.2f}  {verdict}")
    return 1 if worse_than_bound else 0


if __name__ == "__main__":
    sys.exit(main())
