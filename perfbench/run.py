#!/usr/bin/env python3
"""TurboFuzz benchmark: one command, three workloads.

    python3 perfbench/run.py --workload campaign|fleet|triage \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the program
from ../src with perfbench/CMakeLists.txt into $CARGO_TARGET_DIR
(default .bench_build); later runs reuse the build.

A run measures one workload for S seconds in a fresh process and
prints a human-readable report followed, as the last line, by one
JSON object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics; with --trace 1 they
are the per-layer ledger. The full record (host metadata, every unit's
timing, the deterministic outcomes) is written to
<build>/results/<workload>-seed<N>-trace<T>.json for compare.py.

See perfbench/README.md for the workloads, metrics and noise notes.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Metric names and units come from BENCHMARK.json alone.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])

# Fresh processes per run that each time one cold set-up; the run
# reports their median. Half run before the measured run and half
# after it, so the set-ups sample more than one contention regime.
# A campaign or fleet set-up process takes under 10 ms, a triage one
# about 0.45 s.
SETUP_REPEATS = {"campaign": 60, "fleet": 60, "triage": 20}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure once, then bring tfbench up to date."""
    if not (ROOT / "src" / "harness" / "campaign.cc").is_file():
        fail(f"program sources not found under {ROOT / 'src'}; run from "
             "the root of a checkout")
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out)]
        if subprocess.run(["ninja", "--version"], capture_output=True,
                          check=False).returncode == 0:
            cmd += ["-G", "Ninja"]
        step(cmd)
    step(["cmake", "--build", str(out), "--target", "tfbench",
          "-j", jobs])
    return out / "tfbench"


def step(cmd):
    # Keep the compiler's temporary files inside the checkout too.
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, check=False,
                          env=dict(os.environ, TMPDIR=str(tmp)))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail(f"build step failed: {' '.join(cmd)}")


def tool(binary, *args, timeout=170, cpu=None):
    """Run tfbench (on @cpu alone, if given) and parse the JSON object on
    its last stdout line."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    try:
        proc = subprocess.run([str(binary), *args], capture_output=True,
                              text=True, timeout=timeout, check=False,
                              preexec_fn=pin)
    except subprocess.TimeoutExpired:
        fail(f"tfbench {' '.join(args)} timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"tfbench {args[0]} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"tfbench {args[0]} printed nothing")
    return json.loads(lines[-1])


def harvest_file(binary, seed, digest):
    """The triage workload's harvest for @seed, built once per build of
    the sources @digest names."""
    path = build_dir() / "harvest" / f"seed-{seed}-{digest}.bin"
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        # Harvests of other sources are stale.
        for old in path.parent.glob("seed-*.bin"):
            if not old.name.endswith(f"-{digest}.bin"):
                old.unlink()
        tmp = path.with_suffix(".tmp")
        tool(binary, "harvest", "--seed", str(seed), "--out", str(tmp))
        tmp.replace(path)
    return path


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the program and benchmark sources, so results from a
    checkout without git history still name the code they measured."""
    h = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", BENCH_DIR)
                   for p in d.rglob("*") if p.suffix in (".cc", ".hh")
                   or p.name == "CMakeLists.txt")
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def end_to_end(run, setup_s):
    """The end-to-end metrics of one untraced run."""
    return {
        "host_ms_per_sim_s": run["floor_ms_per_sim_s"],
        "setup_s": setup_s,
        "peak_rss_mb": run["peak_rss_mb"],
    }


def per_layer(run, setups):
    """The traced run's ledger, set-up phases and outcomes; 0 for every
    layer the workload leaves idle."""
    values = {m["name"]: 0.0 for m in BENCHMARK["per_layer"]}
    unknown = sorted(set(run["ledger"]) - set(values))
    if unknown:
        fail("undeclared per-layer metric(s) " + ", ".join(unknown))
    values.update(run["ledger"])
    for key in ("library_s", "construct_s", "load_s"):
        values["setup." + key] = statistics.median(s[key] for s in setups)
    out = run["outcomes"]
    repros = out.get("reproducers", 0)
    fastest = min(u["host_s"] for u in run["units"]
                  if u["in_floor"] and not u["traced"])
    values["outcome.host_ms_per_repro"] = (
        fastest * 1e3 / repros if repros else 0.0)
    for key in ("coverage_points", "bugs_found", "minimized_instrs"):
        values["outcome." + key] = out.get(key, 0)
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    digest = source_digest()
    seed = str(args.seed)
    extra = []
    if args.workload == "triage":
        extra = ["--harvest", str(harvest_file(binary, args.seed, digest))]

    # Spread the set-ups over every CPU: other tenants contend each CPU
    # differently (README.md, "Noise").
    cpus = sorted(os.sched_getaffinity(0))

    def setup(i):
        return tool(binary, "setup", "--workload", args.workload,
                    "--seed", seed, *extra, cpu=cpus[i % len(cpus)])

    repeats = SETUP_REPEATS[args.workload]
    setups = [setup(i) for i in range(repeats // 2)]

    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    spans = []
    if args.trace:
        spans = ["--spans-out", str(results / f"{stem}.spans.json")]
    run = tool(binary, "run", "--workload", args.workload, "--seed", seed,
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               *extra, *spans, timeout=args.seconds + 150)

    setups += [setup(i) for i in range(repeats // 2, repeats)]
    setup_s = statistics.median(sum(s.values()) for s in setups)

    declared = BENCHMARK["per_layer" if args.trace else "end_to_end"]
    values = per_layer(run, setups) if args.trace else end_to_end(
        run, setup_s)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        fail("no value for declared metric(s) " + ", ".join(missing))
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in declared}
    correct = not run["problems"]

    host = dict(run["host"], git_commit=git_commit(), source_digest=digest)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "host": host, "digest": run["digest"],
        "correct": correct, "problems": run["problems"],
        "attempted": run["attempted"], "failed": run["failed"],
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "metric_units": {k: u for k, (_, u) in metrics.items()},
        "outcomes": run["outcomes"], "unit_times": run["units"],
        "setups": setups,
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {seed}  trace {args.trace}  "
          f"units {len(run['units'])}  digest {run['digest']}")
    print("host " + json.dumps(host))
    print("outcomes " + json.dumps(run["outcomes"]))
    for problem in run["problems"]:
        print(f"FAILED CHECK: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
