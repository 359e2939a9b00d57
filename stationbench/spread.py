#!/usr/bin/env python3
"""Run the station benchmark over several seeds and check its spread.

For each workload the benchmark runs once per seed; each end-to-end
metric's spread is the distance between its first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of its median. With
``--sets 2`` the whole sweep runs twice and the second set's median of
each metric must not be worse than the first's by more than the
metric's bound from ``BENCHMARK.json``, in either direction: both sets
run the same code, so a second set much better than the first is as
unsteady as one much worse. Every end-to-end metric, ``setup_s`` too,
must keep its spread within its bound.

Run from the repository root:

    python3 stationbench/spread.py --workloads author,study --seeds 1-5
    python3 stationbench/spread.py --seeds 1-10 --sets 2 --out runs.jsonl
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def spread(values):
    """Interquartile distance over the median (0 when the median is 0)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return 0.0 if med == 0 else (q3 - q1) / med


def worse_by(first, second, better):
    """How much worse the second median is than the first, as a share
    of the first (negative when it is better)."""
    a, b = statistics.median(first), statistics.median(second)
    if a == 0:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def agree(first, second, better, bound):
    """Whether two sets of runs of the same code agree within `bound`:
    the second set's median is neither worse nor better than the
    first's by more than `bound`."""
    return abs(worse_by(first, second, better)) <= bound


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return {"workload": workload, "seed": seed, "wall_s": wall,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("--workloads", help="comma list (default: all)")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--out", help="append every run as a JSON line here")
    args = ap.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)

    sets = []
    for _ in range(args.sets):
        runs = {}
        # Seed-major order spreads the host's drift over all workloads.
        for s in seeds:
            for w in workloads:
                r = run_once(bench["command"], w, s, bench["run_seconds"], 0)
                print(f"{w} seed {s}: {r['wall_s']:.1f} s", flush=True)
                if args.out:
                    with open(args.out, "a") as f:
                        f.write(json.dumps(r) + "\n")
                runs.setdefault(w, []).append(r["metrics"])
        sets.append(runs)

    ok = True
    for w in workloads:
        print(f"\n{w}: metric median spread bound" +
              ("  worse_by" if len(sets) > 1 else ""))
        for name, m in bounds.items():
            first = [r[name] for r in sets[0][w]]
            sp = spread(first)
            line = f"  {name:<14} {statistics.median(first):>14.6g} {sp:>7.4f} {m['bound']:>5}"
            if sp > m["bound"]:
                ok, line = False, line + "  SPREAD"
            elif sp > m["bound"] / 3:
                line += "  (above a third of the bound)"
            for later in sets[1:]:
                wb = worse_by(first, [r[name] for r in later[w]], m["better"])
                line += f"  {wb:+.4f}"
                if not agree(first, [r[name] for r in later[w]], m["better"], m["bound"]):
                    ok, line = False, line + "  DISAGREE"
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
