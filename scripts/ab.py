#!/usr/bin/env python3
"""Interleaved A/B of two source trees on one perfbench workload.

    python3 scripts/ab.py --base ../parent --change . --workload explore_three_rail \\
        --seeds 1-10 --seconds 30 [--pairs N] [--trace 0] [--claim job_ms] [--log ab.jsonl]

Each tree is built and run by its own `perfbench/run.py`, into its own
target directory (`<tree>/.bench_build` unless `--base-target` or
`--change-target` says otherwise). Pair `i` runs seed `seeds[i % len]`;
even pairs run the base first, odd pairs the change first, so drift in
the host's speed lands on both sides alike.

For every end-to-end metric named in the change tree's BENCHMARK.json
(or every metric of the result line when there is none) it prints each
side's median and quartiles, the change's win count (ties count for
neither side) and a verdict line:

- `gain` when the change wins at least nine tenths of all pairs and its
  median beats the base's by more than the base's interquartile range;
- `worse` when the change's median is worse than the base's by more than
  the metric's bound;
- `unresolved` when neither holds and the base's own interquartile range
  is wider than the bound (unless every change run beats every base run);
- `same` otherwise.

A run whose result line is missing, or reads `"correct": false`, is
printed in full and counted as a failed run; `--claim` names the metric
whose verdict decides the exit code (0 on `gain`, 1 otherwise).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def run_once(tree, target, args, seed):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.abspath(target))
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if result is None or not result.get("correct", False):
        print(f"--- failed run: {tree} seed {seed} (exit {proc.returncode}) ---")
        print(proc.stdout)
        print(proc.stderr[-4000:])
    return result


def end_to_end(change_tree, results):
    path = os.path.join(change_tree, "BENCHMARK.json")
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)["end_to_end"]
    names = sorted({k for r in results for k in r["metrics"]})
    return [{"name": n, "better": "lower", "bound": 0.0} for n in names]


def verdict(base, change, better, bound):
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    bq1, bmed, bq3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    iqr = bq3 - bq1
    gain_by = sign * (cmed - bmed)
    if wins >= 0.9 * len(base) and gain_by > iqr:
        return wins, "gain"
    scale = abs(bmed) if bmed != 0 else 1.0
    if -gain_by > bound * scale:
        return wins, "worse"
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    if iqr > bound * scale and not all_better:
        return wins, "unresolved"
    return wins, "same"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="parent source tree")
    ap.add_argument("--change", required=True, help="changed source tree")
    ap.add_argument("--base-target", help="target dir of the base build")
    ap.add_argument("--change-target", help="target dir of the change build")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1", help="e.g. 1-10 or 7919 or 1,3,5")
    ap.add_argument("--pairs", type=int, help="pairs to run (default: one per seed)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--claim", help="metric whose verdict sets the exit code")
    ap.add_argument("--log", help="append every result line to this JSONL file")
    args = ap.parse_args()

    seeds = parse_seeds(args.seeds)
    pairs = args.pairs or len(seeds)
    sides = {
        "base": (args.base, args.base_target or os.path.join(args.base, ".bench_build")),
        "change": (args.change, args.change_target or os.path.join(args.change, ".bench_build")),
    }
    results = {"base": [], "change": []}
    failed = {"base": 0, "change": 0}
    for i in range(pairs):
        seed = seeds[i % len(seeds)]
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        got = {}
        for side in order:
            tree, target = sides[side]
            r = run_once(tree, target, args, seed)
            got[side] = r
            if args.log and r is not None:
                with open(args.log, "a") as f:
                    f.write(json.dumps({"pair": i, "side": side, "seed": seed,
                                        "workload": args.workload, "result": r}) + "\n")
        for side in order:
            r = got[side]
            if r is None or not r.get("correct", False) or r.get("failed", 0) > 0:
                failed[side] += 1
        if got["base"] is not None and got["change"] is not None:
            for side in order:
                results[side].append(got[side])
        print(f"pair {i + 1}/{pairs} seed {seed} order {'/'.join(order)}", flush=True)

    print(f"workload {args.workload}, {args.seconds:g} s runs, "
          f"{len(results['base'])} complete pairs; failed runs base {failed['base']}, "
          f"change {failed['change']}")
    if not results["base"]:
        print("verdict: none (no complete pair)")
        return 1
    claim_verdict = None
    print(f"{'metric':<14} {'base median [q1, q3]':>30} {'change median [q1, q3]':>30} "
          f"{'delta':>8} {'wins':>6}  verdict")
    for m in end_to_end(args.change, results["base"] + results["change"]):
        name = m["name"]
        base = [r["metrics"][name]["value"] for r in results["base"] if name in r["metrics"]]
        change = [r["metrics"][name]["value"] for r in results["change"] if name in r["metrics"]]
        if len(base) != len(change) or not base:
            continue
        bq1, bmed, bq3 = quartiles(base)
        cq1, cmed, cq3 = quartiles(change)
        delta = (cmed - bmed) / bmed * 100.0 if bmed else 0.0
        wins, v = verdict(base, change, m.get("better", "lower"), m.get("bound", 0.0))
        print(f"{name:<14} {bmed:>12.4f} [{bq1:.4f}, {bq3:.4f}] "
              f"{cmed:>12.4f} [{cq1:.4f}, {cq3:.4f}] {delta:>+7.2f}% "
              f"{wins:>2}/{len(base):<3}  {v}")
        if name == args.claim:
            claim_verdict = v
    print("rule: a gain needs the change to win >= 9/10 of all pairs (ties count "
          "for neither) and its median to beat the base's by more than the base's "
          "interquartile range; no regression needs every metric's median within "
          "its bound, and a base IQR wider than the bound reads unresolved.")
    if args.claim:
        print(f"verdict: {args.claim} {claim_verdict or 'missing'}")
        return 0 if claim_verdict == "gain" else 1
    worse = failed["change"] > failed["base"]
    print(f"verdict: {'failed runs' if worse else 'complete'}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
