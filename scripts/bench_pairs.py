#!/usr/bin/env python3
"""Interleaved perfbench pairs of a parent and a change source tree.

Runs ``<tree>/perfbench/run.py --workload W --seed S --seconds T --trace 0``
for every workload that the parent tree's BENCHMARK.json declares and
every seed 1..N, one run at a time: seed by seed, each workload as one
pair, the change first on odd seeds and the parent first on even ones.
Each run is started in its own tree, so it imports that tree's ``src/``.

Writes, and rewrites after every pair, a JSON file whose ``workloads``
block holds per workload the seeds, attempted and failed ops of each
tree, whether every run of both was correct, and per end-to-end metric
each tree's median, quartiles (numpy.percentile, linear) and runs;
``relative_worse`` (the medians' relative difference, > 0 when the
change is worse), ``change_better_pairs`` (pairs the change won; ties
count for neither), ``within_bound`` and ``median_gap_exceeds_parent_iqr``.

Usage: python scripts/bench_pairs.py --parent DIR --change DIR --pairs 10 \\
           --seconds 35 --out BENCH.json
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

TREES = ("parent", "change")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; its result is the last line it prints."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {tree}: {workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def _stats(runs: list[float]) -> dict:
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": round(float(median), 6), "q1": round(float(q1), 6),
            "q3": round(float(q3), 6), "runs": [round(r, 6) for r in runs]}


def summarize(declared: list[dict], seeds: list[int], results: dict) -> dict:
    """The ``workloads`` block from ``results[tree][workload]``, each a list
    of run results (perfbench's final JSON line) in the order of ``seeds``.
    ``declared`` is BENCHMARK.json's ``end_to_end`` list."""
    out = {}
    for workload, parent_runs in results["parent"].items():
        runs = {"parent": parent_runs, "change": results["change"][workload]}
        metrics = {}
        for m in declared:
            name, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
            vals = {t: [r["metrics"][name]["value"] for r in runs[t]] for t in TREES}
            parent, change = _stats(vals["parent"]), _stats(vals["change"])
            worse = sign * (change["median"] - parent["median"]) / parent["median"]
            metrics[name] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                "parent": parent, "change": change,
                "relative_worse": round(worse, 4),
                "change_better_pairs": sum(sign * (c - p) < 0
                                           for p, c in zip(vals["parent"], vals["change"])),
                "within_bound": worse <= m["bound"],
                "median_gap_exceeds_parent_iqr":
                    abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"],
            }
        out[workload] = {
            "pairs": len(parent_runs), "seeds": seeds[:len(parent_runs)],
            "attempted": {t: sum(r["attempted"] for r in runs[t]) for t in TREES},
            "failed": {t: sum(r["failed"] for r in runs[t]) for t in TREES},
            "correct": all(r["correct"] for t in TREES for r in runs[t]),
            "metrics": metrics,
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="parent source tree")
    p.add_argument("--change", type=Path, required=True, help="changed source tree")
    p.add_argument("--pairs", type=int, default=10, help="pairs per workload, seeds 1..N")
    p.add_argument("--seconds", type=float, default=35.0, help="perfbench window per run")
    p.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be positive")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = list(range(1, args.pairs + 1))
    results = {t: {w: [] for w in workloads} for t in TREES}
    for seed in seeds:
        for workload in workloads:
            for tree in TREES[::-1] if seed % 2 else TREES:
                res = run_once(trees[tree], workload, seed, args.seconds)
                results[tree][workload].append(res)
                print(f"seed {seed} {workload} {tree}: ops_per_s "
                      f"{res['metrics']['ops_per_s']['value']:.4g}", flush=True)
        done = {t: {w: r for w, r in results[t].items() if r} for t in TREES}
        args.out.write_text(json.dumps({
            "command": " ".join(bench["command"]) + " --workload <workload> --seed <seed> "
                       f"--seconds {args.seconds:g} --trace 0",
            "window_s": args.seconds, "pairs": seed, "seeds": seeds[:seed],
            "order": "seed by seed, each workload as one pair in BENCHMARK.json order; odd "
                     "seeds run the change first, even seeds the parent; one run at a time",
            "statistics": "median and quartiles (numpy.percentile, linear) over the pairs; "
                          "change_better_pairs counts pairs in which the change's value is "
                          "better; relative_worse is signed so that > 0 means the change is "
                          "worse",
            "workloads": summarize(bench["end_to_end"], seeds, done),
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
