"""Record the benchmark's baseline: every workload over several seeds.

    python3 perfbench/baseline.py --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 35 \\
        --out perfbench/baseline.json

Runs ``run.py --trace 0`` once per (seed, workload), rotating the
workload order from seed to seed so that slow stretches of the host are
spread over all workloads, then one ``--trace 1`` run per workload on
the first seed.  Writes the machine facts and, per workload, the median
and quartiles of each end-to-end metric, its spread ((q3 - q1) / median)
and the traced per-layer values.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy

import run
import workloads


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, run.__file__, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: correct={res['correct']} "
          f"failed={res['failed']}/{res['attempted']}", flush=True)
    return res


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    if len(args.seeds) < 2:
        p.error("quartiles need at least two seeds")

    names = list(workloads.WORKLOADS)
    runs: dict[str, list[dict]] = {w: [] for w in names}
    for k, seed in enumerate(args.seeds):
        for w in names[k % len(names):] + names[:k % len(names)]:
            runs[w].append(bench(w, seed, args.seconds, 0))
    traced = {w: bench(w, args.seeds[0], args.seconds, 1) for w in names}

    out = {
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "seeds": args.seeds,
        "seconds": args.seconds,
        "workloads": {},
    }
    units = run.declared_metrics(False)
    for w in names:
        out["workloads"][w] = {
            "all_correct": all(r["correct"] for r in runs[w]) and traced[w]["correct"],
            "fail_ratio": sum(r["failed"] for r in runs[w]) / sum(r["attempted"] for r in runs[w]),
            "end_to_end": {
                m: dict(unit=u, **summarize([r["metrics"][m]["value"] for r in runs[w]]))
                for m, u in units.items()
            },
            "per_layer": {m: v["value"] for m, v in sorted(traced[w]["metrics"].items())},
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for w in names:
        for m, s in out["workloads"][w]["end_to_end"].items():
            print(f"{w:14s} {m:12s} median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} spread {s['spread']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
