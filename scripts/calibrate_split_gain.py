#!/usr/bin/env python3
"""Calibration behind the tree learner's midpoint-fallback threshold.

Prints (1) the distribution of the best empirical Gini gain when labels
are independent of the features (pure noise) and (2) the best root gain
on the benchmark tasks, across sample sizes.  The fallback threshold
should sit above column (1) and below every real signal in column (2);
the shipped default is 0.01.

Usage: python scripts/calibrate_split_gain.py [--reps 100]
"""

import argparse

import numpy as np

from tasksim import quads, rxor, sample, xor
from tasksim.learners import _root_split


def noise_gain(rng, n):
    X = rng.uniform(-1, 1, size=(n, 2))
    y = rng.integers(0, 2, size=n)
    gain, _, _ = _root_split(X, y, 2, min_leaf=1)
    return gain


def root_gain(dist, rng, n):
    s = sample(dist, n, rng)
    gain, _, _ = _root_split(s.X, s.y, dist.num_classes, min_leaf=1)
    return gain


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--reps", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)

    print("best split gain under label-independent noise (balanced binary labels)")
    print(f"{'n':>8} {'mean':>10} {'p99':>10} {'max':>10}")
    for n in (50, 100, 500, 1000, 2000, 5000, 20000):
        g = np.array([noise_gain(rng, n) for _ in range(args.reps)])
        print(f"{n:>8} {g.mean():>10.5f} {np.percentile(g, 99):>10.5f} {g.max():>10.5f}")

    print("\nbest empirical root gain on the benchmark tasks")
    print(f"{'task':>8} {'n':>8} {'mean':>10} {'min':>10}")
    for name, dist in (("xor", xor()), ("rxor45", rxor(45.0)), ("quads", quads())):
        for n in (100, 1000, 5000, 20000):
            g = np.array([root_gain(dist, rng, n) for _ in range(max(10, args.reps // 5))])
            print(f"{name:>8} {n:>8} {g.mean():>10.5f} {g.min():>10.5f}")


if __name__ == "__main__":
    main()
