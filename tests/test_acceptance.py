"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one machine-greppable PASS/FAIL line.  Run with
``pytest tests/test_acceptance.py -v -s`` to see all of them.
"""

import time

import numpy as np
import pytest

import tasksim as T
from oracles import _pixel_grid, _ts_ats_from_table, locate_cells, mass_table, monte_carlo_similarity
from tasksim.cli import main as cli_main

DOM = (-1.0, 1.0, -1.0, 1.0)


def report(num: str, slug: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} [{slug}]: {status}{suffix}")


# ---------------------------------------------------------------------------
# 1. pairwise exact-value matrix + brute-force oracle


def test_criterion_1_pairwise_exact_matrix(four_builtins):
    t0 = time.perf_counter()
    matrices = T.analytic_matrix(four_builtins)
    elapsed = time.perf_counter() - t0
    a = matrices.ats_values
    names = list(matrices.names)
    ix, iq, ir,if_ = (names.index(n) for n in ("xor", "quads", "rxor45", "fxor"))
    expected = {
        (ix, iq): 1.0, (iq, ix): 1.0,
        (ix, ir): 0.0, (ir, ix): 0.0,
        (ix, if_): 1.0, (if_, ix): 0.0,
        (if_, ir): 0.0, (ir, if_): 0.5,
    }
    deviation = max(abs(a[pair] - want) for pair, want in expected.items())
    ok = deviation <= 1e-9 and elapsed < 1.0

    # independent oracle: dense pixel integration, no polygon clipping
    pts, pixel_area = _pixel_grid(DOM, 2000)
    located = [locate_cells(pts, d) for d in four_builtins]
    worst_oracle = 0.0
    for i, tgt in enumerate(four_builtins):
        dens = np.asarray(tgt.cell_mass) / np.asarray(tgt.partition.cell_areas())
        weights = dens[located[i]] * pixel_area
        for j, src in enumerate(four_builtins):
            keep = (located[i] >= 0) & (located[j] >= 0)
            table = mass_table(tgt, src, pts[keep], weights[keep],
                               located[i][keep], located[j][keep])
            ts_o, ats_o = _ts_ats_from_table(table, tie_tol=5e-3)
            worst_oracle = max(
                worst_oracle,
                abs(ts_o - matrices.ts_values[i, j]),
                abs(ats_o - matrices.ats_values[i, j]),
            )
    ok = ok and worst_oracle <= 1e-3

    # exact polygon-area hand calculation for the one fractional entry:
    # 8 off-diagonal fxor cells contribute 1/16 each, 8 diagonal-crossed
    # cells are (1/32, 1/32) ties
    res = T.ats(four_builtins[2], four_builtins[3])
    tied = T.near_best(res.masses).sum(axis=1) > 1
    hand_ok = (
        tied.sum() == 8
        and (~tied).sum() == 8
        and bool(np.all(np.abs(res.masses[~tied].max(axis=1) - 1 / 16) <= 1e-12))
        and np.allclose(res.masses[tied], [1 / 32, 1 / 32], atol=1e-12)
    )
    ok = ok and hand_ok
    report("1", "pairwise-exact-ats-matrix", ok,
           f"max dev {deviation:.2e}, oracle dev {worst_oracle:.2e}, "
           f"matrix time {elapsed * 1e3:.0f} ms")
    assert deviation <= 1e-9
    assert elapsed < 1.0
    assert worst_oracle <= 1e-3
    assert hand_ok


# ---------------------------------------------------------------------------
# 2. theorem property suites


def _random_grid_distribution(rng, n_max=8, k_max=4):
    n = int(rng.integers(1, n_max + 1))
    k = int(rng.integers(2, k_max + 1))
    return T.grid_distribution(n, labels=rng.integers(0, k, n * n).tolist(), num_classes=k)


def test_criterion_2_theorem_suites(dist_xor, dist_quads, dist_fxor):
    t0 = time.perf_counter()

    # (a) adjusted similarity never exceeds the unadjusted one
    rng = np.random.default_rng(20240817)
    ok_a = True
    for _ in range(200):
        a = _random_grid_distribution(rng)
        b = _random_grid_distribution(rng)
        ok_a &= T.ats(a, b).value <= T.ts(a, b).value + 1e-12

    # (b) shared optimal partition forces both directed values to 1
    ok_b = True
    for _ in range(50):
        n = int(rng.integers(1, 7))
        ka, kb = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        da = T.grid_distribution(n, labels=rng.integers(0, ka, n * n).tolist(), num_classes=ka)
        db = T.grid_distribution(n, labels=rng.integers(0, kb, n * n).tolist(), num_classes=kb)
        ok_b &= abs(T.ats(da, db).value - 1.0) <= 1e-9
        ok_b &= abs(T.ats(db, da).value - 1.0) <= 1e-9

    # (c) refining the source grid never hurts
    ok_c = True
    for dist in (dist_xor, dist_quads, dist_fxor):
        for n in range(1, 9):
            lo = T.ts(dist, T.grid_distribution(n)).value
            hi = T.ts(dist, T.grid_distribution(2 * n)).value
            ok_c &= hi >= lo - 1e-12

    # (d) closed form for xor against grids, plus a Monte Carlo cross-check
    ok_d = True
    for n in range(1, 32):
        value = T.ts(dist_xor, T.grid_distribution(n)).value
        want = 1.0 if n % 2 == 0 else ((n - 1) ** 2 + (2 * n - 1) / 2) / n**2
        ok_d &= abs(value - want) <= 1e-9
    mc_ts, _ = monte_carlo_similarity(dist_xor, T.grid_distribution(3), 10**6,
                                      np.random.default_rng(33))
    ok_d &= abs(mc_ts - 13 / 18) <= 0.01

    elapsed = time.perf_counter() - t0
    ok = ok_a and ok_b and ok_c and ok_d and elapsed < 30.0
    report("2", "theorem-property-suites", ok,
           f"a={ok_a} b={ok_b} c={ok_c} d={ok_d}, {elapsed:.1f} s")
    assert ok_a and ok_b and ok_c and ok_d
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 3. desiderata invariances


def test_criterion_3_invariances(four_builtins, dist_xor, dist_quads):
    t0 = time.perf_counter()
    rng = np.random.default_rng(31415)
    target = dist_xor
    worst = 0.0
    for dist in four_builtins:
        base_ts = T.ts(target, dist).value
        base_ats = T.ats(target, dist).value
        self_ts = T.ts(dist, target).value
        self_ats = T.ats(dist, target).value
        for _ in range(20):
            perm_src = rng.permutation(dist.num_classes)
            permuted = T.permute_labels(dist, perm_src.tolist())
            worst = max(worst, abs(T.ts(target, permuted).value - base_ts))
            worst = max(worst, abs(T.ats(target, permuted).value - base_ats))
            # permuting the target's labels as well
            perm_tgt = rng.permutation(dist.num_classes)
            tgt_perm = T.permute_labels(dist, perm_tgt.tolist())
            worst = max(worst, abs(T.ts(tgt_perm, target).value - self_ts))
            worst = max(worst, abs(T.ats(tgt_perm, target).value - self_ats))
    ok_perm = worst < 1e-12
    # k_target != k_source computes without error in both directions
    v1 = T.ts(dist_quads, dist_xor).value
    v2 = T.ats(dist_quads, dist_xor).value
    v3 = T.ts(dist_xor, dist_quads).value
    ok_k = all(0.0 <= v <= 1.0 + 1e-12 for v in (v1, v2, v3))
    elapsed = time.perf_counter() - t0
    ok = ok_perm and ok_k and elapsed < 10.0
    report("3", "label-permutation-invariance", ok,
           f"worst drift {worst:.1e}, {elapsed:.1f} s")
    assert ok_perm
    assert ok_k
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 4. empirical rank order at desk scale


def test_criterion_4_ets_rank_order(dist_xor, dist_quads, dist_rxor45):
    t0 = time.perf_counter()
    learner = T.LearnerConfig(kind="tree", depth=2)
    rep = T.empirical_matrix(
        [dist_xor, dist_quads, dist_rxor45],
        learner,
        n_train=5000,
        n_eval=2000,
        replications=30,
        base_seed=2001,
    )
    i, jq, jr = 0, 1, 2  # xor, quads, rxor45 as passed
    mq, hq = rep.mean[i, jq], rep.ci_halfwidth[i, jq]
    mr, hr = rep.mean[i, jr], rep.ci_halfwidth[i, jr]
    elapsed = time.perf_counter() - t0
    ok = (mq > mr) and (mq - hq > mr + hr) and elapsed < 120.0
    report("4", "ets-rank-order", ok,
           f"ETS(xor;quads)={mq:.4f}±{hq:.4f} > ETS(xor;rxor45)={mr:.4f}±{hr:.4f}, "
           f"{elapsed:.1f} s")
    assert mq > mr
    assert mq - hq > mr + hr, "90% confidence intervals overlap"
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 5. overpartitioning trend


def test_criterion_5_overpartitioning_trend(dist_xor, dist_rxor45):
    t0 = time.perf_counter()
    stats = {}
    for depth in (2, 6, 12):
        learner = T.LearnerConfig(kind="tree", depth=depth)
        rep = T.empirical_matrix(
            [dist_xor, dist_rxor45],
            learner,
            n_train=20000,
            n_eval=2000,
            replications=30,
            base_seed=3001,
        )
        i, j = 0, 1  # xor, rxor45 as passed
        values = rep.values[:, i, j]
        stats[depth] = (values.mean(), values.std(ddof=1) / np.sqrt(len(values)))
    ok_trend = True
    for a, b in ((2, 6), (6, 12)):
        mu_a, se_a = stats[a]
        mu_b, se_b = stats[b]
        ok_trend &= mu_b >= mu_a - 2 * np.hypot(se_a, se_b)
    ok_level = stats[12][0] >= 0.8
    elapsed = time.perf_counter() - t0
    ok = ok_trend and ok_level and elapsed < 180.0
    detail = ", ".join(f"d{d}={stats[d][0]:.4f}" for d in (2, 6, 12))
    report("5", "overpartitioning-trend", ok, f"{detail}, {elapsed:.1f} s")
    assert ok_trend, f"ETS not non-decreasing in depth: {stats}"
    assert ok_level, f"ETS at depth 12 below 0.8: {stats[12][0]:.4f}"
    assert elapsed < 180.0


# ---------------------------------------------------------------------------
# 6. transfer-efficiency sanity


def test_criterion_6a_shared_partition_transfer_helps(dist_xor, dist_quads):
    t0 = time.perf_counter()
    learner = T.LearnerConfig(kind="tree", depth=2)
    [rep] = T.transfer_experiment(
        dist_quads, dist_xor, learner,
        n_targets=[100], n_source=5000, n_eval=2000,
        replications=50, base_seed=4001,
    )
    sep = (rep.adapted.mean + rep.adapted.ci_halfwidth
           < rep.scratch.mean - rep.scratch.ci_halfwidth)
    elapsed = time.perf_counter() - t0
    ok = rep.te_ratio < 1.0 and sep and elapsed < 120.0
    report("6a", "transfer-shared-partition", ok,
           f"adapted={rep.adapted.mean:.4f}±{rep.adapted.ci_halfwidth:.4f} < "
           f"scratch={rep.scratch.mean:.4f}±{rep.scratch.ci_halfwidth:.4f}, "
           f"ratio={rep.te_ratio:.3f}, {elapsed:.1f} s")
    assert rep.te_ratio < 1.0
    assert sep, "90% confidence intervals overlap"
    assert elapsed < 120.0


def test_criterion_6b_orthogonal_transfer_ratio_band(dist_xor, dist_rxor45):
    """Adapted/scratch mean-risk ratio for the orthogonal pair lies in [0.9, 1.1].

    xor and rxor45 have ats = 0 both ways, so an orthogonal source should
    neither help nor hurt: the with-source learner, which sums the
    scratch tree's posteriors with those of the frozen rotated-task
    transformer refit on the same 100 target samples, must reach about
    the scratch risk.  The frozen source alone would not: its regions are
    class-balanced for the target, which pins its risk near one half.
    """
    learner = T.LearnerConfig(kind="tree", depth=2)
    [rep] = T.transfer_experiment(
        dist_rxor45, dist_xor, learner,
        n_targets=[100], n_source=5000, n_eval=2000,
        replications=50, base_seed=4501,
    )
    ratio = rep.te_ratio
    ok = 0.9 <= ratio <= 1.1
    report("6b", "transfer-orthogonal-ratio-band", ok,
           f"adapted={rep.adapted.mean:.4f}, scratch={rep.scratch.mean:.4f}, "
           f"ratio={ratio:.3f}, band [0.9, 1.1]")
    assert 0.9 <= ratio <= 1.1, (
        f"orthogonal-pair TE ratio {ratio:.3f} outside [0.9, 1.1]; "
        "see the transfer_experiment docstring for how the with-source learner is built"
    )


def test_criterion_6b_ratio_keeps_its_recorded_bits(dist_xor, dist_rxor45):
    # The ratio ROADMAP records for the band test above, bit for bit: a
    # one-size sweep draws and fits what that size on its own does.
    [rep] = T.transfer_experiment(
        dist_rxor45, dist_xor, T.LearnerConfig(kind="tree", depth=2),
        n_targets=[100], n_source=5000, n_eval=2000,
        replications=50, base_seed=4501,
    )
    assert rep.te_ratio.hex() == "0x1.0a177cb56bdcap+0"


# ---------------------------------------------------------------------------
# 7. CLI determinism


def test_criterion_7_cli_determinism(tmp_path):
    args = [
        "empirical-matrix", "--seed", "7", "--replications", "5",
        "--n-train", "1000", "--n-eval", "500",
    ]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    rc1 = cli_main(args + ["--out-dir", str(out1)])
    rc2 = cli_main(args + ["--out-dir", str(out2)])
    identical = True
    compared = 0
    for name in ("ets_mean.csv", "ets_ci90.csv", "ets_replications.csv"):
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        identical &= b1 == b2
        compared += 1
    ok = rc1 == 0 and rc2 == 0 and identical and compared == 3
    report("7", "cli-byte-identical-reruns", ok, f"{compared} CSVs compared")
    assert rc1 == 0 and rc2 == 0
    assert identical
