import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tasksim as T
from oracles import brute_force_similarity, monte_carlo_similarity
from tasksim import distributions, similarity
from tasksim.distributions import DistributionError, PartitionDistribution
from tasksim.geometry import GeometryError
from tasksim.similarity import label_mass_profiles, near_best


def test_profiles_quads_source_of_xor(dist_xor, dist_quads):
    masses = T.label_mass_profiles(dist_xor, dist_quads)
    assert masses.shape == (4, 2)
    assert masses.sum(axis=1) == pytest.approx([0.25] * 4)
    assert masses.max(axis=1) == pytest.approx([0.25] * 4)
    assert (T.near_best(masses).sum(axis=1) == 1).all()
    assert np.sort(masses, axis=1)[:, 0] == pytest.approx([0.0] * 4, abs=1e-12)


def test_profiles_rxor_source_of_xor(dist_xor, dist_rxor45):
    masses = T.label_mass_profiles(dist_xor, dist_rxor45)
    for row, ties in zip(masses, T.near_best(masses)):
        # each wedge splits evenly across the two xor classes
        assert row == pytest.approx([0.125, 0.125], abs=1e-12)
        assert ties.sum() > 1


def test_profiles_self_are_one_hot(four_builtins):
    for dist in four_builtins:
        masses = T.label_mass_profiles(dist, dist)
        assert masses.max(axis=1) == pytest.approx(masses.sum(axis=1), abs=1e-12)
        assert (T.near_best(masses).sum(axis=1) == 1).all()


def test_profile_masses_sum_to_one(four_builtins):
    for tgt in four_builtins:
        for src in four_builtins:
            masses = T.label_mass_profiles(tgt, src)
            assert masses.shape == (len(src.partition.cells), tgt.num_classes)
            assert masses.sum() == pytest.approx(1.0, abs=1e-9)


def test_domain_mismatch_rejected(dist_xor):
    other = T.grid_distribution(2, domain=(0, 1, 0, 1))
    with pytest.raises(GeometryError):
        T.ts(dist_xor, other)


def test_domains_must_agree_to_1e_12_absolute():
    square = T.grid_distribution(2, domain=(0.0, 1000.0, 0.0, 1000.0))
    # 9e-6 of the coordinate, inside numpy's default rtol of 1e-5.
    wider = T.grid_distribution(2, domain=(0.0, 1000.009, 0.0, 1000.0))
    for target, source in ((square, wider), (wider, square)):
        with pytest.raises(GeometryError, match="different domains"):
            T.ts(target, source)
        with pytest.raises(GeometryError, match="different domains"):
            T.analytic_matrix([target, source])
    for xmax in (1000.0, 1000.0 + 5e-13):
        near = T.grid_distribution(2, domain=(0.0, xmax, 0.0, 1000.0))
        assert T.ts(square, near).value == pytest.approx(1.0, abs=1e-12)
        assert T.ats(near, square).value == pytest.approx(1.0, abs=1e-12)


def test_ts_exact_values(dist_xor, dist_quads, dist_rxor45):
    assert T.ts(dist_xor, dist_quads).value == pytest.approx(1.0, abs=1e-12)
    assert T.ts(dist_xor, dist_rxor45).value == pytest.approx(0.5, abs=1e-12)
    assert T.ts(dist_xor, T.grid_distribution(3)).value == pytest.approx(13 / 18, abs=1e-12)


def test_ts_xor_rxor_monte_carlo_oracle(dist_xor, dist_rxor45):
    mc_ts, _ = monte_carlo_similarity(
        dist_xor, dist_rxor45, 10**6, np.random.default_rng(5)
    )
    assert T.ts(dist_xor, dist_rxor45).value == pytest.approx(mc_ts, abs=0.01)


def test_ats_exact_values(dist_xor, dist_rxor45, dist_fxor):
    assert T.ats(dist_xor, dist_rxor45).value == pytest.approx(0.0, abs=1e-12)
    assert T.ats(dist_fxor, dist_xor).value == pytest.approx(0.0, abs=1e-12)
    assert T.ats(dist_xor, dist_fxor).value == pytest.approx(1.0, abs=1e-12)
    res = T.ats(dist_rxor45, dist_fxor)
    assert res.value == pytest.approx(0.5, abs=1e-12)
    # 8 diagonal-crossed grid cells are tied, 8 off-diagonal cells contribute 1/16
    assert res.excluded_mass == pytest.approx(0.5, abs=1e-12)
    tied = T.near_best(res.masses).sum(axis=1) > 1
    assert tied.sum() == 8
    assert res.masses[~tied].max(axis=1) == pytest.approx([1 / 16] * 8, abs=1e-12)


def test_ats_rxor_fxor_area_oracle(dist_rxor45, dist_fxor):
    ts_o, ats_o = brute_force_similarity(dist_rxor45, dist_fxor, resolution=800)
    assert T.ts(dist_rxor45, dist_fxor).value == pytest.approx(ts_o, abs=2e-3)
    assert T.ats(dist_rxor45, dist_fxor).value == pytest.approx(ats_o, abs=2e-3)


def test_ats_value_plus_excluded_bounded(four_builtins):
    for tgt in four_builtins:
        for src in four_builtins:
            res = T.ats(tgt, src)
            assert res.value + res.excluded_mass <= 1 + 1e-9
            assert res.value <= 1 + 1e-12


def test_ats_tie_tol_has_one_answer(dist_xor):
    # 0.1 exceeds every cell's mass (0.04), so every cell is tied
    res = T.ats(dist_xor, T.grid_distribution(5), tie_tol=0.1)
    assert res.value == 0.0
    assert res.excluded_mass == pytest.approx(1.0, abs=1e-12)
    m = T.analytic_matrix([dist_xor, T.grid_distribution(5)], tie_tol=0.1)
    assert m.ats_values[0, 1] == 0.0
    assert m.excluded_mass[0, 1] == res.excluded_mass


@pytest.mark.parametrize("tie_tol", [float("nan"), -1.0, float("inf")])
def test_bad_tie_tol_rejected(dist_xor, dist_quads, tie_tol):
    masses = T.label_mass_profiles(dist_xor, dist_quads)
    for call in (
        lambda: T.near_best(masses, tie_tol),
        lambda: T.ats(dist_xor, dist_quads, tie_tol),
        lambda: T.analytic_matrix([dist_xor, dist_quads], tie_tol=tie_tol),
    ):
        with pytest.raises(GeometryError, match="tie_tol"):
            call()


def test_adversarial_predicates(dist_xor, dist_quads, dist_rxor45, dist_fxor):
    assert T.is_adversarial(dist_fxor, dist_xor)
    assert not T.is_adversarial(dist_xor, dist_quads)
    assert not T.is_adversarial(dist_xor, dist_xor)
    assert T.are_orthogonal(dist_xor, dist_rxor45)
    assert not T.are_orthogonal(dist_xor, dist_fxor)  # one direction equals 1
    assert not T.are_orthogonal(dist_xor, dist_xor)


def test_analytic_matrix_diagonal_and_shape(four_builtins):
    m = T.analytic_matrix(four_builtins)
    assert m.names == ("xor", "quads", "rxor45", "fxor")
    assert np.allclose(np.diag(m.ts_values), 1.0, atol=1e-12)
    assert np.allclose(np.diag(m.ats_values), 1.0, atol=1e-12)


def test_analytic_matrix_label_permutation_all_ones(dist_xor):
    m = T.analytic_matrix([dist_xor, T.permute_labels(dist_xor, [1, 0])])
    assert np.allclose(m.ts_values, 1.0, atol=1e-12)
    assert np.allclose(m.ats_values, 1.0, atol=1e-12)


def test_different_class_counts(dist_xor, dist_quads):
    # k_target=4 vs k_source=2 and vice versa both compute
    assert T.ts(dist_quads, dist_xor).value == pytest.approx(1.0, abs=1e-12)
    assert T.ats(dist_quads, dist_xor).value == pytest.approx(1.0, abs=1e-12)
    assert T.ts(dist_xor, dist_quads).value == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# theorem-driven properties


def random_grid_distribution(rng, n_max=8, k_max=4):
    n = int(rng.integers(1, n_max + 1))
    k = int(rng.integers(2, k_max + 1))
    labels = rng.integers(0, k, size=n * n)
    return T.grid_distribution(n, labels=labels.tolist(), num_classes=k)


def test_ats_le_ts_on_random_grid_pairs():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        a = random_grid_distribution(rng)
        b = random_grid_distribution(rng)
        assert T.ats(a, b).value <= T.ts(a, b).value + 1e-12


def test_same_partition_pairs_have_ats_one():
    rng = np.random.default_rng(77)
    for _ in range(15):
        n = int(rng.integers(1, 7))
        a = T.grid_distribution(n, labels=rng.integers(0, 3, n * n).tolist(), num_classes=3)
        b = T.grid_distribution(n, labels=rng.integers(0, 5, n * n).tolist(), num_classes=5)
        assert T.ats(a, b).value == pytest.approx(1.0, abs=1e-9)
        assert T.ats(b, a).value == pytest.approx(1.0, abs=1e-9)


def test_ts_one_iff_source_refines_target(dist_xor, dist_fxor):
    # fxor's grid refines the quadrants, so ts(xor, fxor) = 1
    assert T.ts(dist_xor, dist_fxor).value == pytest.approx(1.0, abs=1e-12)
    assert T.is_subpartition(dist_fxor.partition, dist_xor.partition)
    # the reverse direction is strictly below 1
    assert T.ts(dist_fxor, dist_xor).value < 1 - 1e-6


def test_nested_grids_monotone(dist_xor, dist_quads, dist_fxor):
    for dist in (dist_xor, dist_quads, dist_fxor):
        for n in range(1, 9):
            lo = T.ts(dist, T.grid_distribution(n)).value
            hi = T.ts(dist, T.grid_distribution(2 * n)).value
            assert hi >= lo - 1e-12


def test_ts_xor_grid_closed_form(dist_xor):
    for n in range(1, 20):
        value = T.ts(dist_xor, T.grid_distribution(n)).value
        if n % 2 == 0:
            assert value == pytest.approx(1.0, abs=1e-9)
        else:
            expected = ((n - 1) ** 2 + (2 * n - 1) / 2) / n**2
            assert value == pytest.approx(expected, abs=1e-9)


def test_ts_converges_to_one_with_shrinking_cells(dist_rxor45):
    # odd grids never refine the wedges, yet ts climbs toward 1
    values = [T.ts(dist_rxor45, T.grid_distribution(n)).value for n in (3, 7, 11, 21)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] > 0.9


@st.composite
def grid_dist_and_perms(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(2, 4))
    labels = draw(st.lists(st.integers(0, k - 1), min_size=n * n, max_size=n * n))
    perm = draw(st.permutations(list(range(k))))
    return T.grid_distribution(n, labels=labels, num_classes=k), perm


@given(grid_dist_and_perms())
@settings(max_examples=25, deadline=None)
def test_label_permutation_invariance_random(dist_and_perm):
    src, perm = dist_and_perm
    tgt = T.xor()
    base_ts = T.ts(tgt, src).value
    base_ats = T.ats(tgt, src).value
    permuted = T.permute_labels(src, perm)
    assert abs(T.ts(tgt, permuted).value - base_ts) < 1e-12
    assert abs(T.ats(tgt, permuted).value - base_ats) < 1e-12
    # permuting the target's labels leaves the values unchanged too
    tgt_perm = T.permute_labels(tgt, [1, 0])
    assert abs(T.ts(tgt_perm, src).value - base_ts) < 1e-12
    assert abs(T.ats(tgt_perm, src).value - base_ats) < 1e-12


def test_dense_tables_over_the_limit_are_refused_before_allocating(monkeypatch):
    two_class = T.grid_distribution(4, labels=[i % 2 for i in range(16)], num_classes=2)
    monkeypatch.setattr(distributions, "MAX_TABLE_ENTRIES", 31)
    with pytest.raises(DistributionError, match="label table of 9 cells x 9 classes"):
        T.grid_distribution(3)
    with pytest.raises(DistributionError, match="'grid4' <- 'grid4' of 16 cells x 2 classes"):
        label_mass_profiles(two_class, two_class)
    monkeypatch.setattr(distributions, "MAX_TABLE_ENTRIES", 32)
    assert label_mass_profiles(two_class, two_class).shape == (16, 2)


# ---------------------------------------------------------------------------
# the whole matrix in one pass


def twelve_gon_task(labels: list[int], k: int) -> PartitionDistribution:
    """A JSON distribution on [-1, 1]^2: a 12-gon of radius 0.3 at the
    centre, and the rays through its vertices cutting the rest of the
    square into 12 cells.  Cell c's Bayes class is labels[c]."""
    angles = np.radians(np.arange(12) * 30.0)
    inner = 0.3 * np.column_stack((np.cos(angles), np.sin(angles)))
    rim = np.column_stack((np.cos(angles), np.sin(angles)))
    rim /= np.abs(rim).max(axis=1, keepdims=True)
    corners = {1: [[1.0, 1.0]], 4: [[-1.0, 1.0]], 7: [[-1.0, -1.0]], 10: [[1.0, -1.0]]}
    cells = [inner.tolist()]
    for i in range(12):
        j = (i + 1) % 12
        cells.append([inner[i].tolist(), rim[i].tolist(), *corners.get(i, []),
                      rim[j].tolist(), inner[j].tolist()])
    probs = np.full((13, k), 0.1 / k)
    probs[np.arange(13), labels] += 0.9
    mass = np.arange(1.0, 14.0)
    return PartitionDistribution.from_json_dict({
        "domain": [-1.0, 1.0, -1.0, 1.0], "cells": cells, "labels": probs.tolist(),
        "mass": (mass / mass.sum()).tolist(), "name": "twelve-gon",
    })


@st.composite
def distribution_lists(draw):
    """0 to 4 distributions: builtins, rxor(theta), grid(n) with one class
    per cell, grids with random labels over 1 to 4 classes, and the 12-gon
    task over 1 to 5 classes."""
    dists = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["builtin", "rxor", "grid", "labelled grid", "12-gon"]))
        if kind == "builtin":
            dists.append(T.builtin(draw(st.sampled_from(distributions.BUILTIN_NAMES))))
        elif kind == "rxor":
            dists.append(T.rxor(draw(st.integers(1, 89))))
        elif kind == "grid":
            dists.append(T.grid_distribution(draw(st.integers(1, 6))))
        else:
            n, k = (13, draw(st.integers(1, 5))) if kind == "12-gon" else (
                draw(st.integers(1, 5)) ** 2, draw(st.integers(1, 4)))
            labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
            dists.append(twelve_gon_task(labels, k) if kind == "12-gon" else
                         T.grid_distribution(math.isqrt(n), labels=labels, num_classes=k))
    return dists


def sequential_sum(values: np.ndarray) -> float:
    total = 0.0
    for v in values.tolist():
        total += v
    return total


@given(distribution_lists())
@example([])
@example([T.fxor()])
@settings(max_examples=40, deadline=None)
def test_analytic_matrix_equals_every_pair_on_its_own(dists):
    calls = {"overlapping_pairs": 0, "pair_intersection_areas": 0}

    def counted(name):
        fn = getattr(similarity, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            mp.setattr(similarity, name, counted(name))
        got = T.analytic_matrix(dists)
    assert calls == dict.fromkeys(calls, 1 if dists else 0)
    m = len(dists)
    assert got.ts_values.shape == got.ats_values.shape == got.excluded_mass.shape == (m, m)
    assert len(got.masses) == m
    for i, tgt in enumerate(dists):
        assert len(got.masses[i]) == m
        for j, src in enumerate(dists):
            masses = label_mass_profiles(tgt, src)
            assert masses.shape == (len(src.partition.vertex_counts), tgt.num_classes)
            assert np.array_equal(got.masses[i][j], masses)
            ts, ats = T.ts(tgt, src), T.ats(tgt, src)
            # Both sum their rows one after another, as Python's sum did.
            tied = near_best(masses).sum(axis=1) > 1
            assert got.ts_values[i, j] == ts.value == sequential_sum(masses.max(axis=1))
            assert got.ats_values[i, j] == ats.value == sequential_sum(masses.max(axis=1)[~tied])
            assert got.excluded_mass[i, j] == ats.excluded_mass \
                == sequential_sum(masses.sum(axis=1)[tied])
