import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tasksim as T
from oracles import bayes_risk, box_polygon, locate_cells, write_samples_csv
from tasksim import distributions
from tasksim.distributions import (
    PROB_TOL,
    DistributionError,
    read_samples_csv,
    validate_distribution,
)
from tasksim.geometry import GeometryError


def bayes_labels(dist, X):
    """The Bayes rule at points that all lie in the domain: each one's cell label."""
    idx = locate_cells(np.atleast_2d(np.asarray(X, dtype=float)), dist)
    assert (idx >= 0).all()
    return dist.cell_labels[idx]


def bayes_label(dist, x):
    return bayes_labels(dist, [x])[0]


def test_xor_bayes_labels(dist_xor):
    assert bayes_label(dist_xor, (0.5, 0.5)) == 0
    assert bayes_label(dist_xor, (-0.5, -0.5)) == 0
    assert bayes_label(dist_xor, (-0.5, 0.5)) == 1
    assert bayes_label(dist_xor, (0.5, -0.5)) == 1


def test_quads_bayes_labels(dist_quads):
    # one class per quadrant, all distinct
    labels = {
        bayes_label(dist_quads, p)
        for p in [(0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)]
    }
    assert labels == {0, 1, 2, 3}


def test_bayes_label_outside_domain(dist_xor):
    assert locate_cells(np.array([[3.0, 0.0]]), dist_xor).tolist() == [-1]


def test_optimal_partition_shapes(four_builtins):
    xor, quads, rxor45, fxor = four_builtins
    assert len(xor.partition.cells) == 4
    assert len(quads.partition.cells) == 4
    assert len(rxor45.partition.cells) == 4
    assert len(fxor.partition.cells) == 16
    grid = T.grid_distribution(3)
    assert len(grid.partition.cells) == 9


def test_rxor_zero_degrees_equals_xor(dist_xor):
    r0 = T.rxor(0.0)
    # same cells (as sets) with the same labels
    for cell, cls in zip(r0.partition.cells, r0.cell_labels):
        center = cell.mean(axis=0)
        assert bayes_label(dist_xor, center) == cls
    assert T.is_subpartition(r0.partition, dist_xor.partition)
    assert T.is_subpartition(dist_xor.partition, r0.partition)


def test_rxor_wedges_split_quadrants(dist_rxor45):
    from tasksim.geometry import intersection_area

    quad = box_polygon((0, 1, 0, 1)).vertices
    areas = sorted(intersection_area(cell, quad) for cell in dist_rxor45.partition.cells)
    # the (+,+) quadrant is split 0.5/0.5 by the diagonal between two wedges
    assert areas == pytest.approx([0.0, 0.0, 0.5, 0.5], abs=1e-12)
    assert dist_rxor45.partition.cell_areas().tolist() == pytest.approx([1.0] * 4)


@pytest.mark.parametrize("theta", [0.0, 17.0, 30.0, 45.0, 60.0, 89.0])
def test_rxor_masses_are_the_partition_areas_over_the_domain_area(theta):
    d = T.rxor(theta)
    assert np.array_equal(d.cell_mass, d.partition.cell_areas() / 4)


def test_rxor_angle_validation():
    with pytest.raises(DistributionError):
        T.rxor(90.0)
    with pytest.raises(DistributionError):
        T.rxor(-5.0)
    T.rxor(89.0)  # fine
    for theta in (15.0, 30.0, 60.0):
        d = T.rxor(theta)
        assert T.validate_partition(d.partition).ok
        assert sum(d.partition.cell_areas()) == pytest.approx(4.0)


def test_builtin_lookup(four_builtins):
    assert T.builtin("xor").name == "xor"
    assert T.builtin("rxor", theta_deg=30).name == "rxor30"
    with pytest.raises(DistributionError):
        T.builtin("nope")


def test_fxor_is_checkerboard(dist_fxor):
    # neighbors along both axes disagree
    labels = np.asarray(dist_fxor.cell_labels).reshape(4, 4)
    assert (labels[:, 1:] != labels[:, :-1]).all()
    assert (labels[1:, :] != labels[:-1, :]).all()
    # xor within the (+,+) quadrant: its own (+,+) and (-,-) sub-cells share a class
    assert bayes_label(dist_fxor, (0.75, 0.75)) == bayes_label(dist_fxor, (0.25, 0.25))
    assert bayes_label(dist_fxor, (0.75, 0.25)) != bayes_label(dist_fxor, (0.25, 0.25))
    # and the sub-pattern matches across quadrants
    assert bayes_label(dist_fxor, (0.25, 0.25)) == bayes_label(dist_fxor, (-0.75, -0.75))


def test_bayes_risk_examples(dist_xor):
    assert bayes_risk(dist_xor) == 0.0
    one_cell = T.PartitionDistribution(
        T.make_grid_partition(1, (-1, 1, -1, 1)), [[0.9, 0.1]], [1.0]
    )
    assert bayes_risk(one_cell) == pytest.approx(0.1)
    two_cells = T.PartitionDistribution(
        _two_half_cells(), [[0.8, 0.2], [0.6, 0.4]], [0.5, 0.5]
    )
    # hand arithmetic: 0.5*0.2 + 0.5*0.4
    assert bayes_risk(two_cells) == pytest.approx(0.3)


def _two_half_cells():
    from tasksim.geometry import Partition

    return Partition(
        [box_polygon((0, 0.5, 0, 1)).vertices, box_polygon((0.5, 1, 0, 1)).vertices],
        (0, 1, 0, 1),
    )


def test_label_noise_sets_bayes_risk(dist_xor):
    for eta in (0.0, 0.05, 0.25):
        noisy = T.with_label_noise(dist_xor, eta)
        assert bayes_risk(noisy) == pytest.approx(eta)
        assert np.array_equal(noisy.cell_labels, dist_xor.cell_labels)


def test_cell_labels_computed_once_and_read_only():
    dist = T.with_label_noise(T.grid_distribution(30), 0.1)
    first = dist.cell_labels
    assert dist.cell_labels is first
    assert not first.flags.writeable
    assert np.array_equal(first, np.argmax(dist.labels_per_cell, axis=1))


def test_building_a_distribution_leaves_the_callers_arrays_writable():
    labels, mass = np.array([[0.8, 0.2], [0.4, 0.6]]), np.array([0.5, 0.5])
    dist = T.PartitionDistribution(_two_half_cells(), labels, mass)
    labels[0, 0], mass[0] = 0.1, 0.25  # the caller's arrays stay its own
    assert dist.labels_per_cell.tolist() == [[0.8, 0.2], [0.4, 0.6]]
    assert dist.cell_mass.tolist() == [0.5, 0.5]
    assert not dist.labels_per_cell.flags.writeable and not dist.cell_mass.flags.writeable


def test_a_read_only_table_that_owns_its_data_is_stored_without_a_copy():
    labels, mass = np.array([[0.8, 0.2], [0.4, 0.6]]), np.array([0.5, 0.5])
    labels.setflags(write=False)
    dist = T.PartitionDistribution(_two_half_cells(), labels, mass)
    assert np.shares_memory(dist.labels_per_cell, labels)
    assert not np.shares_memory(dist.cell_mass, mass)  # still writeable: copied
    # a read-only view of a writeable array could still change: copied
    view = mass.view()
    view.setflags(write=False)
    assert not np.shares_memory(T.PartitionDistribution(_two_half_cells(), labels, view).cell_mass,
                                mass)
    assert not labels.flags.writeable and mass.flags.writeable and not view.flags.writeable


def test_unique_argmax_enforced():
    with pytest.raises(DistributionError):
        T.PartitionDistribution(
            T.make_grid_partition(1, (-1, 1, -1, 1)), [[0.5, 0.5]], [1.0]
        )


@given(st.integers(1, 3), st.integers(2, 5), st.integers(1, 12), st.data())
@settings(max_examples=40, deadline=None)
def test_the_blocked_argmax_check_decides_as_a_whole_table_sort(n, k, block, data):
    gaps = st.sampled_from([0.0, 5e-10, 1e-9, 1.5e-9, 2e-9, 1e-3, 0.5])
    labels = np.zeros((n * n, k))
    for row in labels:
        gap = data.draw(gaps)
        first, second = data.draw(st.permutations(range(k)))[:2]
        row[first], row[second] = 0.5 + gap / 2, 0.5 - gap / 2
    top2 = np.sort(labels, axis=1)[:, -2:]
    unique = not (np.diff(top2, axis=1) <= PROB_TOL).any()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distributions, "_BLOCK_ENTRIES", block)
        try:
            T.PartitionDistribution(T.make_grid_partition(n), labels, np.full(n * n, 1 / n**2))
            accepted = True
        except DistributionError as e:
            assert "argmax" in str(e)
            accepted = False
    assert accepted == unique


def test_the_argmax_check_does_not_copy_the_table():
    # 2048 cells of a 64 x 32 grid, each its own class: a 32 MiB one-hot table.
    xs, ys = np.linspace(-1, 1, 65), np.linspace(-1, 1, 33)
    boxes = np.column_stack((np.tile(xs[:-1], 32), np.tile(xs[1:], 32),
                             np.repeat(ys[:-1], 64), np.repeat(ys[1:], 64)))
    part = T.Partition.from_boxes(boxes, (-1.0, 1.0, -1.0, 1.0))
    labels = distributions._one_hot(range(2048), 2048)
    mass = np.full(2048, 1 / 2048)
    tracemalloc.start()
    try:
        dist = T.PartitionDistribution(part, labels, mass)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist.labels_per_cell is labels
    assert peak < labels.nbytes / 4


def test_sample_empty(dist_xor):
    s = T.sample(dist_xor, 0, np.random.default_rng(0))
    assert len(s) == 0


def test_sample_points_in_their_cells(dist_rxor45):
    rng = np.random.default_rng(1)
    s = T.sample(dist_rxor45, 2000, rng)
    idx = locate_cells(s.X, dist_rxor45)
    assert (idx >= 0).all()
    # labels consistent with the sampled cell for this pure distribution
    assert np.array_equal(dist_rxor45.cell_labels[idx], s.y)


def test_sample_class_frequency(dist_xor):
    rng = np.random.default_rng(2)
    s = T.sample(dist_xor, 10000, rng)
    assert abs((s.y == 0).mean() - 0.5) < 0.02


def test_sample_cell_occupancy_matches_mass(four_builtins):
    rng = np.random.default_rng(3)
    n = 50000
    for dist in four_builtins:
        s = T.sample(dist, n, rng)
        idx = locate_cells(s.X, dist)
        counts = np.bincount(idx, minlength=len(dist.partition.cells))
        for c, (obs, p) in enumerate(zip(counts, dist.cell_mass)):
            sigma = np.sqrt(n * p * (1 - p))
            assert abs(obs - n * p) <= 3 * sigma + 1, f"{dist.name} cell {c}"


def test_bayes_label_constant_within_cells(four_builtins):
    rng = np.random.default_rng(4)
    for dist in four_builtins:
        part = dist.partition
        for i, count in enumerate(part.vertex_counts):
            v = part.cell_vertices[i, :count]
            tri = np.stack([np.repeat(v[:1], count - 2, axis=0), v[1:-1], v[2:]], axis=1)
            pts = []
            # random interior points via barycentric draws over the fan triangles
            for _ in range(100):
                t = tri[rng.integers(tri.shape[0])]
                w = rng.dirichlet([2.0, 2.0, 2.0])  # biased away from edges
                pts.append(w @ t)
            got = bayes_labels(dist, pts)
            assert (got == dist.cell_labels[i]).all()


def test_permute_labels(dist_xor, dist_quads):
    ident = T.permute_labels(dist_quads, [0, 1, 2, 3])
    assert np.array_equal(ident.labels_per_cell, dist_quads.labels_per_cell)
    swapped = T.permute_labels(dist_xor, [1, 0])
    assert swapped.partition is dist_xor.partition
    back = T.permute_labels(swapped, [1, 0])
    assert np.array_equal(back.labels_per_cell, dist_xor.labels_per_cell)
    with pytest.raises(DistributionError):
        T.permute_labels(dist_xor, [0, 0])


@given(st.permutations(list(range(4))))
@settings(max_examples=24, deadline=None)
def test_permute_labels_never_moves_geometry(perm):
    quads = T.quads()
    permuted = T.permute_labels(quads, perm)
    assert permuted.partition is quads.partition
    assert abs(bayes_risk(permuted) - bayes_risk(quads)) < 1e-12


def test_distribution_json_roundtrip(tmp_path, dist_fxor):
    path = tmp_path / "fxor.json"
    path.write_text(json.dumps(dist_fxor.to_json_dict()))
    loaded = T.load_distribution(str(path))
    assert loaded.num_classes == 2
    assert np.allclose(loaded.labels_per_cell, dist_fxor.labels_per_cell)
    assert np.allclose(loaded.cell_mass, dist_fxor.cell_mass)
    assert loaded.name == "fxor"


def test_read_samples_csv_rejects_ragged(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("f0,f1,y,t\n0.1,0.2,1,1\n0.3,0,1\n")
    with pytest.raises(DistributionError):
        read_samples_csv(str(path))
    garbled = tmp_path / "garbled.csv"
    garbled.write_text("0.1,oops,1,1\n")
    with pytest.raises(DistributionError):
        read_samples_csv(str(garbled))


BAD_SAMPLE_ROWS = {
    "nan-feature": ("nan,0.2,1,1", "feature values must be finite"),
    "inf-feature": ("0.1,-inf,1,1", "feature values must be finite"),
    "fractional-label": ("0.1,0.2,1.7,1", "label '1.7' is not a non-negative integer"),
    "negative-label": ("0.1,0.2,-1,1", "label '-1' is not a non-negative integer"),
    "fractional-flag": ("0.1,0.2,1,0.5", "task flag '0.5' must be 0 or 1"),
    "header-like-row": ("foo,0.3,1,1", "could not convert string to float: 'foo'"),
}


@pytest.mark.parametrize("case", sorted(BAD_SAMPLE_ROWS))
def test_read_samples_csv_rejects_bad_values(tmp_path, case):
    row, message = BAD_SAMPLE_ROWS[case]
    path = tmp_path / "bad.csv"
    path.write_text(f"f0,f1,y,t\n0.3,0.4,0,1\n{row}\n")
    with pytest.raises(DistributionError, match=f"^{re.escape(str(path))}:3: {re.escape(message)}$"):
        read_samples_csv(str(path))


def test_samples_csv_roundtrip(tmp_path, dist_xor):
    s = T.sample(dist_xor, 50, np.random.default_rng(0))
    path = tmp_path / "s.csv"
    write_samples_csv(s, str(path))
    loaded = read_samples_csv(str(path))
    assert np.allclose(loaded.X, s.X)
    assert np.array_equal(loaded.y, s.y)
    with open(path) as fh:
        assert fh.readline().strip() == "f0,f1,y,t"


def test_validate_distribution_minimality_warning():
    # two half-cells with the same class: mergeable, so not minimal
    dist = T.PartitionDistribution(_two_half_cells(), [[1, 0], [1, 0]], [0.5, 0.5])
    issues = validate_distribution(dist)
    assert any("not be minimal" in msg for msg in issues)
    assert not validate_distribution(T.xor())  # adjacent xor cells differ in class


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_validate_distribution_rejects_bad_tol(tol):
    # max(tol, 1e-9) would turn -1 into a valid floor and keep nan
    with pytest.raises(GeometryError, match="tol must be finite and non-negative"):
        validate_distribution(T.xor(), tol=tol)


def test_validate_distribution_clean(four_builtins):
    for dist in four_builtins:
        assert validate_distribution(dist) == []


@pytest.mark.parametrize("X, y", [
    (np.zeros((3, 2, 2)), np.zeros(3, int)),
    (np.zeros((3, 2)), np.zeros((3, 1), int)),
])
def test_sample_set_refuses_anything_but_n_by_d_features_and_n_labels(X, y):
    with pytest.raises(DistributionError, match=r"shape \(n, d\)"):
        T.SampleSet(X, y)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -2e-9])
def test_a_non_finite_or_negative_probability_is_refused(value):
    # Read from the table's extremes: one bad entry anywhere must show.
    labels = np.array([[1.0, 0.0], [0.0, 1.0], [0.3, 0.7], [0.6, 0.4]])
    labels[2, 1] = value
    with pytest.raises(DistributionError, match="must be finite and nonnegative"):
        T.PartitionDistribution(T.make_grid_partition(2), labels, np.full(4, 0.25))


def test_tolerated_negative_probabilities_are_stored_as_zero():
    part = T.make_grid_partition(2, (-1.0, 1.0, -1.0, 1.0))
    labels = np.array([[1.0 + 5e-10, -5e-10], [0.0, 1.0], [-0.0, 1.0], [0.5005, 0.4995]])
    mass = np.array([0.1, 0.2, 0.7 + 5e-10, -5e-10])
    dist = T.PartitionDistribution(part, labels, mass)
    assert dist.cell_mass.tolist() == [0.1, 0.2, 0.7 + 5e-10, 0.0]
    assert dist.labels_per_cell[0].tolist() == [1.0 + 5e-10, 0.0]
    assert np.signbit(dist.labels_per_cell[2, 0])  # -0.0 is not negative: kept as given
    assert mass[3] == -5e-10 and labels[0, 1] == -5e-10  # the caller's arrays are not changed
    with pytest.raises(DistributionError, match="nonnegative"):
        T.PartitionDistribution(part, labels, [0.1, 0.2, 0.7 + 2e-9, -2e-9])
