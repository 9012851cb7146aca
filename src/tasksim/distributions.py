"""Partition-defined classification distributions.

A distribution is a partition of a box domain plus, per cell, a class
probability vector and a marginal probability mass.  Density is uniform
within each cell, which makes every integral used by the similarity
measures an exact polygon area.

Labels are integers 0..k-1.  The four standard two-dimensional benchmark
distributions (xor, quads, rxor, fxor) live on [-1, 1]^2 with a uniform
overall marginal.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import (
    Box,
    ConvexPolygon,
    GeometryError,
    HalfPlane,
    Partition,
    check_tolerance,
    clip_convex_polygon,
    make_grid_partition,
    overlapping_pairs,
    validate_partition,
)

PROB_TOL = 1e-9
# Largest distance between two edges that still counts as a shared boundary.
_COLLINEAR_TOL = 1e-9


class DistributionError(ValueError):
    pass


class SampleSet:
    """Column-oriented batch of labeled samples.

    X has shape (n, d); y and t have shape (n,); t is the task flag,
    0 for source and 1 for target samples.  Indexing with a slice, mask
    or index array returns a new SampleSet.
    """

    __slots__ = ("X", "y", "t")

    def __init__(self, X: np.ndarray, y: np.ndarray, t: Optional[np.ndarray] = None):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=int)
        if t is None:
            t = np.ones(y.shape[0], dtype=int)
        t = np.asarray(t, dtype=int)
        if X.shape[0] != y.shape[0] or y.shape[0] != t.shape[0]:
            raise DistributionError("X, y, t must have matching lengths")
        self.X, self.y, self.t = X, y, t

    def __len__(self) -> int:
        return self.X.shape[0]

    def __getitem__(self, idx) -> "SampleSet":
        return SampleSet(self.X[idx], self.y[idx], self.t[idx])

    @property
    def dim(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class PartitionDistribution:
    """Piecewise-uniform classification distribution on a partitioned box.

    labels_per_cell[i] is the class-probability vector inside cell i and
    cell_mass[i] the marginal probability of landing in cell i.  The
    stored partition is, by constructor contract, the optimal partition:
    adjacent cells with the same majority class stand for distinct
    connected parts (as with the two class-0 quadrants of xor).
    """

    partition: Partition
    labels_per_cell: np.ndarray
    cell_mass: np.ndarray
    num_classes: int
    name: str = "distribution"

    def __init__(
        self,
        partition: Partition,
        labels_per_cell: Sequence[Sequence[float]],
        cell_mass: Sequence[float],
        num_classes: Optional[int] = None,
        name: str = "distribution",
    ):
        labels = np.asarray(labels_per_cell, dtype=float)
        mass = np.asarray(cell_mass, dtype=float)
        if labels.ndim != 2 or labels.shape[0] != len(partition.cells):
            raise DistributionError("need one class-probability vector per cell")
        if mass.shape != (len(partition.cells),):
            raise DistributionError("need one marginal mass per cell")
        k = labels.shape[1] if num_classes is None else int(num_classes)
        if k < labels.shape[1]:
            raise DistributionError("num_classes smaller than probability vectors")
        if k > labels.shape[1]:
            labels = np.hstack([labels, np.zeros((labels.shape[0], k - labels.shape[1]))])
        if (labels < -PROB_TOL).any():
            raise DistributionError("class probabilities must be nonnegative")
        if np.abs(labels.sum(axis=1) - 1.0).max() > PROB_TOL:
            raise DistributionError("each class-probability vector must sum to 1")
        if (mass < -PROB_TOL).any() or abs(mass.sum() - 1.0) > PROB_TOL:
            raise DistributionError("cell masses must be nonnegative and sum to 1")
        top2 = np.sort(labels, axis=1)[:, -2:]
        if labels.shape[1] > 1 and (top2[:, 1] - top2[:, 0] <= PROB_TOL).any():
            raise DistributionError("per-cell argmax class must be unique")
        labels.setflags(write=False)
        mass.setflags(write=False)
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "labels_per_cell", labels)
        object.__setattr__(self, "cell_mass", mass)
        object.__setattr__(self, "num_classes", k)
        object.__setattr__(self, "name", name)

    @property
    def cell_labels(self) -> np.ndarray:
        """Majority (Bayes) class per cell."""
        return np.argmax(self.labels_per_cell, axis=1)

    def to_json_dict(self) -> dict:
        d = self.partition.to_json_dict()
        d["labels"] = self.labels_per_cell.tolist()
        d["mass"] = self.cell_mass.tolist()
        d["name"] = self.name
        return d

    @classmethod
    def from_json_dict(cls, data: dict) -> "PartitionDistribution":
        part = Partition.from_json_dict(data)
        try:
            labels = data["labels"]
            mass = data["mass"]
        except KeyError as exc:
            raise DistributionError(f"distribution JSON missing field: {exc}") from exc
        return cls(part, labels, mass, name=data.get("name", "distribution"))


def validate_distribution(dist: PartitionDistribution, tol: float = 1e-9) -> list[str]:
    """Partition diagnostics plus a minimality warning.

    Adjacent cells sharing the same Bayes class are legal (they encode
    distinct connected parts), but when they share a positive-length
    boundary the stored partition may not be minimal, which changes the
    similarity values; a warning is returned rather than merging cells.
    """
    check_tolerance("tol", tol)
    issues: list[str] = []
    diag = validate_partition(dist.partition, tol=max(tol, 1e-9))
    if not diag.ok:
        issues.append(
            f"partition fails: coverage_gap={diag.coverage_gap:.3g} "
            f"max_overlap={diag.max_overlap:.3g} max_outside={diag.max_outside:.3g}"
        )
    labels = dist.cell_labels
    cells = dist.partition.cells
    bounds = dist.partition.cell_bounds
    # Edges within _COLLINEAR_TOL can share a boundary; twice it absorbs rounding.
    pad = 2 * _COLLINEAR_TOL
    first, second = overlapping_pairs(bounds + (-pad, pad, -pad, pad), bounds)
    same = (first < second) & (labels[first] == labels[second])
    for i, j in zip(first[same].tolist(), second[same].tolist()):
        if _share_boundary(cells[i], cells[j]):
            issues.append(
                f"cells {i} and {j} are adjacent with the same majority class "
                f"{labels[i]}; stored partition may not be minimal"
            )
    return issues


def _share_boundary(p: ConvexPolygon, q: ConvexPolygon) -> bool:
    """True when two disjoint-interior polygons share a positive-length edge piece."""
    for a, b in _edges(p):
        for c, d in _edges(q):
            if _collinear_overlap(a, b, c, d) > _COLLINEAR_TOL:
                return True
    return False


def _edges(poly: ConvexPolygon):
    v = poly.vertices
    for i in range(v.shape[0]):
        yield v[i], v[(i + 1) % v.shape[0]]


def _collinear_overlap(a, b, c, d) -> float:
    u = b - a
    ln = np.hypot(*u)
    if ln < 1e-15:
        return 0.0
    un = u / ln
    # Both endpoints of (c, d) must lie on the line through (a, b).
    for p in (c, d):
        if abs(un[0] * (p[1] - a[1]) - un[1] * (p[0] - a[0])) > _COLLINEAR_TOL:
            return 0.0
    t1, t2 = np.dot(c - a, un), np.dot(d - a, un)
    lo, hi = min(t1, t2), max(t1, t2)
    return max(0.0, min(hi, ln) - max(lo, 0.0))


# ---------------------------------------------------------------------------
# queries


def bayes_labels(dist: PartitionDistribution, X: np.ndarray) -> np.ndarray:
    """Vectorized Bayes rule: argmax class of the containing cell."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    idx = dist.partition.locate(X)
    if (idx < 0).any():
        raise DistributionError("pattern outside the domain of the distribution")
    return dist.cell_labels[idx]


def bayes_label(dist: PartitionDistribution, x) -> int:
    return int(bayes_labels(dist, np.asarray(x, dtype=float).reshape(1, -1))[0])


def bayes_risk(dist: PartitionDistribution) -> float:
    """Sum over cells of mass * (1 - max class probability)."""
    return float(np.dot(dist.cell_mass, 1.0 - dist.labels_per_cell.max(axis=1)))


def permute_labels(dist: PartitionDistribution, perm: Sequence[int]) -> PartitionDistribution:
    """Relabel classes by a permutation of 0..k-1; geometry is untouched."""
    perm = np.asarray(perm, dtype=int)
    k = dist.num_classes
    if sorted(perm.tolist()) != list(range(k)):
        raise DistributionError("perm must be a permutation of 0..k-1")
    new_labels = np.zeros_like(dist.labels_per_cell)
    new_labels[:, perm] = dist.labels_per_cell
    return PartitionDistribution(
        dist.partition, new_labels, dist.cell_mass, k, name=f"{dist.name}~perm"
    )


def with_label_noise(dist: PartitionDistribution, eta: float) -> PartitionDistribution:
    """Flip each cell's class to the next one with probability eta.

    For a pure distribution this raises the Bayes risk to exactly eta.
    """
    if not 0.0 <= eta < 0.5:
        raise DistributionError("noise level must be in [0, 0.5)")
    k = max(dist.num_classes, 2)
    labels = np.zeros((len(dist.partition.cells), k))
    for i, cls in enumerate(dist.cell_labels):
        labels[i, cls] = 1.0 - eta
        labels[i, (cls + 1) % k] = eta
    return PartitionDistribution(
        dist.partition, labels, dist.cell_mass, k, name=f"{dist.name}~noise{eta:g}"
    )


# ---------------------------------------------------------------------------
# sampling


def sample(dist: PartitionDistribution, n: int, rng: np.random.Generator) -> SampleSet:
    """Draw n iid samples: cell by marginal mass, point uniform in the cell,
    label by the cell's class probabilities.  Task flag defaults to 1."""
    if n < 0:
        raise DistributionError("sample count must be nonnegative")
    if n == 0:
        return SampleSet(np.empty((0, 2)), np.empty(0, dtype=int))
    m = len(dist.partition.cells)
    cell_idx = rng.choice(m, size=n, p=dist.cell_mass)
    X = np.empty((n, 2))
    y = np.empty(n, dtype=int)
    for c in np.unique(cell_idx):
        where = np.nonzero(cell_idx == c)[0]
        X[where] = _uniform_in_polygon(dist.partition.cells[c], where.size, rng)
        y[where] = rng.choice(dist.num_classes, size=where.size, p=dist.labels_per_cell[c])
    return SampleSet(X, y)


def _uniform_in_polygon(poly: ConvexPolygon, n: int, rng: np.random.Generator) -> np.ndarray:
    """Area-weighted fan-triangle choice, then uniform barycentric point."""
    tri = poly.triangles()
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    areas = 0.5 * np.abs(
        (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    )
    which = rng.choice(tri.shape[0], size=n, p=areas / areas.sum())
    r1 = np.sqrt(rng.random(n))[:, None]
    r2 = rng.random(n)[:, None]
    return (1 - r1) * a[which] + r1 * (1 - r2) * b[which] + r1 * r2 * c[which]


def sample_transfer(
    source: PartitionDistribution,
    target: PartitionDistribution,
    n_source: int,
    n_target: int,
    rng: np.random.Generator,
) -> SampleSet:
    """n_source samples flagged t=0 plus n_target flagged t=1, shuffled."""
    s = sample(source, n_source, rng)
    t = sample(target, n_target, rng)
    merged = SampleSet(
        np.vstack([s.X, t.X]),
        np.concatenate([s.y, t.y]),
        np.concatenate([np.zeros(len(s), dtype=int), np.ones(len(t), dtype=int)]),
    )
    order = rng.permutation(len(merged))
    return merged[order]


# ---------------------------------------------------------------------------
# built-in distributions on [-1, 1]^2

DOMAIN: Box = (-1.0, 1.0, -1.0, 1.0)


def _uniform_mass(cells: Sequence[ConvexPolygon], domain_area: float) -> np.ndarray:
    return np.array([c.area for c in cells]) / domain_area


def _one_hot(classes: Sequence[int], k: int) -> np.ndarray:
    out = np.zeros((len(classes), k))
    out[np.arange(len(classes)), classes] = 1.0
    return out


def xor() -> PartitionDistribution:
    """Two classes on the four quadrants: class 0 on (+,+) and (-,-)."""
    return rxor(0.0, name="xor")


def quads() -> PartitionDistribution:
    """Four classes, one per quadrant."""
    part = make_quadrants()
    classes = [0, 1, 2, 3]
    return PartitionDistribution(
        part, _one_hot(classes, 4), _uniform_mass(part.cells, 4.0), 4, name="quads"
    )


def make_quadrants() -> Partition:
    cells = [
        ConvexPolygon.from_box((0.0, 1.0, 0.0, 1.0)),  # (+, +)
        ConvexPolygon.from_box((-1.0, 0.0, 0.0, 1.0)),  # (-, +)
        ConvexPolygon.from_box((-1.0, 0.0, -1.0, 0.0)),  # (-, -)
        ConvexPolygon.from_box((0.0, 1.0, -1.0, 0.0)),  # (+, -)
    ]
    return Partition(cells, DOMAIN)


def rxor(theta_deg: float = 45.0, name: Optional[str] = None) -> PartitionDistribution:
    """xor with class-conditional regions rotated by theta degrees.

    Each rotated quadrant is clipped to the box; cells stay convex for
    theta in [0, 90).  Checkerboard labels: the rotated (+,+) and (-,-)
    quadrants carry class 0.
    """
    if not 0.0 <= theta_deg < 90.0:
        raise DistributionError("rotation angle must lie in [0, 90) degrees")
    theta = math.radians(theta_deg)
    box = ConvexPolygon.from_box(DOMAIN)
    cells = []
    classes = []
    for quadrant, cls in ((0, 0), (1, 1), (2, 0), (3, 1)):
        base = quadrant * math.pi / 2.0
        # Rotated quadrant = {x : dot(n1, x) >= 0 and dot(n2, x) >= 0} with
        # inward normals at angles base+theta and base+theta+pi/2.
        lo = base + theta
        n1 = (math.cos(lo), math.sin(lo))
        n2 = (-math.sin(lo), math.cos(lo))
        cell = clip_convex_polygon(box, HalfPlane(-n1[0], -n1[1], 0.0))
        if cell is not None:
            cell = clip_convex_polygon(cell, HalfPlane(-n2[0], -n2[1], 0.0))
        if cell is None:
            raise GeometryError("rotated quadrant degenerated; bad angle")
        cells.append(cell)
        classes.append(cls)
    label = name if name is not None else f"rxor{theta_deg:g}"
    return PartitionDistribution(
        Partition(cells, DOMAIN), _one_hot(classes, 2), _uniform_mass(cells, 4.0), 2, name=label
    )


def fxor() -> PartitionDistribution:
    """xor repeated inside each quadrant: a 4x4 checkerboard of half-unit cells."""
    part = make_grid_partition(4, DOMAIN)
    # Grid cell (i, j) holds class 0 when i+j is even; relative to each
    # quadrant's own center that is exactly the xor pattern.
    classes = [(i + j) % 2 for j in range(4) for i in range(4)]
    return PartitionDistribution(
        part, _one_hot(classes, 2), _uniform_mass(part.cells, 4.0), 2, name="fxor"
    )


def grid_distribution(
    n: int,
    labels: Optional[Sequence[int]] = None,
    num_classes: Optional[int] = None,
    domain: Box = DOMAIN,
    name: Optional[str] = None,
) -> PartitionDistribution:
    """Distribution whose optimal partition is the n x n grid.

    Default labeling gives every cell its own class, the canonical member
    of the family sharing that grid partition.
    """
    part = make_grid_partition(n, domain)
    m = len(part.cells)
    if labels is None:
        classes = list(range(m))
        k = m
    else:
        classes = [int(c) for c in labels]
        if len(classes) != m:
            raise DistributionError("need one label per grid cell")
        k = num_classes if num_classes is not None else max(classes) + 1
    xmin, xmax, ymin, ymax = domain
    mass = _uniform_mass(part.cells, (xmax - xmin) * (ymax - ymin))
    return PartitionDistribution(
        part, _one_hot(classes, k), mass, k, name=name or f"grid{n}"
    )


BUILTIN_NAMES = ("xor", "quads", "rxor", "fxor")


def builtin(name: str, theta_deg: float = 45.0) -> PartitionDistribution:
    """Look up a built-in distribution; rxor takes an optional angle."""
    key = name.strip().lower()
    if key == "xor":
        return xor()
    if key == "quads":
        return quads()
    if key == "rxor":
        return rxor(theta_deg)
    if key == "fxor":
        return fxor()
    raise DistributionError(f"unknown builtin distribution {name!r}")


# ---------------------------------------------------------------------------
# serialization


def save_distribution(dist: PartitionDistribution, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dist.to_json_dict(), fh, indent=2)


def load_distribution(path: str) -> PartitionDistribution:
    with open(path, "r", encoding="utf-8") as fh:
        return PartitionDistribution.from_json_dict(json.load(fh))


def write_samples_csv(samples: SampleSet, path: str) -> None:
    d = samples.dim
    header = ",".join([f"f{i}" for i in range(d)] + ["y", "t"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i in range(len(samples)):
            feats = ",".join(repr(float(v)) for v in samples.X[i])
            fh.write(f"{feats},{samples.y[i]},{samples.t[i]}\n")


def read_samples_csv(path: str) -> SampleSet:
    """Parse the f0..fd-1,y,t sample format (header optional).

    Only the first non-empty line may be a header.  Features must be
    finite, labels non-negative integers and task flags 0 or 1; a bad
    value fails with its ``path:line``.
    """
    rows = []
    header_allowed = True
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if header_allowed:
                header_allowed = False
                if parts[0].startswith("f") or parts[0] in ("x0", "x"):
                    continue
            where = f"{path}:{lineno}"
            try:
                row = [float(v) for v in parts]
            except ValueError as exc:
                raise DistributionError(f"{where}: {exc}") from exc
            if rows and len(row) != len(rows[0]):
                raise DistributionError(
                    f"{where}: inconsistent column count ({len(row)} vs {len(rows[0])})"
                )
            if len(row) < 3:
                raise DistributionError(
                    f"{where}: sample CSV needs at least one feature, y and t columns"
                )
            if not all(math.isfinite(v) for v in row[:-2]):
                raise DistributionError(f"{where}: feature values must be finite")
            if not (row[-2] >= 0 and row[-2].is_integer()):
                raise DistributionError(
                    f"{where}: label {parts[-2].strip()!r} is not a non-negative integer"
                )
            if row[-1] not in (0.0, 1.0):
                raise DistributionError(f"{where}: task flag {parts[-1].strip()!r} must be 0 or 1")
            rows.append(row)
    if not rows:
        raise DistributionError(f"no samples found in {path}")
    arr = np.asarray(rows, dtype=float)
    X = arr[:, :-2]
    y = arr[:, -2].astype(int)
    t = arr[:, -1].astype(int)
    return SampleSet(X, y, t)
