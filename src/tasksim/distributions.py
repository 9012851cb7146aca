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

import functools
import json
import math
import re
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .geometry import (
    Box,
    GeometryError,
    Partition,
    _BLOCK_ENTRIES,
    box_vertices,
    check_tolerance,
    clip_lanes,
    convex_cells,
    json_field,
    make_grid_partition,
    overlapping_pairs,
    validate_partition,
)

PROB_TOL = 1e-9
# Characters XML 1.0 does not allow even escaped, so an SVG heatmap could
# not carry them: C0 controls other than tab, LF and CR, the surrogates (which
# UTF-8 cannot encode either) and U+FFFE/U+FFFF.
_NOT_XML = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
# Largest distance between two edges that still counts as a shared boundary.
_COLLINEAR_TOL = 1e-9
# Most entries of a dense cells x classes table (512 MiB of doubles):
# grid(n) with one class per cell stays under it up to n = 90.
MAX_TABLE_ENTRIES = 2**26


class DistributionError(ValueError):
    pass


class SampleSet:
    """Column-oriented batch of labeled samples.

    X has shape (n, d) and y has shape (n,).  Indexing with a slice, mask
    or index array returns a new SampleSet.
    """

    __slots__ = ("X", "y")

    def __init__(self, X: np.ndarray, y: np.ndarray):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=int)
        if X.shape[0] != y.shape[0]:
            raise DistributionError("X and y must have matching lengths")
        self.X, self.y = X, y

    def __len__(self) -> int:
        return self.X.shape[0]

    def __getitem__(self, idx) -> "SampleSet":
        return SampleSet(self.X[idx], self.y[idx])

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
    # Majority (Bayes) class per cell, computed once from labels_per_cell.
    cell_labels: np.ndarray = field(init=False, repr=False, compare=False)

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
        n = len(partition.vertex_counts)
        if labels.ndim != 2 or labels.shape[0] != n:
            raise DistributionError("need one class-probability vector per cell")
        if mass.shape != (n,):
            raise DistributionError("need one marginal mass per cell")
        k = labels.shape[1] if num_classes is None else int(num_classes)
        if k < labels.shape[1]:
            raise DistributionError("num_classes smaller than probability vectors")
        if k > labels.shape[1]:
            labels = np.hstack([labels, np.zeros((labels.shape[0], k - labels.shape[1]))])
        if not np.isfinite(labels).all() or (labels < -PROB_TOL).any():
            raise DistributionError("class probabilities must be finite and nonnegative")
        if np.abs(labels.sum(axis=1) - 1.0).max() > PROB_TOL:
            raise DistributionError("each class-probability vector must sum to 1")
        if (not np.isfinite(mass).all() or (mass < -PROB_TOL).any()
                or abs(mass.sum() - 1.0) > PROB_TOL):
            raise DistributionError("cell masses must be finite, nonnegative and sum to 1")
        top2 = np.sort(labels, axis=1)[:, -2:]
        if labels.shape[1] > 1 and (top2[:, 1] - top2[:, 0] <= PROB_TOL).any():
            raise DistributionError("per-cell argmax class must be unique")
        cell_labels = np.argmax(labels, axis=1)
        for arr in (labels, mass, cell_labels):
            arr.setflags(write=False)
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "labels_per_cell", labels)
        object.__setattr__(self, "cell_labels", cell_labels)
        object.__setattr__(self, "cell_mass", mass)
        object.__setattr__(self, "num_classes", k)
        object.__setattr__(self, "name", name)

    def to_json_dict(self) -> dict:
        d = self.partition.to_json_dict()
        d["labels"] = self.labels_per_cell.tolist()
        d["mass"] = self.cell_mass.tolist()
        d["name"] = self.name
        return d

    @classmethod
    def from_json_dict(cls, data: dict) -> "PartitionDistribution":
        """The partition's JSON plus ``labels`` (one class-probability vector
        per cell), ``mass`` and an optional string ``name`` that XML can
        carry; a bad field raises a GeometryError or DistributionError
        naming it."""
        part = Partition.from_json_dict(data)
        floats = functools.partial(np.asarray, dtype=float)
        labels = json_field(data, "labels", floats, DistributionError)
        mass = json_field(data, "mass", floats, DistributionError)
        name = data.get("name", "distribution")
        if not isinstance(name, str):
            raise DistributionError(f"JSON field 'name' must be a string, not {name!r}")
        bad = _NOT_XML.search(name)
        if bad:
            raise DistributionError(f"JSON field 'name' holds U+{ord(bad.group()):04X}, "
                                    "which XML 1.0 does not allow")
        return cls(part, labels, mass, name=name)


def validate_distribution(dist: PartitionDistribution, tol: float = 1e-9) -> list[str]:
    """Partition diagnostics plus a minimality warning.

    Adjacent cells sharing the same Bayes class are legal (they encode
    distinct connected parts), but when they share a positive-length
    boundary the stored partition may not be minimal, which changes the
    similarity values; a warning is returned rather than merging cells.
    """
    check_tolerance("tol", tol)
    issues: list[str] = []
    diag = validate_partition(dist.partition, tol=tol)
    if not diag.ok:
        issues.append(
            f"partition fails: coverage_gap={diag.coverage_gap:.3g} "
            f"max_overlap={diag.max_overlap:.3g} max_outside={diag.max_outside:.3g}"
        )
    labels = dist.cell_labels
    bounds = dist.partition.cell_bounds
    # Edges within _COLLINEAR_TOL can share a boundary; twice it absorbs rounding.
    pad = 2 * _COLLINEAR_TOL
    first, second = overlapping_pairs(bounds + (-pad, pad, -pad, pad), bounds)
    same = (first < second) & (labels[first] == labels[second])
    first, second = first[same], second[same]
    shared = _shared_boundaries(dist.partition.cell_vertices, first, second)
    for i, j in zip(first[shared].tolist(), second[shared].tolist()):
        issues.append(
            f"cells {i} and {j} are adjacent with the same majority class "
            f"{labels[i]}; stored partition may not be minimal"
        )
    return issues


def _shared_boundaries(verts: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Mask of the cell pairs (first[k], second[k]) sharing a boundary piece
    longer than _COLLINEAR_TOL, over all edge pairs at once, in blocks.

    Edge (c, d) meets edge (a, b) when c and d lie within _COLLINEAR_TOL
    of the line through a and b; the piece is the overlap of [0, |b - a|]
    with their projections on it.  Edges shorter than 1e-15, the null
    padding edges among them, share nothing.
    """
    ends = np.roll(verts, -1, axis=1)
    edges = ends - verts
    shared = np.zeros(first.size, dtype=bool)
    rows = max(1, _BLOCK_ENTRIES // verts.shape[1] ** 2)
    for lo in range(0, first.size, rows):
        p, q = first[lo : lo + rows], second[lo : lo + rows]
        a, u = verts[p, :, None], edges[p, :, None]  # (pairs, edge of p, 1, 2)
        ln = np.hypot(u[..., 0], u[..., 1])
        un = u / np.where(ln < 1e-15, 1.0, ln)[..., None]
        ca, da = verts[q, None] - a, ends[q, None] - a  # (pairs, edge of p, edge of q, 2)
        off_c = np.abs(un[..., 0] * ca[..., 1] - un[..., 1] * ca[..., 0])
        off_d = np.abs(un[..., 0] * da[..., 1] - un[..., 1] * da[..., 0])
        t1 = ca[..., 0] * un[..., 0] + ca[..., 1] * un[..., 1]
        t2 = da[..., 0] * un[..., 0] + da[..., 1] * un[..., 1]
        overlap = np.minimum(np.maximum(t1, t2), ln) - np.maximum(np.minimum(t1, t2), 0.0)
        hit = (ln >= 1e-15) & (off_c <= _COLLINEAR_TOL) & (off_d <= _COLLINEAR_TOL)
        shared[lo : lo + p.size] = (hit & (overlap > _COLLINEAR_TOL)).any(axis=(1, 2))
    return shared


# ---------------------------------------------------------------------------
# queries


def check_table_size(rows: int, k: int, what: str) -> None:
    """Refuse a dense rows x k table over MAX_TABLE_ENTRIES before allocating it."""
    if rows * k > MAX_TABLE_ENTRIES:
        raise DistributionError(f"a {what} of {rows} cells x {k} classes exceeds the limit "
                                f"of {MAX_TABLE_ENTRIES} entries")


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
    cls = dist.cell_labels
    labels = (1.0 - eta) * _one_hot(cls, k) + eta * _one_hot((cls + 1) % k, k)
    return PartitionDistribution(
        dist.partition, labels, dist.cell_mass, k, name=f"{dist.name}~noise{eta:g}"
    )


# ---------------------------------------------------------------------------
# sampling


def sample(dist: PartitionDistribution, n: int, rng: np.random.Generator) -> SampleSet:
    """Draw n iid samples: cell by marginal mass, point uniform in the cell,
    label by the cell's class probabilities.

    The random stream is part of the reproducibility contract.  First
    ``rng.choice(cells, size=n, p=cell_mass)`` draws every row's cell.
    Then one block of 4n doubles follows, cell by cell in ascending cell
    order.  A cell drawn ``count`` times holds ``count`` triangle draws,
    then ``count`` r1, ``count`` r2 and ``count`` label draws, each in row
    order.  The triangle is area-weighted among the cell's fan triangles
    (v0, v[t + 1], v[t + 2]); the point is (1 - sqrt(r1)) v0 +
    sqrt(r1) (1 - r2) v[t + 1] + sqrt(r1) r2 v[t + 2].  A triangle or label
    draw u picks as ``Generator.choice(p=...)`` does: the number of entries
    of cumsum(p) / cumsum(p)[-1] that are <= u.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise DistributionError(f"sample count must be a non-negative integer, got {n!r}")
    n = int(n)  # 4 * n must not wrap in a narrow numpy integer type
    if n == 0:
        return SampleSet(np.empty((0, 2)), np.empty(0, dtype=int))
    part = dist.partition
    m = len(part.vertex_counts)
    cell_idx = rng.choice(m, size=n, p=dist.cell_mass)
    u = rng.random(4 * n)
    # The r-th row of a cell drawn `count` times, whose block starts at
    # 4 * start, has place start + r among the rows sorted stably by cell.
    # Its triangle draw is u[4 * start + r] = u[3 * start + place]; its r1,
    # r2 and label draws lie `count`, 2 * `count` and 3 * `count` further on.
    order = np.argsort(cell_idx.astype(np.min_scalar_type(m - 1)), kind="stable")
    place = np.empty(n, dtype=np.intp)
    place[order] = np.arange(n)
    counts = np.bincount(cell_idx, minlength=m)
    starts = np.cumsum(counts) - counts
    count = counts[cell_idx]
    first = 3 * starts[cell_idx] + place
    # Fan triangles (v0, v[t + 1], v[t + 2]) of every cell's padded row; those
    # past a cell's vertex count - 2 have area 0, so its CDF stays 1 there.
    v = part.cell_vertices
    ab, ac = v[:, 1:-1] - v[:, :1], v[:, 2:] - v[:, :1]
    tri_areas = 0.5 * np.abs(ab[..., 0] * ac[..., 1] - ab[..., 1] * ac[..., 0])
    tris = part.vertex_counts - 2
    total = np.empty(m)
    for t in set(tris.tolist()):  # numpy sums 8 or more terms pairwise: sum each length alone
        total[tris == t] = tri_areas[tris == t, :t].sum(axis=1)
    tri_cdf = np.cumsum(tri_areas / total[:, None], axis=1)
    tri_cdf /= tri_cdf[np.arange(m), tris - 1][:, None]
    tri_u = u[first]
    which = np.zeros(n, dtype=np.intp)
    for t in range(tri_cdf.shape[1] - 1):  # the last column is 1 > u
        which += tri_cdf[cell_idx, t] <= tri_u
    r1 = np.sqrt(u[first + count])
    r2 = u[first + 2 * count]
    w0, w1, w2 = 1 - r1, r1 * (1 - r2), r1 * r2
    corner = cell_idx * v.shape[1]
    X = np.empty((n, 2))
    for d in range(2):
        vd = v[..., d].ravel()
        X[:, d] = w0 * vd[corner] + w1 * vd[corner + 1 + which] + w2 * vd[corner + 2 + which]
    # A one-hot cell draws its class for every u in [0, 1); only noisy cells
    # compare their rows' label draws with a CDF.
    labels = dist.labels_per_cell
    y = dist.cell_labels[cell_idx]
    for c in np.flatnonzero((counts > 0) & (np.count_nonzero(labels, axis=1) > 1)):
        rows = order[starts[c] : starts[c] + counts[c]]
        cdf = labels[c].cumsum()
        y[rows] = np.searchsorted(cdf / cdf[-1], u[first[rows] + 3 * counts[c]], side="right")
    return SampleSet(X, y)


# ---------------------------------------------------------------------------
# built-in distributions on [-1, 1]^2

DOMAIN: Box = (-1.0, 1.0, -1.0, 1.0)


def _uniform_mass(part: Partition) -> np.ndarray:
    """Cell masses under a uniform marginal."""
    return part.cell_areas() / part.domain_area


def _box_task(part: Partition, classes: Sequence[int], k: int, name: str) -> PartitionDistribution:
    """Class ``classes[i]`` on box cell i, under a uniform marginal."""
    return PartitionDistribution(part, _one_hot(classes, k), _uniform_mass(part), k, name=name)


def _one_hot(classes: Sequence[int], k: int) -> np.ndarray:
    check_table_size(len(classes), k, "label table")
    out = np.zeros((len(classes), k))
    out[np.arange(len(classes)), classes] = 1.0
    return out


def xor() -> PartitionDistribution:
    """Two classes on the four quadrants: class 0 on (+,+) and (-,-)."""
    return _box_task(make_quadrants(), [0, 1, 0, 1], 2, "xor")


def quads() -> PartitionDistribution:
    """Four classes, one per quadrant."""
    return _box_task(make_quadrants(), [0, 1, 2, 3], 4, "quads")


def make_quadrants() -> Partition:
    boxes = [
        (0.0, 1.0, 0.0, 1.0),  # (+, +)
        (-1.0, 0.0, 0.0, 1.0),  # (-, +)
        (-1.0, 0.0, -1.0, 0.0),  # (-, -)
        (0.0, 1.0, -1.0, 0.0),  # (+, -)
    ]
    return Partition.from_boxes(boxes, DOMAIN)


def rxor(theta_deg: float = 45.0) -> PartitionDistribution:
    """xor with class-conditional regions rotated by theta degrees.

    Each rotated quadrant is clipped to the box; cells stay convex for
    theta in [0, 90).  Checkerboard labels: the rotated (+,+) and (-,-)
    quadrants carry class 0.
    """
    if not 0.0 <= theta_deg < 90.0:
        raise DistributionError("rotation angle must lie in [0, 90) degrees")
    theta = math.radians(theta_deg)
    # Rotated quadrant q = {x : dot(n1, x) >= 0 and dot(n2, x) >= 0} with
    # inward normals n1, n2 at angles q*pi/2 + theta and q*pi/2 + theta + pi/2.
    # The quadrants are the four lanes of one clip of the box by n1, then
    # one by n2, each step's lanes normalised by ``convex_cells``.
    lo = [quadrant * math.pi / 2.0 + theta for quadrant in range(4)]
    n1 = np.array([(math.cos(a), math.sin(a)) for a in lo])
    n2 = np.array([(-math.sin(a), math.cos(a)) for a in lo])
    poly, counts = box_vertices([DOMAIN] * 4), np.full(4, 4)
    for n in (n1, n2):
        poly = np.concatenate((poly, poly[:, :1]), axis=1)
        s = poly[..., 0] * -n[:, :1] + poly[..., 1] * -n[:, 1:]
        poly, counts, empty = clip_lanes(poly, counts, s)
        if empty.any():
            raise GeometryError("rotated quadrant degenerated; bad angle")
        poly, counts = convex_cells(poly, counts)
    part = Partition.__new__(Partition)._store(DOMAIN, poly, counts)
    return PartitionDistribution(part, _one_hot([0, 1, 0, 1], 2), _uniform_mass(part), 2,
                                 name=f"rxor{theta_deg:g}")


def fxor() -> PartitionDistribution:
    """xor repeated inside each quadrant: a 4x4 checkerboard of half-unit cells."""
    # Grid cell (i, j) holds class 0 when i+j is even; relative to each
    # quadrant's own center that is exactly the xor pattern.
    classes = [(i + j) % 2 for j in range(4) for i in range(4)]
    return _box_task(make_grid_partition(4, DOMAIN), classes, 2, "fxor")


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
    m = len(part.vertex_counts)
    if labels is None:
        classes, k = list(range(m)), m
    else:
        classes = [int(c) for c in labels]
        if len(classes) != m:
            raise DistributionError("need one label per grid cell")
        k = num_classes if num_classes is not None else max(classes) + 1
    return _box_task(part, classes, k, name or f"grid{n}")


BUILTIN_NAMES = ("xor", "quads", "rxor", "fxor")


def builtin(name: str, theta_deg: float = 45.0) -> PartitionDistribution:
    """Look up a built-in distribution; rxor takes an optional angle."""
    makers = {"xor": xor, "quads": quads, "rxor": lambda: rxor(theta_deg), "fxor": fxor}
    key = name.strip().lower()
    if key not in makers:
        raise DistributionError(f"unknown builtin distribution {name!r}")
    return makers[key]()


# ---------------------------------------------------------------------------
# serialization


def read_json_object(path: str) -> dict:
    """The JSON object a UTF-8 file holds; any other top level raises a DistributionError."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise DistributionError(f"the top level must be a JSON object, not {type(data).__name__}")
    return data


def load_distribution(path: str) -> PartitionDistribution:
    return PartitionDistribution.from_json_dict(read_json_object(path))


def read_samples_csv(path: str) -> SampleSet:
    """Parse the f0..fd-1,y,t sample format (header optional).

    Only the first non-empty line may be a header.  Features must be
    finite, labels non-negative integers and task flags 0 or 1; a bad value
    fails with its ``path:line``, an unreadable or empty file with its
    ``path``.  The flags are checked, not kept.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")  # text mode reads \r\n and \r as \n
    except (OSError, UnicodeDecodeError) as exc:
        raise DistributionError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc
    rows = []
    header_allowed = True
    for lineno, line in enumerate(lines, start=1):
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
        raise DistributionError(f"{path}: no samples found")
    arr = np.asarray(rows, dtype=float)
    return SampleSet(arr[:, :-2], arr[:, -2].astype(int))
