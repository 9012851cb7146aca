"""Exact ts/ats for the builtin tasks, computed without tasksim.

The analytic-grid checker compares the program's builtin block
(rxor(theta), fxor, xor) against these values.  Cells are built from
the tasks' definitions on [-1, 1]^2 with a uniform marginal and clipped
by a plain Sutherland-Hodgman loop, so a defect in tasksim's geometry
or similarity code cannot also hide in the reference.
"""

from __future__ import annotations

import math

TIE_TOL = 1e-9
SQUARE = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]


def _clip(poly, a, b, c=0.0):
    """Part of ``poly`` where a*x + b*y + c >= 0."""
    out = []
    for i, p in enumerate(poly):
        q = poly[(i + 1) % len(poly)]
        fp = a * p[0] + b * p[1] + c
        fq = a * q[0] + b * q[1] + c
        if fp >= 0:
            out.append(p)
        if (fp < 0 < fq) or (fq < 0 < fp):
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _clip_convex(poly, ccw):
    """Intersection with the counter-clockwise convex polygon ``ccw``."""
    for i, (ax, ay) in enumerate(ccw):
        bx, by = ccw[(i + 1) % len(ccw)]
        # inside the edge a -> b: cross(b - a, p - a) >= 0
        poly = _clip(poly, ay - by, bx - ax, (by - ay) * ax - (bx - ax) * ay)
        if not poly:
            break
    return poly


def _area(poly) -> float:
    s = 0.0
    for i, p in enumerate(poly):
        q = poly[(i + 1) % len(poly)]
        s += p[0] * q[1] - q[0] * p[1]
    return abs(s) / 2.0


def _box(x0, x1, y0, y1):
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


def xor_cells():
    """Quadrants; class 0 where x*y > 0."""
    return [
        (_box(0, 1, 0, 1), 0),
        (_box(-1, 0, 0, 1), 1),
        (_box(-1, 0, -1, 0), 0),
        (_box(0, 1, -1, 0), 1),
    ]


def fxor_cells():
    """4x4 checkerboard of half-unit squares; class 0 where i + j is even."""
    e = [-1.0, -0.5, 0.0, 0.5, 1.0]
    return [(_box(e[i], e[i + 1], e[j], e[j + 1]), (i + j) % 2) for i in range(4) for j in range(4)]


def rxor_cells(theta_deg: float):
    """xor turned by theta: class 0 where the point turned back by theta has x*y > 0."""
    th = math.radians(theta_deg)
    cells = []
    for quadrant, cls in ((0, 0), (1, 1), (2, 0), (3, 1)):
        lo = quadrant * math.pi / 2.0 + th
        poly = _clip(SQUARE, math.cos(lo), math.sin(lo))
        poly = _clip(poly, -math.sin(lo), math.cos(lo))
        cells.append((poly, cls))
    return cells


def similarity(target, source) -> tuple[float, float]:
    """(ts, ats) of ``source`` for ``target``; both uniform on the square."""
    k = 1 + max(c for _, c in target)
    ts = ats = 0.0
    for s_poly, _ in source:
        masses = [0.0] * k
        for t_poly, t_cls in target:
            masses[t_cls] += _area(_clip_convex(s_poly, t_poly)) / 4.0
        best = max(masses)
        ts += best
        if sum(1 for m in masses if m >= best - TIE_TOL) == 1:
            ats += best
    return ts, ats


def builtin_block(theta_deg: float) -> tuple[list[list[float]], list[list[float]]]:
    """ts and ats matrices over [rxor(theta), fxor, xor]; rows target, cols source."""
    tasks = [rxor_cells(theta_deg), fxor_cells(), xor_cells()]
    ts = [[0.0] * 3 for _ in range(3)]
    ats = [[0.0] * 3 for _ in range(3)]
    for i, tgt in enumerate(tasks):
        for j, src in enumerate(tasks):
            ts[i][j], ats[i][j] = similarity(tgt, src)
    return ts, ats
