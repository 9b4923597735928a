"""Clipped mesh export of three-dimensional decision boundaries.

Each boundary piece is a planar convex region: it lies on the hyperplane
whose normal collects the readout-weighted active rows, cut by one
halfspace per row functional (nonnegative on the piece's index set,
nonpositive outside).  Clipping that region to an axis-aligned box yields
a convex polygon per piece, written to OBJ as a triangle fan.
"""

from __future__ import annotations

import numpy as np

from .boundary import DecisionBoundary
from .errors import DimensionMismatch
from .layer import ReluLayer
from .tolerances import PLANE_SIDE_TOL

_BOX_EDGES = [
    (0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3),
    (2, 6), (3, 7), (4, 5), (4, 6), (5, 7), (6, 7),
]


def _box_corners(lo: float, hi: float) -> np.ndarray:
    # Corner i has coordinate k equal to hi when bit k of i is set; the
    # edge list above connects corners differing in exactly one bit.
    return np.array(
        [[hi if i & (1 << k) else lo for k in range(3)] for i in range(8)]
    )


def plane_box_polygon(normal, offset: float, lo: float, hi: float) -> np.ndarray:
    """Ordered polygon where the plane normal.x + offset = 0 meets the box."""
    return _plane_polygon(np.asarray(normal, dtype=float), offset, _box_corners(lo, hi), 1e-9 * (abs(hi - lo) + 1.0))


def _plane_polygon(normal: np.ndarray, offset: float, corners: np.ndarray, tol: float) -> np.ndarray:
    values = corners @ normal + offset
    points = [c for c, v in zip(corners, values) if abs(v) <= PLANE_SIDE_TOL]
    for a, b in _BOX_EDGES:
        va, vb = values[a], values[b]
        if va * vb < 0.0:
            s = va / (va - vb)
            points.append(corners[a] + s * (corners[b] - corners[a]))
    if not points:
        return np.empty((0, 3))
    points = _dedup(np.asarray(points), tol)
    if points.shape[0] < 3:
        return np.empty((0, 3))
    return _order_convex(points, normal)


def _dedup(points: np.ndarray, tol: float) -> np.ndarray:
    """The points, in order, that lie farther than ``tol`` (max norm) from every earlier kept point."""
    far = (np.abs(points[:, None] - points[None]).max(axis=2) > tol).tolist()
    kept: list[int] = []
    for i, row in enumerate(far):
        if all(row[j] for j in kept):
            kept.append(i)
    return points[kept]


def _order_convex(points: np.ndarray, normal: np.ndarray) -> np.ndarray:
    center = points.mean(axis=0)
    axis = normal / np.linalg.norm(normal)
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(axis)))] = 1.0
    u = _cross(axis, seed)
    u /= np.linalg.norm(u)
    v = _cross(axis, u)
    rel = points - center
    angles = np.arctan2(rel @ v, rel @ u)
    return points[np.argsort(angles)]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of two 3-vectors: its products and differences, without its set-up."""
    (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def clip_polygon_halfspace(polygon: np.ndarray, normal, offset: float) -> np.ndarray:
    """Keep the part of a convex polygon with normal.x + offset >= 0."""
    if polygon.shape[0] == 0:
        return polygon
    # Python floats round each product, quotient and sum as numpy does.
    values = (polygon @ np.asarray(normal, dtype=float) + offset).tolist()
    rows = polygon.tolist()
    out = []
    for i, vi in enumerate(values):
        j = (i + 1) % len(rows)
        vj = values[j]
        if vi >= -PLANE_SIDE_TOL:
            out.append(rows[i])
        if (vi < -PLANE_SIDE_TOL and vj > PLANE_SIDE_TOL) or (vi > PLANE_SIDE_TOL and vj < -PLANE_SIDE_TOL):
            s = vi / (vi - vj)
            out.append([a + s * (b - a) for a, b in zip(rows[i], rows[j])])
    if not out:
        return np.empty((0, 3))
    deduped = _dedup(np.asarray(out), PLANE_SIDE_TOL * 10 + 1e-12)
    if deduped.shape[0] < 3:
        return np.empty((0, 3))
    return deduped


def piece_polygons(
    layer: ReluLayer, boundary: DecisionBoundary, lo: float, hi: float
) -> list[tuple[str, np.ndarray]]:
    """Clipped polygon for every piece that meets the box (d = 3 only)."""
    if layer.d_in != 3 or layer.d_out != 3:
        raise DimensionMismatch("mesh export supports three-dimensional layers only")
    if hi <= lo:
        raise ValueError(f"empty box [{lo}, {hi}]")
    norm = boundary.readout
    a = layer.affine.matrix
    b = layer.affine.offset
    w = norm.weights
    corners, tol = _box_corners(lo, hi), 1e-9 * (abs(hi - lo) + 1.0)
    polys = []
    for piece in boundary.pieces:
        active = [i - 1 for i in piece.indices]
        plane_normal = a[active].T @ w[active]
        plane_offset = float(w[active] @ b[active] + norm.bias)
        poly = _plane_polygon(plane_normal, plane_offset, corners, tol)
        for i in piece.indices:
            poly = clip_polygon_halfspace(poly, a[i - 1], float(b[i - 1]))
        for i in piece.recession_indices:
            poly = clip_polygon_halfspace(poly, -a[i - 1], -float(b[i - 1]))
        if poly.shape[0] >= 3:
            polys.append((piece.label(), poly))
    return polys


def write_obj(path: str, polygons: list[tuple[str, np.ndarray]]):
    """Write labeled convex polygons as OBJ groups, one triangle fan each."""
    with open(path, "w") as fh:
        fh.write("# decision boundary pieces clipped to a box\n")
        offset = 1
        for label, poly in polygons:
            fh.write(f"g piece_{label}\n")
            for vertex in poly:
                fh.write("v " + " ".join(f"{c:.17g}" for c in vertex) + "\n")
            n = poly.shape[0]
            for i in range(1, n - 1):
                fh.write(f"f {offset} {offset + i} {offset + i + 1}\n")
            offset += n
