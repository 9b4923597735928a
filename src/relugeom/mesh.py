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


def plane_box_polygon(normal, offset: float, lo: float, hi: float, tol: float = 1e-12) -> np.ndarray:
    """Ordered polygon where the plane normal.x + offset = 0 meets the box."""
    normal = np.asarray(normal, dtype=float)
    corners = _box_corners(lo, hi)
    values = corners @ normal + offset
    points = [c for c, v in zip(corners, values) if abs(v) <= tol]
    for a, b in _BOX_EDGES:
        va, vb = values[a], values[b]
        if va * vb < 0.0:
            s = va / (va - vb)
            points.append(corners[a] + s * (corners[b] - corners[a]))
    if not points:
        return np.empty((0, 3))
    points = _dedup(np.asarray(points), 1e-9 * (abs(hi - lo) + 1.0))
    if points.shape[0] < 3:
        return np.empty((0, 3))
    return _order_convex(points, normal)


def _dedup(points: np.ndarray, tol: float) -> np.ndarray:
    kept: list[np.ndarray] = []
    for p in points:
        if all(np.max(np.abs(p - q)) > tol for q in kept):
            kept.append(p)
    return np.asarray(kept)


def _order_convex(points: np.ndarray, normal: np.ndarray) -> np.ndarray:
    center = points.mean(axis=0)
    axis = normal / np.linalg.norm(normal)
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(axis)))] = 1.0
    u = np.cross(axis, seed)
    u /= np.linalg.norm(u)
    v = np.cross(axis, u)
    rel = points - center
    angles = np.arctan2(rel @ v, rel @ u)
    return points[np.argsort(angles)]


def clip_polygon_halfspace(polygon: np.ndarray, normal, offset: float, tol: float = 1e-12) -> np.ndarray:
    """Keep the part of a convex polygon with normal.x + offset >= 0."""
    if polygon.shape[0] == 0:
        return polygon
    normal = np.asarray(normal, dtype=float)
    values = polygon @ normal + offset
    out = []
    count = polygon.shape[0]
    for i in range(count):
        j = (i + 1) % count
        vi, vj = values[i], values[j]
        if vi >= -tol:
            out.append(polygon[i])
        if (vi < -tol and vj > tol) or (vi > tol and vj < -tol):
            s = vi / (vi - vj)
            out.append(polygon[i] + s * (polygon[j] - polygon[i]))
    if not out:
        return np.empty((0, 3))
    deduped = _dedup(np.asarray(out), tol * 10 + 1e-12)
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
    polys = []
    for piece in boundary.pieces:
        active = [i - 1 for i in piece.indices]
        plane_normal = a[active].T @ w[active]
        plane_offset = float(w[active] @ b[active] + norm.bias)
        poly = plane_box_polygon(plane_normal, plane_offset, lo, hi)
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
