"""Clipped mesh export of three-dimensional decision boundaries.

Each boundary piece is a planar convex region given in closed form by its
generators (see :class:`~relugeom.boundary.BoundaryPiece`): the vertices
apex + t_p a_p* for each p in J with t_p > 0, the rays t_p a_p* + |t_n| a_n*
for each positive p and negative n in J, and the rays -a_i* for each
recession index i.  In homogeneous coordinates (x, w) a vertex is (x, 1) and
a ray (x, 0), so an unbounded piece is a convex polygon of finitely many
points, taken in angular order around an interior point, and no length is
needed to cut it.

Clipping to an axis-aligned box is one Sutherland-Hodgman pass per box face
(Blinn and Newell's homogeneous clipping) on f = +-(bound w - x_k), which is
nonnegative inside.  A crossing point is the positive combination
|f_q| p + |f_p| q of the points p and q of an edge.  Every point is kept at
max norm 1, so the vertices keep their own digits beside a box face of any
finite size.  The points with w > 0, divided by w, are the vertices of the
clipped polygon, in order; :func:`relugeom.io.write_obj` writes them.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .boundary import DecisionBoundary
from .errors import DimensionMismatch
from .io import label_bytes, text_rows


def _order_convex(points: np.ndarray, center: np.ndarray, normal: np.ndarray) -> np.ndarray:
    """The homogeneous points in ascending angle about ``normal`` around ``center``."""
    axis = normal / np.linalg.norm(normal)
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(axis)))] = 1.0
    u = _cross(axis, seed)
    u /= np.linalg.norm(u)
    v = _cross(axis, u)
    rel = points[:, :3] - points[:, 3:] * center
    return points[np.argsort(np.arctan2(rel @ v, rel @ u))]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of two 3-vectors: its products and differences, without its set-up."""
    (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _clip(polygon: list[list[float]], k: int, sign: float, bound: float) -> list[list[float]]:
    """The part of a homogeneous convex polygon where f = sign * (bound w - x_k) >= 0."""
    values = [sign * (bound * p[3] - p[k]) for p in polygon]
    out = []
    for p, fp, q, fq in zip(polygon, values, polygon[-1:] + polygon[:-1], values[-1:] + values[:-1]):
        if (fp > 0.0 > fq) or (fq > 0.0 > fp):
            # the edge from q to p crosses f = 0; weights at most 1 keep every sum finite
            top = max(abs(fp), abs(fq))
            a, b = abs(fq) / top, abs(fp) / top
            cut = [a * x + b * y for x, y in zip(p, q)]
            top = max(map(abs, cut))
            out.append([x / top for x in cut])
        if fp >= 0.0:
            out.append(p)
    return out


def piece_polygons(boundary: DecisionBoundary, lo: float, hi: float) -> list[tuple[str, np.ndarray]]:
    """Clipped polygon for every piece of the boundary that meets the box,
    with the apex and the dual vectors of the boundary's own layer
    (d = 3 only)."""
    layer = boundary.layer
    if layer.d_in != 3 or layer.d_out != 3:
        raise DimensionMismatch("mesh export supports three-dimensional layers only")
    if hi <= lo:
        raise ValueError(f"empty box [{lo}, {hi}]")
    a, w = layer.affine.matrix, boundary.readout.weights
    # the dual vectors as rays (a_i*, 0) and the apex as the point (apex, 1)
    duals, apex = np.zeros((3, 4)), np.append(layer.apex, 1.0)
    duals[:, :3] = layer.duals
    polys = []
    rows = chain.from_iterable(zip(grade.t, grade.indices, grade.recession) for grade in boundary.grades)
    for label, (t, inside, outside) in zip(text_rows(label_bytes(boundary.grades)), rows):
        positive = t > 0.0
        ends = t[positive, None] * duals[inside[positive]]
        sweeps = -t[~positive, None] * duals[inside[~positive]]
        rays = np.concatenate([(ends[:, None] + sweeps).reshape(-1, 4), -duals[outside]])
        points = np.concatenate([apex + ends, rays])
        center = (apex + ends.mean(axis=0) + rays.sum(axis=0))[:3]
        points = _order_convex(points, center, a[inside].T @ w[inside])
        polygon = (points / np.abs(points).max(axis=1, keepdims=True)).tolist()
        for k in range(3):
            polygon = _clip(_clip(polygon, k, 1.0, hi), k, -1.0, lo)
        vertices = [[min(max(x / p[3], lo), hi) for x in p[:3]] for p in polygon if p[3] > 0.0]
        # drop each exact repeat of its cyclic predecessor
        vertices = [v for v, u in zip(vertices, vertices[-1:] + vertices[:-1]) if v != u]
        if len(vertices) >= 3:
            polys.append((label, np.array(vertices)))
    return polys
