import numpy as np
import pytest

from relugeom import DimensionMismatch, OutputLayer, canonical_boundary, enumerate_pieces
from relugeom.layer import ReluLayer
from relugeom.tolerances import PLANE_SIDE_TOL
from relugeom.mesh import (
    clip_polygon_halfspace,
    piece_polygons,
    plane_box_polygon,
    write_obj,
)

from factories import random_output, random_square_layer


class TestPlaneBoxPolygon:
    def test_axis_plane_gives_square(self):
        poly = plane_box_polygon(np.array([1.0, 0.0, 0.0]), 0.0, -1.0, 1.0)
        assert poly.shape == (4, 3)
        np.testing.assert_allclose(poly[:, 0], 0.0, atol=1e-12)
        assert set(map(tuple, np.abs(poly[:, 1:]).round(9))) == {(1.0, 1.0)}

    def test_diagonal_plane(self):
        poly = plane_box_polygon(np.ones(3), -1.5, 0.0, 1.0)
        assert poly.shape[0] >= 3
        np.testing.assert_allclose(poly.sum(axis=1), 1.5, atol=1e-12)

    def test_missing_plane_is_empty(self):
        poly = plane_box_polygon(np.array([1.0, 0.0, 0.0]), -10.0, -1.0, 1.0)
        assert poly.shape == (0, 3)


class TestClipHalfspace:
    def test_keeps_positive_side(self):
        square = np.array(
            [[0.0, -1.0, -1.0], [0.0, 1.0, -1.0], [0.0, 1.0, 1.0], [0.0, -1.0, 1.0]]
        )
        clipped = clip_polygon_halfspace(square, np.array([0.0, 1.0, 0.0]), 0.0)
        assert clipped.shape[0] >= 3
        assert clipped[:, 1].min() >= -1e-12

    def test_fully_outside_is_empty(self):
        square = np.array(
            [[0.0, -1.0, -1.0], [0.0, 1.0, -1.0], [0.0, 1.0, 1.0], [0.0, -1.0, 1.0]]
        )
        clipped = clip_polygon_halfspace(square, np.array([0.0, 1.0, 0.0]), -5.0)
        assert clipped.shape == (0, 3)


class TestPiecePolygons:
    def test_canonical_m0_mesh(self):
        boundary = canonical_boundary(3, 0)
        layer = ReluLayer.canonical(3)
        polys = piece_polygons(layer, boundary, -4.0, 4.0)
        assert len(polys) == 7
        labels = {label for label, _ in polys}
        assert "1-2-3" in labels
        for label, poly in polys:
            # every clipped vertex sits on the zero level and inside the box
            level = np.maximum(poly, 0.0).sum(axis=1) - 1.0
            assert np.abs(level).max() < 1e-9
            assert poly.min() >= -4 - 1e-9 and poly.max() <= 4 + 1e-9
        central = dict(polys)["1-2-3"]
        # the central piece is the unit simplex face, a triangle
        assert central.shape[0] == 3
        np.testing.assert_allclose(sorted(central.sum(axis=1)), [1.0, 1.0, 1.0])

    def test_random_layer_mesh_vertices_on_boundary(self):
        rng = np.random.default_rng(5)
        while True:
            a = rng.normal(size=(3, 3))
            if np.linalg.cond(a) < 50:
                break
        layer = ReluLayer.build(a, rng.normal(size=3) * 0.3)
        output = OutputLayer(np.array([1.0, -0.8, 1.4]), -0.9)
        boundary = enumerate_pieces(layer, output)
        polys = piece_polygons(layer, boundary, -6.0, 6.0)
        assert polys
        for _, poly in polys:
            values = np.maximum(poly @ a.T + layer.affine.offset, 0.0) @ output.weights + output.bias
            assert np.abs(values).max() < 1e-8

    def test_non_3d_rejected(self):
        boundary = canonical_boundary(2, 0)
        with pytest.raises(DimensionMismatch):
            piece_polygons(ReluLayer.canonical(2), boundary, -1.0, 1.0)


def test_write_obj_round_trip(tmp_path):
    boundary = canonical_boundary(3, 1)
    layer = ReluLayer.canonical(3)
    polys = piece_polygons(layer, boundary, -3.0, 3.0)
    path = tmp_path / "mesh.obj"
    write_obj(str(path), polys)
    text = path.read_text().splitlines()
    n_vertices = sum(1 for line in text if line.startswith("v "))
    n_faces = sum(1 for line in text if line.startswith("f "))
    n_groups = sum(1 for line in text if line.startswith("g "))
    assert n_groups == len(polys)
    assert n_vertices == sum(len(p) for _, p in polys)
    # a fan over an n-gon has n - 2 triangles
    assert n_faces == sum(len(p) - 2 for _, p in polys)
    for line in text:
        if line.startswith("f "):
            indices = [int(tok) for tok in line.split()[1:]]
            assert all(1 <= i <= n_vertices for i in indices)


# The mesh pipeline as first written (box corners rebuilt per piece,
# ``np.cross`` for the in-plane axes), kept as the definition of the OBJ
# bytes that ``piece_polygons`` must reproduce.
REFERENCE_BOX_EDGES = [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3), (2, 6), (3, 7), (4, 5), (4, 6), (5, 7), (6, 7)]


def reference_dedup(points, tol):
    kept = []
    for p in points:
        if all(np.max(np.abs(p - q)) > tol for q in kept):
            kept.append(p)
    return np.asarray(kept)


def reference_order_convex(points, normal):
    center = points.mean(axis=0)
    axis = normal / np.linalg.norm(normal)
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(axis)))] = 1.0
    u = np.cross(axis, seed)
    u /= np.linalg.norm(u)
    v = np.cross(axis, u)
    rel = points - center
    return points[np.argsort(np.arctan2(rel @ v, rel @ u))]


def reference_plane_box_polygon(normal, offset, lo, hi):
    corners = np.array([[hi if i & (1 << k) else lo for k in range(3)] for i in range(8)])
    values = corners @ normal + offset
    points = [c for c, v in zip(corners, values) if abs(v) <= PLANE_SIDE_TOL]
    for a, b in REFERENCE_BOX_EDGES:
        va, vb = values[a], values[b]
        if va * vb < 0.0:
            s = va / (va - vb)
            points.append(corners[a] + s * (corners[b] - corners[a]))
    if not points:
        return np.empty((0, 3))
    points = reference_dedup(np.asarray(points), 1e-9 * (abs(hi - lo) + 1.0))
    if points.shape[0] < 3:
        return np.empty((0, 3))
    return reference_order_convex(points, normal)


def reference_clip(polygon, normal, offset):
    if polygon.shape[0] == 0:
        return polygon
    values = polygon @ normal + offset
    out = []
    for i in range(polygon.shape[0]):
        j = (i + 1) % polygon.shape[0]
        vi, vj = values[i], values[j]
        if vi >= -PLANE_SIDE_TOL:
            out.append(polygon[i])
        if (vi < -PLANE_SIDE_TOL and vj > PLANE_SIDE_TOL) or (vi > PLANE_SIDE_TOL and vj < -PLANE_SIDE_TOL):
            out.append(polygon[i] + vi / (vi - vj) * (polygon[j] - polygon[i]))
    if not out:
        return np.empty((0, 3))
    deduped = reference_dedup(np.asarray(out), PLANE_SIDE_TOL * 10 + 1e-12)
    return deduped if deduped.shape[0] >= 3 else np.empty((0, 3))


def reference_piece_polygons(layer, boundary, lo, hi):
    a, b, norm = layer.affine.matrix, layer.affine.offset, boundary.readout
    w = norm.weights
    polys = []
    for piece in boundary.pieces:
        active = [i - 1 for i in piece.indices]
        poly = reference_plane_box_polygon(a[active].T @ w[active], float(w[active] @ b[active] + norm.bias), lo, hi)
        for i in piece.indices:
            poly = reference_clip(poly, a[i - 1], float(b[i - 1]))
        for i in piece.recession_indices:
            poly = reference_clip(poly, -a[i - 1], -float(b[i - 1]))
        if poly.shape[0] >= 3:
            polys.append((piece.label(), poly))
    return polys


BOXES = [(-5.0, 5.0), (-1.0, 1.0), (0.0, 2.0), (-0.3, 7.5), (-100.0, 100.0)]


def mesh_instances():
    for m in range(3):
        yield f"canonical m={m}", ReluLayer.canonical(3), canonical_boundary(3, m)
    for seed in range(12):
        layer = random_square_layer(3, seed=300 + seed)
        yield f"random seed={300 + seed}", layer, enumerate_pieces(layer, random_output(3, seed=400 + seed))


class TestObjBytesMatchTheReference:
    @pytest.mark.parametrize("lo, hi", BOXES)
    def test_every_instance(self, lo, hi, tmp_path):
        for name, layer, boundary in mesh_instances():
            got, expected = tmp_path / "got.obj", tmp_path / "expected.obj"
            write_obj(str(got), piece_polygons(layer, boundary, lo, hi))
            write_obj(str(expected), reference_piece_polygons(layer, boundary, lo, hi))
            assert got.read_bytes() == expected.read_bytes(), name

    def test_not_vacuous(self):
        counts = [len(piece_polygons(layer, boundary, -5.0, 5.0)) for _, layer, boundary in mesh_instances()]
        assert sum(counts) >= 40 and min(counts) >= 1

    def test_plane_box_polygon_matches_np_cross_ordering(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            normal, offset = rng.normal(size=3), float(rng.normal())
            got = plane_box_polygon(normal, offset, -1.0, 1.0)
            assert got.tobytes() == reference_plane_box_polygon(normal, offset, -1.0, 1.0).tobytes()
