import numpy as np
import pytest

from relugeom import DimensionMismatch, OutputLayer, canonical_boundary, enumerate_pieces
from relugeom.layer import ReluLayer
from relugeom.mesh import (
    clip_polygon_halfspace,
    piece_polygons,
    plane_box_polygon,
    write_obj,
)


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
