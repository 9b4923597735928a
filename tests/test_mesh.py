import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import relugeom
from relugeom import DimensionMismatch, OutputLayer, canonical_boundary, enumerate_pieces
from relugeom.core import build_dual_frame
from relugeom.io import parse_network_spec, write_obj
from relugeom.layer import ReluLayer
from relugeom.mesh import piece_polygons

from factories import random_output, random_square_layer

GOLDEN_NET3 = Path(__file__).resolve().parent / "golden" / "net3.json"


class TestPiecePolygons:
    def test_canonical_m0_mesh(self):
        boundary = canonical_boundary(3, 0)
        polys = piece_polygons(boundary, -4.0, 4.0)
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
        polys = piece_polygons(boundary, -6.0, 6.0)
        assert polys
        for _, poly in polys:
            values = np.maximum(poly @ a.T + layer.affine.offset, 0.0) @ output.weights + output.bias
            assert np.abs(values).max() < 1e-8

    def test_non_3d_rejected(self):
        boundary = canonical_boundary(2, 0)
        with pytest.raises(DimensionMismatch):
            piece_polygons(boundary, -1.0, 1.0)


def test_write_obj_round_trip(tmp_path):
    boundary = canonical_boundary(3, 1)
    polys = piece_polygons(boundary, -3.0, 3.0)
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


# The mesh pipeline as first written: the plane of a piece cut by the box,
# then by one halfspace per row under an absolute side tolerance.  It is
# right at moderate boxes and kept as the oracle that ``piece_polygons``,
# built from each piece's generators, must match there.
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
    points = [c for c, v in zip(corners, values) if abs(v) <= 1e-12]
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
    side = 1e-12  # vertices this close to the clipping plane count as on it
    values = polygon @ normal + offset
    out = []
    for i in range(polygon.shape[0]):
        j = (i + 1) % polygon.shape[0]
        vi, vj = values[i], values[j]
        if vi >= -side:
            out.append(polygon[i])
        if (vi < -side and vj > side) or (vi > side and vj < -side):
            out.append(polygon[i] + vi / (vi - vj) * (polygon[j] - polygon[i]))
    if not out:
        return np.empty((0, 3))
    deduped = reference_dedup(np.asarray(out), side * 10 + 1e-12)
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
            polys.append(("-".join(map(str, piece.indices)), poly))
    return polys


BOXES = [(-5.0, 5.0), (-1.0, 1.0), (0.0, 2.0), (-0.3, 7.5), (-100.0, 100.0)]


def mesh_instances():
    for m in range(3):
        yield f"canonical m={m}", ReluLayer.canonical(3), canonical_boundary(3, m)
    for seed in range(12):
        layer = random_square_layer(3, seed=300 + seed)
        yield f"random seed={300 + seed}", layer, enumerate_pieces(layer, random_output(3, seed=400 + seed))


def same_cycle(got, expected, tol):
    """Whether ``got`` is ``expected`` in the same cyclic order, within ``tol``,
    starting at any vertex."""
    return got.shape == expected.shape and any(
        np.abs(np.roll(got, shift, axis=0) - expected).max() <= tol for shift in range(len(got))
    )


class TestPolygonsMatchTheReference:
    @pytest.mark.parametrize("lo, hi", BOXES)
    def test_every_instance(self, lo, hi):
        for name, layer, boundary in mesh_instances():
            got = piece_polygons(boundary, lo, hi)
            expected = reference_piece_polygons(layer, boundary, lo, hi)
            assert [label for label, _ in got] == [label for label, _ in expected], name
            for (label, poly), (_, want) in zip(got, expected):
                assert same_cycle(poly, want, 1e-12 * (hi - lo)), (name, label)

    def test_not_vacuous(self):
        counts = [len(piece_polygons(boundary, -5.0, 5.0)) for *_, boundary in mesh_instances()]
        assert sum(counts) >= 40 and min(counts) >= 1

    def test_same_cycle_not_vacuous(self):
        square = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
        assert same_cycle(np.roll(square, 1, axis=0), square, 0.0)
        assert not same_cycle(square[::-1], square, 0.1)
        assert not same_cycle(square + 1e-9, square, 1e-10)


NESTED_BOUNDS = [10.0**k for k in (0, 1, 2, 3, 6, 10, 15, 20, 30, 50, 100, 150, 200, 250, 300)]


def nested_instances():
    affines, output = parse_network_spec(json.loads(GOLDEN_NET3.read_text()))
    layer = build_dual_frame(affines[0])
    yield "net3.json", layer, enumerate_pieces(layer, output)
    for m in range(3):
        yield f"canonical m={m}", ReluLayer.canonical(3), canonical_boundary(3, m)
    for seed in range(50):
        layer = random_square_layer(3, seed=600 + seed)
        yield f"random seed={600 + seed}", layer, enumerate_pieces(layer, random_output(3, seed=700 + seed))


def relative_level(layer, readout, x):
    """|level| over the size of the terms summed into it, per point."""
    a, b, w, c = layer.affine.matrix, layer.affine.offset, readout.weights, readout.bias
    rho = x @ a.T + b
    terms = (np.abs(x) @ np.abs(a).T + np.abs(b)) @ np.abs(w) + abs(c)
    return np.abs(np.maximum(rho, 0.0) @ w + c) / terms


class TestNestedBoxes:
    """A box that holds a smaller box keeps all of its pieces, at any finite size."""

    def test_no_piece_lost_and_vertices_on_the_level_inside_the_box(self):
        for name, layer, boundary in nested_instances():
            kept = set()
            for bound in NESTED_BOUNDS:
                with warnings.catch_warnings(), np.errstate(all="raise"):
                    warnings.simplefilter("error")
                    polys = piece_polygons(boundary, -bound, bound)
                labels = {label for label, _ in polys}
                assert kept <= labels, (name, bound, sorted(kept - labels))
                kept = labels
                for label, poly in polys:
                    assert np.abs(poly).max() <= bound * (1.0 + 1e-13), (name, bound, label)
                    assert relative_level(layer, boundary.readout, poly).max() <= 1e-12, (name, bound, label)
            assert kept, name

    def test_net3_keeps_its_seven_pieces(self):
        *_, boundary = next(nested_instances())
        for bound in NESTED_BOUNDS[3:]:
            assert len(piece_polygons(boundary, -bound, bound)) == 7, bound


@pytest.mark.parametrize("bound", ["1e20", "1e30", "1e300"])
def test_cli_obj_at_a_huge_box(bound, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(relugeom.__file__).parents[1]), env.get("PYTHONPATH", "")])
    obj = tmp_path / "mesh.obj"
    argv = ["boundary", "--input", str(GOLDEN_NET3), "--obj", str(obj), f"--box=-{bound},{bound}"]
    run = subprocess.run([sys.executable, "-m", "relugeom.cli", *argv], capture_output=True, text=True, env=env)
    assert (run.returncode, run.stderr) == (0, "")
    assert json.loads(run.stdout)["results"]["obj"]["pieces_in_box"] == 7
    assert sum(line.startswith("g ") for line in obj.read_text().splitlines()) == 7
