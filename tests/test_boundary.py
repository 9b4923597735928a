import dataclasses
import json

import numpy as np
import pytest
from scipy.spatial import ConvexHull

import relugeom.boundary as bd
import relugeom.cli as cli
import relugeom.network as nw
from relugeom import verify
from relugeom import (
    AllNegative,
    DegenerateBias,
    DegenerateDirection,
    DimensionMismatch,
    EmptyPiece,
    EnumerationLimit,
    InvalidM,
    OutputLayer,
    SchemaError,
    canonical_boundary,
    enumerate_pieces,
    piece_count_oracle,
    sample_piece,
)
from relugeom.boundary import (
    BoundaryGrade,
    CanonicalReduction,
    normalize_output_layer,
    pull_back_hyperplane,
    sample_boundary_patterns,
)
from relugeom.core import AffineMap, build_dual_frame
from relugeom.layer import ReluLayer, evaluate
from relugeom.tolerances import MAX_SAMPLE_FLOATS, WITNESS_LEVEL_REL, WITNESS_PATTERN_ULPS, scaled

from factories import random_output, random_square_layer


def _tied(d, rng):
    """Equal weights: every intersection value is the same positive number."""
    return OutputLayer(np.full(d, rng.uniform(0.5, 2.0)), -1.0), 2**d - 1


def _one_positive(d, rng):
    """m = d - 1: one positive intersection value, the rest negative."""
    weights = np.concatenate([[1.0], -rng.uniform(0.5, 2.0, d - 1)])
    return OutputLayer(rng.permutation(weights), -1.0), 2**d - 2 ** (d - 1)


def _positive_bias(d, rng):
    """A positive bias, which normalization flips; m = d // 2 after the flip."""
    weights = rng.uniform(0.5, 2.0, d) * np.where(np.arange(d) < d // 2, 1.0, -1.0)
    return OutputLayer(weights, 1.5), 2**d - 2 ** (d // 2)


def wide_span_instance(rng, d):
    """A ``verify.random_layer`` frame with readout weights over nine decades."""
    layer = verify.random_layer(rng, d)
    m = int(rng.integers(d))
    weights = 10 ** rng.uniform(-9, 0, d) * np.where(rng.permutation(d) < m, -1.0, 1.0)
    return layer, OutputLayer(weights, -float(rng.uniform(0.5, 2.0)))


EDGE_READOUTS = {"tied": _tied, "one positive value": _one_positive, "positive bias": _positive_bias}


def reference_piece_count_oracle(layer, output):
    """The witness oracle one subset at a time: the per-subset loop that
    the batched ``piece_count_oracle`` replaced, kept as its reference."""
    d = layer.d_out
    norm, t, _ = bd._readout(layer, output)
    count = 0
    for mask in range(1, 1 << d):
        indices = tuple(i + 1 for i in range(d) if mask >> i & 1)
        idx0 = [i - 1 for i in indices]
        tj = t[idx0]
        pos = np.flatnonzero(tj > 0.0)
        if pos.size == 0:
            continue
        lead = pos[0]
        eps = 0.5 / (float(np.sum(1.0 / tj[pos[1:]])) + 1.0)
        alpha = np.full(len(indices), eps)
        alpha[lead] = tj[lead] * (1.0 - float(np.sum(alpha / tj)) + alpha[lead] / tj[lead])
        if alpha[lead] <= 0.0 or abs(float(np.sum(alpha / tj)) - 1.0) > 1e-9:
            continue
        x = layer.apex + alpha @ layer.duals[idx0]
        level = float(norm.weights @ layer(x) + norm.bias)
        rho = layer.affine(x)
        size = np.abs(x) @ np.abs(layer.affine.matrix).T + np.abs(layer.affine.offset)
        band = WITNESS_PATTERN_ULPS * np.finfo(float).eps / layer.conditioning * size
        pattern = tuple(i + 1 for i in range(d) if rho[i] > band[i])
        level_band = scaled(WITNESS_LEVEL_REL, abs(norm.bias)) + band @ np.abs(norm.weights)
        if abs(level) <= level_band and pattern == indices:
            count += 1
    return count


class TestNormalize:
    def test_negative_bias_unchanged(self):
        out = normalize_output_layer(OutputLayer([1.0, 1.0], -2.0))
        np.testing.assert_allclose(out.weights, [1.0, 1.0])
        assert out.bias == -2.0

    def test_positive_bias_negated(self):
        out = normalize_output_layer(OutputLayer([1.0, 1.0], 2.0))
        np.testing.assert_allclose(out.weights, [-1.0, -1.0])
        assert out.bias == -2.0
        # the kernel is the same line
        y = np.array([0.5, 1.5])
        assert OutputLayer([1.0, 1.0], 2.0)(y) == pytest.approx(-out(y))

    def test_zero_bias_rejected(self):
        with pytest.raises(DegenerateBias):
            normalize_output_layer(OutputLayer([3.0, -1.0], 0.0))


class TestIntersectionValues:
    def test_frozen_example(self):
        boundary = enumerate_pieces(ReluLayer.canonical(3), OutputLayer([1.0, 2.0, -4.0], -2.0))
        np.testing.assert_allclose(boundary.t, [2.0, 1.0, -0.5])
        assert boundary.m == 1

    def test_symmetric_positive(self):
        boundary = enumerate_pieces(ReluLayer.canonical(3), OutputLayer([1.0, 1.0, 1.0], -1.0))
        np.testing.assert_allclose(boundary.t, [1.0, 1.0, 1.0])
        assert boundary.m == 0

    def test_all_negative_rejected(self):
        with pytest.raises(AllNegative):
            enumerate_pieces(ReluLayer.canonical(2), OutputLayer([-1.0, -1.0], -1.0))

    def test_geometric_cross_check(self):
        # Independent route: solve the line-hyperplane equations against
        # the pulled-back hyperplane and compare with the formula.
        layer = random_square_layer(4, seed=1)
        output = random_output(4, seed=2)
        t = enumerate_pieces(layer, output).t
        pulled = pull_back_hyperplane(layer.affine, output)
        for i in range(4):
            solved = -(pulled.weights @ layer.apex + pulled.bias) / (
                pulled.weights @ layer.duals[i]
            )
            assert t[i] == pytest.approx(solved, rel=1e-10)
            point = layer.apex + t[i] * layer.duals[i]
            assert abs(pulled(point)) < 1e-9 * (1 + abs(pulled.bias))

    def test_sign_law(self):
        output = random_output(5, seed=3)
        t = enumerate_pieces(ReluLayer.canonical(5), output).t
        np.testing.assert_array_equal(np.sign(t), np.sign(output.weights))

    def test_pulled_back_normal_duality(self):
        layer = random_square_layer(3, seed=4)
        output = random_output(3, seed=5)
        pulled = pull_back_hyperplane(layer.affine, output)
        np.testing.assert_allclose(
            layer.duals @ pulled.weights, output.weights, atol=1e-10
        )


def _frozen(values):
    """``values`` as a read-only intp array, the kind a grade keeps uncopied."""
    array = np.array(values, dtype=np.intp)
    array.setflags(write=False)
    return array


class TestEnumeratePieces:
    @pytest.mark.parametrize("m,count,curvature", [(0, 7, "convex"), (1, 6, "saddle"), (2, 4, "saddle")])
    def test_canonical_d3(self, m, count, curvature):
        boundary = canonical_boundary(3, m)
        assert boundary.piece_count == count
        assert len(boundary.pieces) == count
        assert boundary.curvature == curvature
        assert boundary.m == m

    def test_random_counts_match_formula_and_oracle(self):
        for d in (2, 3, 4, 5, 6):
            layer = random_square_layer(d, seed=d)
            output = random_output(d, seed=d + 50)
            boundary = enumerate_pieces(layer, output)
            assert boundary.piece_count == 2**d - 2**boundary.m
            assert piece_count_oracle(layer, output) == boundary.piece_count

    def test_boundary_carries_its_layer(self):
        # the samplers and the mesh take the boundary alone and read this layer
        contracting = build_dual_frame(AffineMap(np.eye(2, 3), np.ones(2)))
        for layer in (random_square_layer(4, seed=9), contracting):
            boundary = enumerate_pieces(layer, random_output(layer.d_out, seed=10))
            assert boundary.layer is layer
            assert all(grade.layer is layer for grade in boundary.grades)

    def test_pieces_nonempty_and_ordered(self):
        boundary = enumerate_pieces(random_square_layer(4, seed=7), random_output(4, seed=8))
        keys = [
            (len(p.indices), sum(1 << (i - 1) for i in p.indices))
            for p in boundary.pieces
        ]
        assert keys == sorted(keys)
        for p in boundary.pieces:
            assert (p.t > 0).any()
            assert p.bounded == bool(np.all(p.t > 0))
            assert set(p.indices).isdisjoint(p.recession_indices)

    @pytest.mark.parametrize("d", range(1, 10))
    def test_matches_per_subset_reference(self, d):
        # the per-subset loop that the array passes replaced: masks sorted
        # by (size, value), one index tuple per mask, kept when J meets P
        rng = np.random.default_rng(500 + d)
        layer = random_square_layer(d, seed=500 + d)
        for m in range(d):
            weights = rng.uniform(0.5, 2.0, d) * np.where(rng.permutation(d) < m, -1.0, 1.0)
            boundary = enumerate_pieces(layer, OutputLayer(weights, -1.0))
            t, full = boundary.t, (1 << d) - 1
            expected = []
            for mask in sorted(range(full + 1), key=lambda s: (s.bit_count(), s)):
                indices = tuple(i + 1 for i in range(d) if mask >> i & 1)
                if any(t[i - 1] > 0.0 for i in indices):
                    rest = tuple(i + 1 for i in range(d) if not mask >> i & 1)
                    expected.append((indices, rest, all(t[i - 1] > 0.0 for i in indices)))
            assert [(p.indices, p.recession_indices, p.bounded) for p in boundary.pieces] == expected
            for p in boundary.pieces:
                assert np.array_equal(p.t, t[[i - 1 for i in p.indices]])
            rows = [
                (tuple(i + 1 for i in j), tuple(i + 1 for i in r))
                for grade in boundary.grades
                for j, r in zip(grade.indices.tolist(), grade.recession.tolist())
            ]
            assert rows == [(p.indices, p.recession_indices) for p in boundary.pieces]

    def test_every_array_is_read_only(self):
        layer = random_square_layer(4, seed=8)
        boundary = enumerate_pieces(layer, OutputLayer([1.0, -0.5, 2.0, 1.5], -1.0))
        sample_piece(boundary.pieces[-1], 2, rng=np.random.default_rng(0))
        arrays = [boundary.t, boundary.canonical.scale, *(piece.t for piece in boundary.pieces)]
        arrays += [boundary.canonical.to_actual.matrix, boundary.canonical.to_actual.offset]
        for grade in boundary.grades:
            arrays += [grade.indices, grade.recession, grade.t]
            operands = grade.operands
            arrays += [getattr(operands, f.name) for f in dataclasses.fields(operands)]
        arrays = [array for array in arrays if isinstance(array, np.ndarray)]
        assert len(arrays) == 2 + boundary.piece_count + 2 + 4 * 8
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_constructors_copy_the_callers_arrays(self):
        layer = ReluLayer.canonical(3)
        t, scale, apex, duals = np.array([[1.0, 2.0]]), np.array([3.0, 1.0, 2.0]), np.zeros(3), np.eye(3)
        indices, recession = np.array([[0, 1]]), np.array([[2]])
        grade = BoundaryGrade(indices, recession, t, layer)
        reduction = CanonicalReduction((2, 3, 1), scale, layer.affine)
        frame = ReluLayer(layer.affine, apex, duals, 1.0)
        kept_by = [(t, grade.t), (indices, grade.indices), (recession, grade.recession), (scale, reduction.scale)]
        kept_by += [(apex, frame.apex), (duals, frame.duals)]
        (piece,) = grade.pieces()
        assert (piece.indices, piece.recession_indices, piece.bounded) == ((1, 2), (3,), True)
        for owned, kept in kept_by:
            before = owned.copy()
            owned[...] = 7.0  # the caller's array stays writable ...
            assert np.array_equal(kept, before)  # ... and is not the object's
            with pytest.raises(ValueError, match="read-only"):
                kept[...] = 0

    def test_enumerated_pieces_keep_their_grade_rows(self):
        boundary = enumerate_pieces(random_square_layer(4, seed=8), OutputLayer([1.0, -0.5, 2.0, 1.5], -1.0))
        grade_of = {len(grade.t[0]): grade for grade in boundary.grades}
        assert all(np.shares_memory(piece.t, grade_of[len(piece.t)].t) for piece in boundary.pieces)

    def test_degenerate_direction_rejected(self):
        layer = random_square_layer(3, seed=9)
        with pytest.raises(DegenerateDirection, match=r"vanishes at indices \(2,\)"):
            enumerate_pieces(layer, OutputLayer([1.0, 0.0, 1.0], -1.0))

    def test_empty_piece_detection(self):
        grade = BoundaryGrade(indices=[[0]], recession=[[1]], t=[[-1.0]], layer=ReluLayer.canonical(2))
        (piece,) = grade.pieces()
        assert not (piece.t > 0).any() and not piece.bounded
        with pytest.raises(EmptyPiece, match=r"piece \(1,\) has no points"):
            sample_piece(piece, 5, rng=np.random.default_rng(0))
        empty = dataclasses.replace(grade, indices=np.empty((1, 0)), recession=[[0, 1]], t=np.empty((1, 0)))
        assert not (empty.t > 0).any()
        (positive,) = dataclasses.replace(grade, t=[[2.0]]).pieces()
        assert (positive.t > 0).any() and positive.bounded
        assert sample_piece(positive, 5, rng=np.random.default_rng(0)).shape == (5, 2)

    @pytest.mark.parametrize(
        "indices, recession, t, match",
        [
            ([[1.7]], [[0.2]], [[1.0]], r"indices must hold integers in 0\.\.1, got 1\.7"),  # truncated to [[1]], [[0]] before
            ([[0, 1]], [[]], [[1.0]], r"t \(1, 1\) needs indices of that shape"),  # failed only in sample_piece before
            ([[0]], [[1.0, 0.0]], [[1.0]], r"recession of shape \(pieces, 2 - g\)"),  # g + h = 3
            ([[0]], [[1]], [1.0], r"a grade of t \(1,\)"),  # t is not (pieces, g)
            ([[0]], [[2]], [[1.0]], r"recession must hold integers in 0\.\.1, got 2\.0"),
            ([[-1]], [[1]], [[1.0]], r"indices must hold integers in 0\.\.1, got -1\.0"),
            (np.array([[0]]), np.array([[np.nan]]), [[1.0]], r"recession must hold integers in 0\.\.1, got nan"),
            (_frozen([[5]]), _frozen([[0]]), [[1.0]], r"indices must hold integers in 0\.\.1, got 5\.0"),  # failed only in sample_piece before
            (_frozen([[0]]), _frozen([[-1]]), [[1.0]], r"recession must hold integers in 0\.\.1, got -1\.0"),
        ],
        ids=[
            "non-integral", "indices wider than t", "g + h > d", "t a vector", "above range", "negative", "nan",
            "read-only above range", "read-only negative",
        ],
    )
    def test_hand_built_grade_validated(self, indices, recession, t, match):
        with pytest.raises(DimensionMismatch, match=match):
            BoundaryGrade(indices, recession, t, ReluLayer.canonical(2))

    def test_valid_hand_built_grade_accepted(self):
        grade = BoundaryGrade(np.array([[1], [0]]), [[0.0], [1.0]], [[2.0], [1.0]], ReluLayer.canonical(2))
        assert grade.indices.dtype == grade.recession.dtype == np.intp
        assert [piece.indices for piece in grade.pieces()] == [(2,), (1,)]

    def test_enumerated_grades_keep_their_index_views(self):
        # read-only intp views are kept, not copied: only their range is checked
        boundary = enumerate_pieces(random_square_layer(3, seed=8), OutputLayer([1.0, -0.5, 2.0], -1.0))
        for grade in boundary.grades:
            assert dataclasses.replace(grade).indices is grade.indices
            assert dataclasses.replace(grade).recession is grade.recession


def eager_pieces(boundary):
    """The pieces built eagerly, one per enumerated row, each the piece of
    a one-row grade of its own made from copies of the row's arrays."""
    return [
        BoundaryGrade(grade.indices[[row]], grade.recession[[row]], grade.t[[row]], grade.layer).pieces()[0]
        for grade in boundary.grades
        for row in range(grade.t.shape[0])
    ]


def recording(monkeypatch, module):
    """Record every boundary that ``module`` enumerates."""
    seen, enumerate_pieces = [], module.enumerate_pieces
    monkeypatch.setattr(module, "enumerate_pieces", lambda *a: seen.append(enumerate_pieces(*a)) or seen[-1])
    return seen


class TestLazyPieces:
    @pytest.mark.parametrize("d", range(1, 10))
    def test_equal_the_eager_pieces(self, d):
        rng = np.random.default_rng(600 + d)
        layer = random_square_layer(d, seed=600 + d)
        for m in range(d):
            weights = rng.uniform(0.5, 2.0, d) * np.where(rng.permutation(d) < m, -1.0, 1.0)
            boundary = enumerate_pieces(layer, OutputLayer(weights, -1.0))
            assert "pieces" not in boundary.__dict__
            expected = eager_pieces(boundary)
            assert len(boundary.pieces) == len(expected) == boundary.piece_count == 2**d - 2**m
            assert boundary.__dict__["pieces"] is boundary.pieces  # built once
            rows = [(grade, row) for grade in boundary.grades for row in range(grade.t.shape[0])]
            positive = boundary.t > 0.0
            for got, want, (grade, row) in zip(boundary.pieces, expected, rows):
                assert (got.indices, got.recession_indices, got.bounded) == (
                    want.indices, want.recession_indices, want.bounded
                )
                assert got.bounded == bool(positive[grade.indices[row]].all())
                assert got.t.tobytes() == want.t.tobytes() and not got.t.flags.writeable
                assert got.grade is grade and got.row == row and want.row == 0
                assert np.shares_memory(got.t, grade.t[row]) and got.layer is layer
                assert not np.shares_memory(want.t, grade.t)
            assert repr(boundary.pieces[-1]) == f"BoundaryPiece(indices={tuple(range(1, d + 1))}, row=0)"

    def test_sample_piece_draws_as_from_an_eager_piece(self):
        layer = random_square_layer(5, seed=610)
        output = OutputLayer([1.0, -0.5, 2.0, -1.5, 0.7], -1.0)
        enumerated, copied = enumerate_pieces(layer, output), enumerate_pieces(layer, output)
        a, b = (np.random.default_rng(611) for _ in range(2))
        for got, want in zip(enumerated.pieces, eager_pieces(copied)):
            drawn = sample_piece(got, 3, radius=1.5, rng=a).tobytes()
            assert drawn == sample_piece(want, 3, radius=1.5, rng=b).tobytes()
        assert a.bit_generator.state == b.bit_generator.state

    def test_trace_boundary_builds_no_piece(self, monkeypatch):
        seen = recording(monkeypatch, nw)
        layers = (ReluLayer.canonical(3), ReluLayer.canonical(3))
        net = nw.ReluNetwork(layers, OutputLayer(np.array([1.0, -0.5, 0.8]), -1.0))
        levels = nw.trace_boundary(net, samples_per_piece=4, rng=np.random.default_rng(0))
        assert sorted(levels) == [1, 2] and len(levels[2]) == 4 * seen[0].piece_count == 24
        assert len(seen) == 1 and "pieces" not in seen[0].__dict__

    def test_boundary_csv_export_builds_no_piece(self, monkeypatch, tmp_path, capsys):
        seen = recording(monkeypatch, cli)
        spec = {
            "layers": [{"matrix": np.eye(4).tolist(), "offset": [0.1, -0.2, 0.3, 0.0]}],
            "output": {"weights": [1.0, -0.5, 2.0, 1.5], "bias": -1.0},
        }
        (tmp_path / "net.json").write_text(json.dumps(spec))
        argv = ["boundary", "--input", str(tmp_path / "net.json"), "--samples", "4", "--csv", str(tmp_path / "b.csv")]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)["results"]["piece_count"] == seen[0].piece_count == 14
        assert len(seen) == 1 and "pieces" not in seen[0].__dict__


class TestSamplePiece:
    def test_central_piece_lies_on_pulled_back_hyperplane(self):
        layer = random_square_layer(3, seed=10)
        output = random_output(3, seed=11)
        boundary = enumerate_pieces(layer, output)
        central = [p for p in boundary.pieces if p.indices == (1, 2, 3)]
        assert central
        xs = sample_piece(central[0], 100, rng=np.random.default_rng(12))
        pulled = pull_back_hyperplane(layer.affine, normalize_output_layer(output))
        assert np.abs(pulled(xs)).max() < 1e-9 * (1 + abs(pulled.bias))
        # and inside the affine sector: all expansion coefficients positive
        lams = layer.affine(xs)
        assert lams.min() > 0

    def test_singleton_piece_base_point(self):
        boundary = canonical_boundary(3, 0)
        singleton = [p for p in boundary.pieces if p.indices == (2,)][0]
        xs = sample_piece(singleton, 50, radius=1.5, rng=np.random.default_rng(13))
        # the simplex constraint pins the active coefficient at t_j
        np.testing.assert_allclose(xs[:, 1], np.ones(50), atol=1e-12)
        assert (xs[:, [0, 2]] <= 1e-12).all()

    def test_all_pieces_on_zero_level(self):
        for seed in range(5):
            d = 2 + seed % 3
            layer = random_square_layer(d, seed=20 + seed)
            output = random_output(d, seed=40 + seed)
            boundary = enumerate_pieces(layer, output)
            rng = np.random.default_rng(60 + seed)
            for piece in boundary.pieces:
                xs = sample_piece(piece, 200, radius=2.0, rng=rng)
                level = np.abs(output(evaluate(layer, xs)))
                assert level.max() < 1e-8 * (1 + abs(output.bias))

    def test_pieces_have_affine_dimension_d_minus_1(self):
        layer = random_square_layer(4, seed=80)
        output = random_output(4, seed=81)
        boundary = enumerate_pieces(layer, output)
        rng = np.random.default_rng(82)
        for piece in boundary.pieces:
            xs = sample_piece(piece, 100, radius=2.0, rng=rng)
            centered = xs - xs.mean(axis=0)
            s = np.linalg.svd(centered, compute_uv=False)
            rank = int(np.sum(s > 1e-9 * s[0]))
            assert rank == 3

    def refused(self, error, match, n, radius):
        """sample_piece raises ``error`` before it draws anything."""
        (piece,) = [p for p in canonical_boundary(3, 1).pieces if p.indices == (1, 2)]
        rng = np.random.default_rng(90)
        state = rng.bit_generator.state
        with pytest.raises(error, match=match):
            sample_piece(piece, n, radius=radius, rng=rng)
        assert rng.bit_generator.state == state

    def test_negative_count_refused(self):
        # ended in numpy's "negative dimensions are not allowed" before
        self.refused(SchemaError, r"cannot draw -1 points", -1, 1.0)

    def test_negative_radius_refused(self):
        self.refused(SchemaError, r"radius must be a nonnegative finite number, got -0\.5", 4, -0.5)

    @pytest.mark.parametrize("radius", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_radius_refused(self, radius):
        # radius = inf returned non-finite points with a RuntimeWarning before
        self.refused(SchemaError, rf"radius must be a nonnegative finite number, got {radius}", 4, radius)

    def test_draw_beyond_the_float_limit_refused(self):
        # one point more than MAX_SAMPLE_FLOATS allows at d_in = 3, refused before any allocation
        n = MAX_SAMPLE_FLOATS // 3 + 1
        match = rf"--samples {n} would hold {3 * n} sample coordinates at once \(limit {MAX_SAMPLE_FLOATS}\)"
        self.refused(EnumerationLimit, match, n, 1.0)

    def test_rows_out_of_j_order_are_flagged(self):
        # t = (1, -1, 2): J = {1, 2} and {1, 2, 3} put the negative value first
        grades = enumerate_pieces(ReluLayer.canonical(3), OutputLayer([1.0, -1.0, 0.5], -1.0)).grades
        rows = {
            piece.indices: (in_j_order, unsort.tolist())
            for grade in grades
            for piece, (*_, in_j_order), unsort in zip(grade.pieces(), grade.operands.counts, grade.operands.unsort)
        }
        assert rows[(1, 2)] == (False, [1, 0]) and rows[(1, 2, 3)] == (False, [1, 0, 2])
        assert {key for key, (in_j_order, _) in rows.items() if in_j_order} == {(1,), (3,), (1, 3), (2, 3)}


class TestPieceCountOracle:
    def test_refused_above_witness_limit(self):
        layer = ReluLayer.canonical(9)
        output = OutputLayer(np.ones(9), -1.0)
        with pytest.raises(EnumerationLimit, match="limit d=8"):
            piece_count_oracle(layer, output)
        assert enumerate_pieces(layer, output).piece_count == 2**9 - 1

    @pytest.mark.parametrize("d", range(1, 9))
    def test_matches_per_subset_reference(self, d):
        rng = np.random.default_rng(200 + d)
        for _ in range(6):
            layer = ReluLayer.build(rng.normal(size=(d, d)), rng.normal(size=d))
            output = OutputLayer(rng.normal(size=d), rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0))
            try:
                expected = reference_piece_count_oracle(layer, output)
            except AllNegative:
                continue
            assert piece_count_oracle(layer, output) == expected

    def test_refused_before_any_array_work(self, monkeypatch):
        # With numpy and the readout out of the module's reach, d = 9 still
        # ends in EnumerationLimit: the guard runs before anything else.
        layer, output = ReluLayer.canonical(9), OutputLayer(np.ones(9), -1.0)
        monkeypatch.setattr(bd, "np", None)
        monkeypatch.setattr(bd, "_readout", None)
        with pytest.raises(EnumerationLimit, match="limit d=8"):
            piece_count_oracle(layer, output)

    @pytest.mark.parametrize("kind", sorted(EDGE_READOUTS))
    @pytest.mark.parametrize("d", range(1, 9))
    def test_edge_readouts_match_enumeration(self, kind, d):
        layer = random_square_layer(d, seed=100 + d)
        output, expected = EDGE_READOUTS[kind](d, np.random.default_rng(d))
        boundary = enumerate_pieces(layer, output)
        assert boundary.piece_count == expected
        assert piece_count_oracle(layer, output) == expected

    @pytest.mark.parametrize("d", [2, 5, 8])
    def test_not_vacuous_on_a_broken_frame(self, d):
        # A frame whose duals or apex do not fit its affine map keeps every
        # intersection value, so enumeration still counts 2^d - 2^m, but the
        # witnesses built from it miss the zero level or their pattern.
        layer = random_square_layer(d, seed=30 + d)
        output = random_output(d, seed=60 + d)
        count = enumerate_pieces(layer, output).piece_count
        assert piece_count_oracle(layer, output) == count
        duals = layer.duals.copy()
        duals[d // 2] *= 1.0 + 1e-3
        moved = layer.apex + 1e-3 * layer.duals.sum(axis=0)
        for broken in (dataclasses.replace(layer, duals=duals), dataclasses.replace(layer, apex=moved)):
            assert enumerate_pieces(broken, output).piece_count == count
            assert piece_count_oracle(broken, output) < count

    def test_not_vacuous_when_only_the_pattern_is_wrong(self):
        # Bending a_1* by (e_2 / w_2 - e_3 / w_3) / 2 keeps every witness on
        # the zero level (the two added terms of the readout cancel), but a
        # witness with 1 in J and 2 or 3 outside it gains that index.
        layer = ReluLayer.canonical(3)
        output = OutputLayer([1.0, 1.0, -1.0], -1.0)
        duals = np.eye(3)
        duals[0] += 0.5 * np.array([0.0, 1.0, 1.0])
        bent = dataclasses.replace(layer, duals=duals)
        assert enumerate_pieces(bent, output).piece_count == 6
        assert piece_count_oracle(bent, output) == 3

    def test_small_active_coordinate_beside_a_large_one(self):
        # t = (9.7e8, -1156): the witness of J = {1, 2} has rho = (9.7e8, 0.5),
        # and a band on max |rho| (about 0.97) swallowed the active 0.5.
        layer = ReluLayer.canonical(2)
        output = OutputLayer([1.03e-9, -8.64972746e-4], -1.0)
        assert enumerate_pieces(layer, output).piece_count == 2
        assert piece_count_oracle(layer, output) == 2
        assert reference_piece_count_oracle(layer, output) == 2

    @pytest.mark.parametrize("d", range(2, 7))
    def test_wide_span_readouts(self, d):
        # weights spanning nine decades at every m, on the identity layer,
        # where each witness is exact up to rounding of its own entries
        rng = np.random.default_rng(700 + d)
        layer = ReluLayer.canonical(d)
        for m in range(d):
            for _ in range(4):
                weights = 10 ** rng.uniform(-9, 0, d) * np.where(rng.permutation(d) < m, -1.0, 1.0)
                output = OutputLayer(weights, -rng.uniform(0.5, 2.0))
                assert piece_count_oracle(layer, output) == enumerate_pieces(layer, output).piece_count

    @pytest.mark.parametrize("d, seed", [(3, 2199), (3, 2759), (4, 252), (4, 948)])
    def test_level_band_carries_the_rounding_of_rho(self, d, seed):
        # Wide-span readouts on verify.random_layer frames: some witnesses
        # have a lead coefficient near 1e9, whose rounding in every rho_j,
        # times |w_j|, left the level outside a band on |c| alone.
        rng = np.random.default_rng(seed)
        layer, output = wide_span_instance(rng, d)
        count = enumerate_pieces(layer, output).piece_count
        assert piece_count_oracle(layer, output) == count
        assert reference_piece_count_oracle(layer, output) == count

    @pytest.mark.parametrize("d, seed", [(3, 2199), (4, 948)])
    def test_not_vacuous_on_an_off_level_witness(self, d, seed, monkeypatch):
        # Witnesses built for the readout but checked against its bias
        # moved by 1e-3 (1 + |c|) lie off the level by that much, far
        # outside the rounding band: the widened band still rejects them.
        layer, output = wide_span_instance(np.random.default_rng(seed), d)
        readout = bd._readout

        def moved_bias(layer, output):
            norm, t, m = readout(layer, output)
            return OutputLayer(norm.weights, norm.bias - 1e-3 * (1.0 + abs(norm.bias))), t, m

        assert piece_count_oracle(layer, output) == enumerate_pieces(layer, output).piece_count
        monkeypatch.setattr(bd, "_readout", moved_bias)
        assert piece_count_oracle(layer, output) == 0

    def test_d1_single_piece(self):
        layer = ReluLayer.canonical(1)
        output = OutputLayer([1.0], -1.0)
        assert piece_count_oracle(layer, output) == 1
        assert enumerate_pieces(layer, output).piece_count == 1

    def test_d2_m1_two_pieces_by_sampling(self):
        layer = random_square_layer(2, seed=14)
        output = normalize_output_layer(OutputLayer([-1.0, 2.0], -1.0))
        boundary = enumerate_pieces(layer, output)
        assert boundary.m == 1
        assert piece_count_oracle(layer, output) == 2 == boundary.piece_count
        patterns = sample_boundary_patterns(
            layer, output, np.random.default_rng(15), n_segments=4000
        )
        assert patterns == {p.indices for p in boundary.pieces}

    def test_sampled_patterns_subset_random(self):
        for seed in range(4):
            d = 2 + seed % 2
            layer = random_square_layer(d, seed=70 + seed)
            output = random_output(d, seed=90 + seed)
            boundary = enumerate_pieces(layer, output)
            patterns = sample_boundary_patterns(
                layer, output, np.random.default_rng(seed), n_segments=3000
            )
            assert patterns
            assert patterns <= {p.indices for p in boundary.pieces}

    def test_sampled_patterns_on_ill_conditioned_layer(self):
        # rcond ~ 1.0e-3 with dual norms ~ 357 and 470: segments drawn in
        # an input-space box around the apex never cross this boundary.
        layer, output = ILL_CONDITIONED
        assert layer.conditioning < 2e-3
        enumerated = {p.indices for p in enumerate_pieces(layer, output).pieces}
        for seed in range(10):
            patterns = sample_boundary_patterns(
                layer, output, np.random.default_rng(seed), n_segments=3000
            )
            assert patterns
            assert patterns <= enumerated


def reference_bisection(layer, readout, lo, hi):
    """The 80-pass loop of sample_boundary_patterns as it was first written:
    the level through the checked layer and readout calls, the rows
    selected with a broadcast mask."""

    def level(points):
        return readout(layer(points))

    f_lo, f_hi = level(lo), level(hi)
    crossing = (f_lo * f_hi) < 0.0
    lo, hi, f_lo = lo[crossing], hi[crossing], f_lo[crossing]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        f_mid = level(mid)
        toward_hi = (f_lo * f_mid) > 0.0
        lo = np.where(toward_hi[:, None], mid, lo)
        f_lo = np.where(toward_hi, f_mid, f_lo)
        hi = np.where(toward_hi[:, None], hi, mid)
    return 0.5 * (lo + hi)


def reference_segments(layer, t, rng, n_segments):
    """The segment ends that sample_boundary_patterns draws, lo then hi."""
    radius = 3.0 * max(float(np.max(np.abs(t))), 1.0)
    draw = rng.uniform
    return [layer.apex + draw(-radius, radius, size=(n_segments, layer.d_out)) @ layer.duals for _ in range(2)]


def reference_boundary_patterns(layer, output, rng, n_segments):
    """sample_boundary_patterns on the reference loop."""
    norm, t, _ = bd._readout(layer, output)
    rho = layer.affine(reference_bisection(layer, norm, *reference_segments(layer, t, rng, n_segments)))
    band = scaled(1e-6, float(np.max(np.abs(rho), initial=0.0)))
    clear = rho[np.all(np.abs(rho) > band, axis=1)]
    return {tuple(int(i) + 1 for i in np.flatnonzero(row)) for row in np.unique(clear > 0.0, axis=0)}


ILL_CONDITIONED = (
    ReluLayer.build(
        [[-0.20675410893103727, -1.3178943953329878], [-0.15903656250538148, -1.000007825061416]],
        [0.189974110681755, -0.9149976072077862],
    ),
    OutputLayer([-1.6759454624610572, 0.35507929392213744], -0.38401350958416036),
)


def bisection_instances():
    """(name, layer, readout): square and contracting layers at d = 1..4,
    readouts with and without negative values, and the ill-conditioned
    layer of test_sampled_patterns_on_ill_conditioned_layer."""
    rng = np.random.default_rng(700)
    for d in range(1, 5):
        for d_in in (d, d + 2):
            layer = verify.random_layer(rng, d, d_in)
            for m in sorted({0, d - 1}):
                weights = rng.uniform(0.5, 2.0, d) * np.where(np.arange(d) < m, -1.0, 1.0)
                yield f"d={d} d_in={d_in} m={m}", layer, OutputLayer(weights, -1.0)
    yield "ill-conditioned", *ILL_CONDITIONED


class TestPatternBisection:
    """The exact segment roots give the patterns and the generator stream
    of the 80-pass reference bisection."""

    @pytest.mark.parametrize("n_segments", [1, 3000, 4000])
    def test_patterns_and_stream_match_the_reference(self, n_segments):
        for seed, (name, layer, output) in enumerate(bisection_instances()):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_boundary_patterns(layer, output, a, n_segments=n_segments)
            assert got == reference_boundary_patterns(layer, output, b, n_segments), name
            assert a.bit_generator.state == b.bit_generator.state, name

    @pytest.mark.parametrize("n_segments", [1, 3000, 4000])
    def test_roots_lie_on_their_segments_and_the_level(self, n_segments):
        crossings = 0
        for seed, (name, layer, output) in enumerate(bisection_instances()):
            norm, t, _ = bd._readout(layer, output)
            lo, hi = reference_segments(layer, t, np.random.default_rng(seed), n_segments)
            crossing = norm(layer(lo)) * norm(layer(hi)) < 0.0
            lo, hi = lo[crossing], hi[crossing]
            x = bd._segment_roots(layer, norm, lo, hi)
            assert x.shape == lo.shape, name
            # x = lo + s (hi - lo) with s in [0, 1], up to the rounding of the coordinates
            step = hi - lo
            s = np.einsum("ij,ij->i", x - lo, step) / np.einsum("ij,ij->i", step, step)
            size = np.maximum(np.abs(lo), np.abs(hi)).max(axis=1)
            assert (s >= -1e-15).all() and (s <= 1.0 + 1e-15).all(), name
            assert (np.abs(x - lo - s[:, None] * step).max(axis=1) <= 8 * EPS * size).all(), name
            assert (np.abs(norm(layer(x))) <= 4 * level_rounding(layer, norm, lo, hi)).all(), name
            crossings += len(x)
        assert crossings >= n_segments  # not vacuous: segments do cross

    @pytest.mark.parametrize("reverse", [False, True])
    def test_zero_level_at_a_kink_is_found(self, reverse):
        # max(x1, 0) + max(x2, 0) - 1 along (0.5, -1) -> (1.5, 1) is s - 0.5
        # up to the kink x2 = 0 at s = 1/2, exactly 0 there, then 3 s - 1.5
        layer, readout = ReluLayer.canonical(2), OutputLayer([1.0, 1.0], -1.0)
        lo, hi = np.array([[0.5, -1.0]]), np.array([[1.5, 1.0]])
        if reverse:
            lo, hi = hi, lo
        assert readout(layer([1.0, 0.0])) == 0.0
        assert bd._segment_roots(layer, readout, lo, hi).tolist() == [[1.0, 0.0]]

    def test_three_roots_take_the_one_bisection_reaches(self):
        # canonical d = 3, m = 1: max(x1, 0) - 2 max(x2, 0) + 2 max(x3, 0) - 1
        # along (0.2, -1, -2) + u (1, 1, 1) is -1 up to u = -0.2, u - 0.8 up to
        # u = 1, 1.2 - u up to u = 2 and u - 2.8 after: zeros at 0.8, 1.2, 2.8
        layer, readout = ReluLayer.canonical(3), OutputLayer([1.0, -2.0, 2.0], -1.0)
        start, step = np.array([0.2, -1.0, -2.0]), np.ones(3)
        reached = set()
        for u0, u1 in [(-3.0, 3.0), (-3.0, 5.0), (0.0, 3.0), (-1.0, 3.0), (5.0, -3.0), (3.0, 0.0)]:
            lo, hi = start + u0 * step, start + u1 * step
            assert readout(layer(lo)) * readout(layer(hi)) < 0.0
            got, expected = (f(layer, readout, lo[None], hi[None])[0] for f in (bd._segment_roots, reference_bisection))
            pattern = tuple(np.flatnonzero(layer.affine(got) > 0.0) + 1)
            assert pattern == tuple(np.flatnonzero(layer.affine(expected) > 0.0) + 1), (u0, u1)
            reached.add(pattern)
        assert reached == {(1,), (1, 2, 3)}  # not vacuous: the first root is not always the one


EPS = np.finfo(float).eps


def level_rounding(layer, readout, lo, hi):
    """The rounding of one level evaluation at the larger of each segment's
    ends: eps (|w| . (|A| max(|lo|, |hi|) + |b|) + |c|)."""
    size = np.maximum(np.abs(lo), np.abs(hi)) @ np.abs(layer.affine.matrix).T + np.abs(layer.affine.offset)
    return EPS * (size @ np.abs(readout.weights) + abs(readout.bias))


@pytest.mark.slow
def test_patterns_and_stream_match_the_reference_sweep():
    """2 130 instances: square and contracting layers at d = 1..5 with every
    m, 70 each, and the ill-conditioned layer 30 times."""
    rng = np.random.default_rng(2400)
    instances = [ILL_CONDITIONED] * 30
    for d in range(1, 6):
        for d_in in (d, d + 2):
            for m in range(d):
                for _ in range(70):
                    weights = rng.uniform(0.5, 2.0, d) * np.where(rng.permutation(d) < m, -1.0, 1.0)
                    instances.append((verify.random_layer(rng, d, d_in), OutputLayer(weights, -float(rng.uniform(0.5, 2.0)))))
    assert len(instances) >= 2000
    for seed, (layer, output) in enumerate(instances):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_boundary_patterns(layer, output, a)
        assert got == reference_boundary_patterns(layer, output, b, 4000), seed
        assert a.bit_generator.state == b.bit_generator.state, seed


class TestCanonicalBoundary:
    def test_d3_m0(self):
        boundary = canonical_boundary(3, 0)
        assert boundary.piece_count == 7
        assert boundary.curvature == "convex"
        np.testing.assert_allclose(boundary.t, np.ones(3))

    @pytest.mark.parametrize("d", [1, 3, 9])  # d = 9: above WITNESS_MAX_DIM, built per call
    def test_layer_is_the_canonical_layer(self, d):
        for m in range(d):
            boundary = canonical_boundary(d, m)
            layer = boundary.layer
            assert all(grade.layer is layer for grade in boundary.grades)
            for array in (layer.affine.matrix, layer.duals):
                assert np.array_equal(array, np.eye(d))
            assert not layer.affine.offset.any() and not layer.apex.any()

    def test_d2_m1_pattern(self):
        boundary = canonical_boundary(2, 1)
        np.testing.assert_allclose(boundary.t, [-1.0, 1.0])
        assert boundary.piece_count == 2

    def test_d1_single_piece_at_one(self):
        boundary = canonical_boundary(1, 0)
        assert boundary.piece_count == 1
        xs = sample_piece(boundary.pieces[0], 10, rng=np.random.default_rng(16))
        np.testing.assert_allclose(xs, np.ones((10, 1)), atol=1e-12)

    def test_invalid_m(self):
        for _ in range(2):  # a refusal is not kept: every call raises
            for d, m in ((3, 3), (3, -1), (8, 8), (9, 9)):
                with pytest.raises(InvalidM):
                    canonical_boundary(d, m)

    def test_shared_up_to_the_witness_limit(self):
        for d in range(1, 9):
            for m in range(d):
                assert canonical_boundary(d, m) is canonical_boundary(d, m)
        assert canonical_boundary(9, 0) is not canonical_boundary(9, 0)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_shared_equals_a_fresh_enumeration(self, d):
        for m in range(d):
            shared = canonical_boundary(d, m)
            readout = OutputLayer(np.where(np.arange(d) < m, -1.0, 1.0), -1.0)
            fresh = enumerate_pieces(ReluLayer.canonical(d), readout)
            assert (shared.d, shared.m, shared.piece_count, shared.curvature) == (
                fresh.d, fresh.m, fresh.piece_count, fresh.curvature
            )
            assert shared.t.tobytes() == fresh.t.tobytes()
            assert shared.readout.weights.tobytes() == fresh.readout.weights.tobytes()
            assert shared.readout.bias == fresh.readout.bias
            assert len(shared.grades) == len(fresh.grades) == d
            for got, want in zip(shared.grades, fresh.grades):
                for name in ("indices", "recession", "t"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert shared.canonical.sigma == fresh.canonical.sigma
            assert shared.canonical.scale.tobytes() == fresh.canonical.scale.tobytes()
            assert shared.canonical.to_actual.matrix.tobytes() == fresh.canonical.to_actual.matrix.tobytes()
            assert [(p.indices, p.recession_indices, p.bounded, p.t.tobytes()) for p in shared.pieces] == [
                (p.indices, p.recession_indices, p.bounded, p.t.tobytes()) for p in fresh.pieces
            ]

    def test_shared_arrays_are_read_only(self):
        boundary = canonical_boundary(4, 2)
        sample_piece(boundary.pieces[-1], 2, rng=np.random.default_rng(0))  # builds its grade's operands
        arrays = [boundary.t, boundary.readout.weights, boundary.canonical.scale]
        arrays += [boundary.canonical.to_actual.matrix, boundary.canonical.to_actual.offset]
        arrays += [piece.t for piece in boundary.pieces]
        layer = boundary.grades[0].layer
        arrays += [layer.apex, layer.duals, layer.affine.matrix, layer.affine.offset]
        for grade in boundary.grades:
            arrays += [grade.indices, grade.recession, grade.t]
        operands = boundary.grades[-1].operands
        arrays += [getattr(operands, f.name) for f in dataclasses.fields(operands)]
        arrays = [array for array in arrays if isinstance(array, np.ndarray)]
        assert len(arrays) == 5 + boundary.piece_count + 4 + 3 * 4 + 5
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    @pytest.mark.parametrize("d", range(1, 9))
    def test_every_canonical_row_is_in_j_order(self, d):
        # canonical values ascend, so no canonical piece needs the gather
        for m in range(d):
            for grade in canonical_boundary(d, m).grades:
                assert all(in_j_order for *_, in_j_order in grade.operands.counts)


class TestCanonicalReduction:
    def test_self_reduction_is_identity(self):
        boundary = canonical_boundary(4, 2)
        reduction = boundary.canonical
        assert reduction.sigma == (1, 2, 3, 4)
        np.testing.assert_allclose(reduction.scale, np.ones(4))
        np.testing.assert_allclose(reduction.to_actual.matrix, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(reduction.to_actual.offset, np.zeros(4), atol=1e-12)

    def test_frozen_sort_example(self):
        # t = (2, -1/2, 1) sorts to indices (2, 3, 1) with signs (-,+,+)
        layer = ReluLayer.canonical(3)
        output = OutputLayer([0.5, -2.0, 1.0], -1.0)
        boundary = enumerate_pieces(layer, output)
        np.testing.assert_allclose(boundary.t, [2.0, -0.5, 1.0])
        reduction = boundary.canonical
        assert reduction.sigma == (2, 3, 1)
        sorted_t = boundary.t[[i - 1 for i in reduction.sigma]]
        np.testing.assert_array_equal(np.sign(sorted_t), [-1.0, 1.0, 1.0])
        assert boundary.m == 1

    def test_mapped_samples_land_on_boundary(self):
        rng = np.random.default_rng(17)
        for seed in range(10):
            layer = random_square_layer(4, seed=100 + seed)
            output = random_output(4, seed=130 + seed)
            boundary = enumerate_pieces(layer, output)
            reduction = boundary.canonical
            canon = canonical_boundary(4, boundary.m)
            mapped_sets = {reduction.map_indices(p.indices) for p in canon.pieces}
            assert mapped_sets == {p.indices for p in boundary.pieces}
            for piece in canon.pieces:
                xs = sample_piece(piece, 40, radius=1.5, rng=rng)
                mapped = reduction.to_actual(xs)
                residual = np.abs(output(evaluate(layer, mapped)))
                assert residual.max() < 1e-7 * (1 + abs(output.bias))

    def test_map_is_invertible(self):
        layer = random_square_layer(3, seed=18)
        output = random_output(3, seed=19)
        reduction = enumerate_pieces(layer, output).canonical
        assert np.linalg.cond(reduction.to_actual.matrix) < 1e12


class TestConvexityDichotomy:
    @pytest.mark.parametrize("d", [2, 3])
    def test_m0_samples_lie_on_their_hull(self, d):
        rng = np.random.default_rng(23)
        for seed in range(3):
            layer = random_square_layer(d, seed=200 + seed)
            while True:
                output = random_output(d, seed=230 + seed * 7)
                if enumerate_pieces(ReluLayer.canonical(d), output).m == 0:
                    break
                seed += 1
            boundary = enumerate_pieces(layer, output)
            assert boundary.curvature == "convex"
            samples = np.vstack(
                [sample_piece(p, 60, radius=1.5, rng=rng) for p in boundary.pieces]
            )
            hull = ConvexHull(samples)
            # boundary points of a convex region cannot be interior to the
            # hull of other boundary points
            facet_values = samples @ hull.equations[:, :-1].T + hull.equations[:, -1]
            distance_to_hull_surface = np.abs(facet_values).min(axis=1)
            scale = np.abs(samples).max()
            assert distance_to_hull_surface.max() < 1e-7 * (1 + scale)
