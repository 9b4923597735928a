import numpy as np
import pytest
from scipy.spatial import ConvexHull

from relugeom import (
    AllNegative,
    DegenerateBias,
    DegenerateDirection,
    EmptyPiece,
    InvalidM,
    OutputLayer,
    canonical_boundary,
    enumerate_pieces,
    piece_count_oracle,
    sample_piece,
)
from relugeom.boundary import (
    BoundaryPiece,
    normalize_output_layer,
    pull_back_hyperplane,
    sample_boundary_patterns,
)
from relugeom.layer import ReluLayer, evaluate


def random_layer(d, seed=0):
    rng = np.random.default_rng(seed)
    while True:
        a = rng.normal(size=(d, d))
        if np.linalg.cond(a) < 1e4:
            return ReluLayer.build(a, rng.normal(size=d))


def random_output(d, seed=0):
    rng = np.random.default_rng(seed)
    while True:
        w = rng.normal(size=d)
        b = rng.normal() * 1.5
        if np.abs(w).min() < 0.15 * np.abs(w).max() or abs(b) < 0.2:
            continue
        out = normalize_output_layer(OutputLayer(w, b))
        if np.any(out.weights > 0):
            return out


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
        layer = random_layer(4, seed=1)
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
        layer = random_layer(3, seed=4)
        output = random_output(3, seed=5)
        pulled = pull_back_hyperplane(layer.affine, output)
        np.testing.assert_allclose(
            layer.duals @ pulled.weights, output.weights, atol=1e-10
        )


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
            layer = random_layer(d, seed=d)
            output = random_output(d, seed=d + 50)
            boundary = enumerate_pieces(layer, output)
            assert boundary.piece_count == 2**d - 2**boundary.m
            assert piece_count_oracle(layer, output) == boundary.piece_count

    def test_pieces_nonempty_and_ordered(self):
        boundary = enumerate_pieces(random_layer(4, seed=7), random_output(4, seed=8))
        keys = [
            (len(p.indices), sum(1 << (i - 1) for i in p.indices))
            for p in boundary.pieces
        ]
        assert keys == sorted(keys)
        for p in boundary.pieces:
            assert not p.is_empty
            assert np.any(p.t > 0)
            assert p.bounded == bool(np.all(p.t > 0))
            assert set(p.indices).isdisjoint(p.recession_indices)

    def test_degenerate_direction_rejected(self):
        layer = random_layer(3, seed=9)
        with pytest.raises(DegenerateDirection, match=r"vanishes at indices \(2,\)"):
            enumerate_pieces(layer, OutputLayer([1.0, 0.0, 1.0], -1.0))

    def test_empty_piece_detection(self):
        piece = BoundaryPiece(
            indices=(1,),
            t=np.array([-1.0]),
            recession_indices=(2,),
            bounded=False,
            layer=ReluLayer.canonical(2),
        )
        assert piece.is_empty
        with pytest.raises(EmptyPiece):
            sample_piece(piece, 5)


class TestSamplePiece:
    def test_central_piece_lies_on_pulled_back_hyperplane(self):
        layer = random_layer(3, seed=10)
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
            layer = random_layer(d, seed=20 + seed)
            output = random_output(d, seed=40 + seed)
            boundary = enumerate_pieces(layer, output)
            rng = np.random.default_rng(60 + seed)
            for piece in boundary.pieces:
                xs = sample_piece(piece, 200, radius=2.0, rng=rng)
                level = np.abs(output(evaluate(layer, xs)))
                assert level.max() < 1e-8 * (1 + abs(output.bias))

    def test_pieces_have_affine_dimension_d_minus_1(self):
        layer = random_layer(4, seed=80)
        output = random_output(4, seed=81)
        boundary = enumerate_pieces(layer, output)
        rng = np.random.default_rng(82)
        for piece in boundary.pieces:
            xs = sample_piece(piece, 100, radius=2.0, rng=rng)
            centered = xs - xs.mean(axis=0)
            s = np.linalg.svd(centered, compute_uv=False)
            rank = int(np.sum(s > 1e-9 * s[0]))
            assert rank == 3


class TestPieceCountOracle:
    def test_d1_single_piece(self):
        layer = ReluLayer.canonical(1)
        output = OutputLayer([1.0], -1.0)
        assert piece_count_oracle(layer, output) == 1
        assert enumerate_pieces(layer, output).piece_count == 1

    def test_d2_m1_two_pieces_by_sampling(self):
        layer = random_layer(2, seed=14)
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
            layer = random_layer(d, seed=70 + seed)
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
        layer = ReluLayer.build(
            [[-0.20675410893103727, -1.3178943953329878], [-0.15903656250538148, -1.000007825061416]],
            [0.189974110681755, -0.9149976072077862],
        )
        output = OutputLayer([-1.6759454624610572, 0.35507929392213744], -0.38401350958416036)
        assert layer.conditioning < 2e-3
        enumerated = {p.indices for p in enumerate_pieces(layer, output).pieces}
        for seed in range(10):
            patterns = sample_boundary_patterns(
                layer, output, np.random.default_rng(seed), n_segments=3000
            )
            assert patterns
            assert patterns <= enumerated


class TestCanonicalBoundary:
    def test_d3_m0(self):
        boundary = canonical_boundary(3, 0)
        assert boundary.piece_count == 7
        assert boundary.curvature == "convex"
        np.testing.assert_allclose(boundary.t, np.ones(3))

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
        with pytest.raises(InvalidM):
            canonical_boundary(3, 3)
        with pytest.raises(InvalidM):
            canonical_boundary(3, -1)


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
            layer = random_layer(4, seed=100 + seed)
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
        layer = random_layer(3, seed=18)
        output = random_output(3, seed=19)
        reduction = enumerate_pieces(layer, output).canonical
        assert np.linalg.cond(reduction.to_actual.matrix) < 1e12


class TestConvexityDichotomy:
    @pytest.mark.parametrize("d", [2, 3])
    def test_m0_samples_lie_on_their_hull(self, d):
        rng = np.random.default_rng(23)
        for seed in range(3):
            layer = random_layer(d, seed=200 + seed)
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
