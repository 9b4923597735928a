import dataclasses
import tracemalloc

import numpy as np
import pytest

from relugeom import (
    DimensionMismatch,
    EmptyIntersection,
    OutputLayer,
    RankDeficient,
    ReluNetwork,
    SchemaError,
    canonical_structure,
    enumerate_pieces,
    evaluate_canonical,
    evaluate_network,
    trace_boundary,
)
import relugeom.boundary as bd
from relugeom.boundary import sample_piece
from relugeom.core import AffineMap, build_dual_frame
from relugeom.layer import ReluLayer, evaluate
from relugeom.layer import preimage_of_point
from relugeom.network import (
    BoundarySampleSet,
    evaluate_tail,
    pull_back_boundary,
    sample_shallow_boundary,
)
from relugeom.tolerances import MAX_SAMPLE_FLOATS
from relugeom.verify import random_layer, random_output_layer

from factories import random_net


class TestEvaluate:
    def test_depth_one_equals_shallow(self):
        net = random_net(1, 3, seed=1)
        rng = np.random.default_rng(2)
        for x in rng.normal(size=(20, 3)):
            shallow = net.output(evaluate(net.layers[0], x))
            assert evaluate_network(net, x) == pytest.approx(shallow)

    def test_canonical_layers_collapse(self):
        # identity layers after the first change nothing on the orthant
        d = 3
        layers = tuple(ReluLayer.canonical(d) for _ in range(4))
        output = OutputLayer(np.array([1.0, -2.0, 0.5]), -0.7)
        net = ReluNetwork(layers, output)
        rng = np.random.default_rng(3)
        for x in rng.normal(size=(50, d)) * 2.0:
            want = output(np.maximum(x, 0.0))
            assert evaluate_network(net, x) == pytest.approx(want)

    def test_matches_manual_composition(self):
        net = random_net(3, 4, seed=4)
        rng = np.random.default_rng(5)
        xs = rng.normal(size=(1000, 4)) * 2.0
        h = xs
        for layer in net.layers:
            h = np.maximum(h @ layer.affine.matrix.T + layer.affine.offset, 0.0)
        manual = h @ net.output.weights + net.output.bias
        np.testing.assert_allclose(evaluate_network(net, xs), manual, atol=1e-12)

    def test_chain_validation(self):
        l1 = ReluLayer.canonical(3)
        l2 = ReluLayer.canonical(2)
        with pytest.raises(DimensionMismatch):
            ReluNetwork((l1, l2), OutputLayer(np.ones(2), -1.0))
        with pytest.raises(DimensionMismatch):
            ReluNetwork((l1,), OutputLayer(np.ones(2), -1.0))

    def test_evaluate_tail_levels(self):
        net = random_net(3, 2, seed=6)
        x = np.array([0.3, -0.8])
        assert evaluate_tail(net, 1, x) == pytest.approx(evaluate_network(net, x))
        y = evaluate(net.layers[0], x)
        assert evaluate_tail(net, 2, y) == pytest.approx(evaluate_network(net, x))


class TestCanonicalStructure:
    def test_depth_one_identity_rewrite(self):
        net = random_net(1, 3, seed=7)
        structure = canonical_structure(net)
        affine = net.layers[0].affine
        np.testing.assert_allclose(structure.frames[0].affine.matrix, affine.matrix)
        np.testing.assert_allclose(structure.frames[0].affine.offset, affine.offset)
        np.testing.assert_allclose(
            structure.final_affine.weights, affine.matrix.T @ net.output.weights
        )
        assert structure.final_affine.bias == pytest.approx(
            net.output.weights @ affine.offset + net.output.bias
        )

    def test_rewrite_matches_network(self):
        net = random_net(2, 2, seed=8)
        structure = canonical_structure(net)
        xs = np.random.default_rng(9).normal(size=(10000, 2)) * 2.0
        direct = np.asarray(evaluate_network(net, xs))
        rewritten = np.asarray(evaluate_canonical(structure, xs))
        assert np.abs(direct - rewritten).max() < 1e-8

    def test_composition_consistency(self):
        net = random_net(3, 3, seed=10)
        structure = canonical_structure(net)
        rng = np.random.default_rng(11)
        for x in rng.normal(size=(10, 3)):
            np.testing.assert_allclose(
                structure.frames[2].affine(x),
                net.layers[2].affine(net.layers[1].affine(net.layers[0].affine(x))),
                atol=1e-10,
            )

    @pytest.mark.parametrize("depth", [1, 2, 4])
    @pytest.mark.parametrize("shape", [(3, 3), (2, 4)])
    def test_first_frame_is_the_first_layer(self, depth, shape):
        # the first composed map is layer 1's own affine map, whose frame that layer already is
        rng = np.random.default_rng(depth)
        d_out, d_in = shape
        layers = (random_layer(rng, d_out, d_in),) + tuple(random_layer(rng, d_out) for _ in range(depth - 1))
        net = ReluNetwork(layers, random_output_layer(rng, d_out))
        structure = canonical_structure(net)
        assert structure.frames[0] is net.layers[0]
        rebuilt = dataclasses.replace(structure, frames=(build_dual_frame(layers[0].affine),) + structure.frames[1:])
        xs = rng.normal(size=(64, d_in)) * 2.0
        assert evaluate_canonical(structure, xs).tobytes() == evaluate_canonical(rebuilt, xs).tobytes()

    def test_singular_composition_names_depth(self):
        # each factor passes the rank gate but the product does not
        a1 = np.diag([1.0, 1e-7])
        a2 = np.diag([1.0, 1e-7])
        net = ReluNetwork.from_arrays([a1, a2], [np.zeros(2)] * 2, np.ones(2), -1.0)
        with pytest.raises(RankDeficient, match="depth 2"):
            canonical_structure(net)


class TestPullBack:
    def net(self, seed=12):
        return random_net(2, 2, seed=seed)

    def test_sample_set_copies_the_callers_arrays(self):
        owned = np.zeros((2, 3)), np.zeros(2), np.zeros(2, np.int64), np.zeros(2, np.int64)
        samples = BoundarySampleSet(1, *owned)
        kept = samples.points, samples.residuals, samples.parent, samples.fiber
        for mine, its in zip(owned, kept):
            assert mine.flags.writeable and not np.shares_memory(mine, its)
            with pytest.raises(ValueError, match="read-only"):
                its[...] = 1
        assert all(not mine.any() for mine in owned)
        for array in owned:
            array.setflags(write=False)
        frozen = BoundarySampleSet(1, *owned)  # read-only arrays of the right dtype are kept
        kept = frozen.points, frozen.residuals, frozen.parent, frozen.fiber
        assert all(its is mine for mine, its in zip(owned, kept))

    def test_interior_point_pulls_to_affine_preimage(self):
        net = self.net()
        layer = net.layers[0]
        y = np.array([1.3, 0.7])
        samples = BoundarySampleSet(
            level=2,
            points=y[None, :],
            residuals=np.zeros(1),
            parent=[0],
            fiber=[0],
        )
        # the residual filter is irrelevant here; accept everything
        got = pull_back_boundary(net, 1, samples, np.random.default_rng(13), max_fibers=16, tol=np.inf)
        assert len(got) == 1
        direct = np.linalg.solve(layer.affine.matrix, y - layer.affine.offset)
        np.testing.assert_allclose(got.points[0], direct, atol=1e-10)

    def test_zero_component_spawns_fiber(self):
        net = self.net(seed=14)
        y = np.array([0.9, 0.0])
        samples = BoundarySampleSet(
            level=2, points=y[None, :], residuals=np.zeros(1),
            parent=[0], fiber=[0],
        )
        got = pull_back_boundary(net, 1, samples, np.random.default_rng(15), max_fibers=16, tol=np.inf)
        assert len(got) == 4  # min(16, 4^1)
        layer = net.layers[0]
        for x in got.points:
            np.testing.assert_allclose(evaluate(layer, x), y, atol=1e-10)

    def test_point_outside_orthant_dropped(self):
        net = self.net(seed=16)
        points = np.array([[1.0, -0.5], [0.5, 0.5]])
        samples = BoundarySampleSet(
            level=2, points=points, residuals=np.zeros(2),
            parent=[0, 1], fiber=[0, 0],
        )
        got = pull_back_boundary(net, 1, samples, np.random.default_rng(17), max_fibers=16, tol=np.inf)
        assert set(got.parent.tolist()) == {1}

    def test_all_outside_raises(self):
        net = self.net(seed=18)
        samples = BoundarySampleSet(
            level=2, points=np.array([[-1.0, -1.0]]), residuals=np.zeros(1),
            parent=[0], fiber=[0],
        )
        with pytest.raises(EmptyIntersection):
            pull_back_boundary(net, 1, samples, np.random.default_rng(19), max_fibers=16, tol=1e-7)

    def test_empty_intersection_reports_funnel(self):
        net = self.net(seed=18)
        points = np.array([[-1.0, -1.0], [0.5, -0.2], [-0.1, 2.0]])
        samples = BoundarySampleSet(
            level=2, points=points, residuals=np.zeros(3), parent=[0, 1, 2], fiber=[0, 0, 0],
        )
        with pytest.raises(EmptyIntersection, match="received 3 level-2 samples, 0 inside"):
            pull_back_boundary(net, 1, samples, np.random.default_rng(19), max_fibers=16, tol=1e-7)

    def test_empty_intersection_names_residual_losses(self):
        net = self.net(seed=18)
        samples = BoundarySampleSet(
            level=2, points=np.empty((0, 2)), residuals=np.empty(0), parent=[], fiber=[],
            rejected=12,
        )
        with pytest.raises(EmptyIntersection, match="residual filter at level 2 had rejected all 12"):
            pull_back_boundary(net, 1, samples, np.random.default_rng(19), max_fibers=16, tol=1e-7)

    def test_rejected_counts_residual_filter(self):
        net = self.net(seed=14)
        samples = BoundarySampleSet(
            level=2, points=np.array([[0.9, 0.0]]), residuals=np.zeros(1), parent=[0], fiber=[0],
        )
        # a negative tolerance rejects every fiber
        got = pull_back_boundary(net, 1, samples, np.random.default_rng(15), max_fibers=16, tol=-1.0)
        assert len(got) == 0 and got.rejected == 4

    def test_contracting_layer_fibers_include_null_directions(self):
        rng = np.random.default_rng(40)
        first = ReluLayer.build(rng.normal(size=(2, 3)), rng.normal(size=2))
        second = ReluLayer.build(rng.normal(size=(2, 2)), rng.normal(size=2))
        net = ReluNetwork((first, second), OutputLayer(np.array([1.0, 1.0]), -1.0))
        samples = BoundarySampleSet(
            level=2, points=np.array([[0.8, 0.0]]), residuals=np.zeros(1),
            parent=[0], fiber=[0],
        )
        got = pull_back_boundary(net, 1, samples, np.random.default_rng(41), max_fibers=16, tol=np.inf)
        # one zero component plus one null direction widen the fiber budget
        assert len(got) == 16
        for x in got.points:
            np.testing.assert_allclose(evaluate(first, x), [0.8, 0.0], atol=1e-9)
        # at least one fiber actually left the row span
        base = got.points[0]
        null_dir = first.complement_basis[0]
        offsets = (got.points - base) @ null_dir
        assert np.abs(offsets[1:]).max() > 1e-3


def reference_pull_back(net, k, samples, rng, max_fibers=16, tol=1e-7):
    """Per-parent pull-back through preimage_of_point, drawing in the same order."""
    layer = net.layers[k - 1]
    inside = np.flatnonzero(np.min(samples.points, axis=1) >= -1e-9)
    if inside.size == 0:
        raise EmptyIntersection("no samples inside the nonnegative orthant")
    points, parents, fibers = [], [], []
    for parent in inside:
        y = np.where(samples.points[parent] < 0.0, 0.0, samples.points[parent])
        pre = preimage_of_point(layer, y)
        z = len(pre.generator_indices)
        free = 0 if layer.complement_basis is None else layer.complement_basis.shape[0]
        n_fibers = min(max_fibers, 4 ** (z + free))
        fiber_points = [pre.base]
        if n_fibers > 1:
            extra = rng.exponential(1.0, size=(n_fibers - 1, z)) @ pre.generators
            if free:
                shifts = rng.normal(0.0, 1.0, size=(n_fibers - 1, free))
                extra = extra + shifts @ layer.complement_basis
            fiber_points.extend(pre.base + extra)
        points.extend(fiber_points)
        parents.extend([parent] * len(fiber_points))
        fibers.extend(range(len(fiber_points)))
    points = np.asarray(points)
    residuals = np.abs(np.asarray(evaluate_tail(net, k, points)))
    keep = residuals <= tol
    return points[keep], residuals[keep], np.asarray(parents)[keep], np.asarray(fibers)[keep]


def contracting_net(d_in, d_out, seed):
    rng = np.random.default_rng(seed)
    first = ReluLayer.build(rng.normal(size=(d_out, d_in)), rng.normal(size=d_out))
    second = ReluLayer.build(rng.normal(size=(d_out, d_out)), rng.normal(size=d_out))
    return ReluNetwork((first, second), OutputLayer(rng.normal(size=d_out), rng.normal()))


class TestBatchedPullBackEquivalence:
    """The batched pull-back reproduces the per-parent loop bit for bit."""

    def parents(self, d, seed):
        # generic points, zero components, points in the orthant band and outside it
        rng = np.random.default_rng(seed)
        y = np.abs(rng.normal(size=(60, d)))
        y[rng.random(size=y.shape) < 0.35] = 0.0
        y[::7, 0] = -1e-12
        y[3::11, -1] = -0.5
        return BoundarySampleSet(level=2, points=y, residuals=np.zeros(len(y)),
                                 parent=np.arange(len(y)), fiber=np.zeros(len(y)))

    def assert_same(self, net, samples, seed, max_fibers=16, tol=1e-7):
        got = pull_back_boundary(net, 1, samples, np.random.default_rng(seed), max_fibers, tol)
        rng = np.random.default_rng(seed)
        points, residuals, parent, fiber = reference_pull_back(net, 1, samples, rng, max_fibers, tol)
        assert np.array_equal(got.points, points)
        assert np.array_equal(got.residuals, residuals)
        assert np.array_equal(got.parent, parent)
        assert np.array_equal(got.fiber, fiber)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_square_layers(self, d, seed):
        net = random_net(2, d, seed=100 + seed)
        self.assert_same(net, self.parents(d, seed), seed, tol=np.inf)

    @pytest.mark.parametrize("shape", [(3, 2), (4, 2), (5, 3), (6, 4)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_contracting_layers(self, shape, seed):
        net = contracting_net(*shape, seed=200 + seed)
        self.assert_same(net, self.parents(shape[1], seed), seed, tol=np.inf)

    @pytest.mark.parametrize("max_fibers", [0, 1, 2, 5])
    def test_fiber_budgets(self, max_fibers):
        for net in (random_net(2, 4, seed=300), contracting_net(5, 3, seed=301)):
            samples = self.parents(net.layers[0].d_out, 302)
            self.assert_same(net, samples, 303, max_fibers=max_fibers)

    @pytest.mark.parametrize("tol", [1e-7, 1e-16])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_traced_parents_with_residual_filter(self, seed, tol):
        # parents are real level-2 samples; the tight tolerance rejects some fibers
        for layers in (random_net(2, 3, seed=400 + seed).layers,
                       contracting_net(4, 3, seed=410 + seed).layers):
            net = ReluNetwork(layers, OutputLayer(np.ones(3), -1.0))
            rng = np.random.default_rng(seed)
            boundary = enumerate_pieces(net.layers[1], net.output)
            samples = sample_shallow_boundary(boundary, 2, 20, 2.0, rng)
            try:
                self.assert_same(net, samples, seed, tol=tol)
            except EmptyIntersection:
                with pytest.raises(EmptyIntersection):
                    reference_pull_back(net, 1, samples, np.random.default_rng(seed), tol=tol)


def reference_seed_samples(layer, boundary, samples_per_piece, radius, rng):
    """The per-piece seed sampler: sample_piece on every piece in piece
    order, then each piece's residuals from its own evaluate and readout."""
    drawn = [sample_piece(piece, samples_per_piece, radius=radius, rng=rng) for piece in boundary.pieces]
    residuals = np.concatenate([np.abs(boundary.readout(evaluate(layer, xs))) for xs in drawn])
    n_pieces = len(drawn)
    return (
        np.vstack(drawn),
        residuals,
        np.repeat(np.arange(n_pieces), samples_per_piece),
        np.tile(np.arange(samples_per_piece), n_pieces),
    )


def three_call_sample_piece(piece, n, radius, rng):
    """sample_piece as it drew before the two-call stream: exponential for
    the negative coordinates, gamma(1) for the Dirichlet weights and
    uniform(0, radius) for the recession coefficients."""
    t = piece.t
    (pos,) = (t > 0.0).nonzero()
    (neg,) = (t < 0.0).nonzero()
    alphas = np.zeros((n, len(piece.indices)))
    if neg.size:
        alphas[:, neg] = rng.exponential(radius * float(np.abs(t[neg]).max()), size=(n, neg.size))
        budget = 1.0 - alphas[:, neg] @ (1.0 / t[neg])
    weights = rng.gamma(1.0, size=(n, pos.size))
    weights /= weights.sum(axis=1, keepdims=True)
    if neg.size:
        weights *= budget[:, None]
    alphas[:, pos] = weights * t[pos]
    duals = piece.layer.duals
    points = piece.layer.apex + alphas @ duals[[i - 1 for i in piece.indices]]
    if piece.recession_indices:
        lam = rng.uniform(0.0, radius, size=(n, len(piece.recession_indices)))
        points = points + lam @ -duals[[i - 1 for i in piece.recession_indices]]
    return points


def reference_sample_piece(piece, n, radius, rng, c_ordered_tail=False):
    """sample_piece as it was before each rounding step wrote in place: the
    body on which the census samples were pinned.  ``c_ordered_tail`` hands
    the budget product a C-ordered copy of the negative coefficients."""
    grade, row = piece.grade, piece.row
    operands = grade.operands
    k, q, t_max, _ = operands.counts[row]
    g = grade.t.shape[1]
    draws = rng.standard_exponential(n * (k + q))
    coefficients = np.empty((g, n)) if k + q == g else np.zeros((g, n))
    weights = draws[n * k :].reshape(n, q)
    weights /= np.add.reduce(weights, axis=1, keepdims=True)
    if k:
        tail = np.multiply(draws[: n * k].reshape(n, k), radius * t_max, out=coefficients[:k].T)
        if c_ordered_tail:
            tail = np.ascontiguousarray(tail)
        weights *= (1.0 - tail.dot(operands.inverse[row, :k]))[:, None]
    np.multiply(weights, operands.t_signed[row, g - q :], out=coefficients[g - q :].T)
    points = coefficients.T.take(operands.unsort[row], axis=1).dot(operands.duals[row])
    points += grade.layer.apex
    h = grade.recession.shape[1]
    if h:
        lam = rng.random((n, h)) if radius == 1.0 else radius * rng.random((n, h))
        points += lam.dot(operands.negated_recession[row])
    return points


def signed_readout(rng, d, m):
    """Readout with bias -1 and m negative intersection values at random
    indices, so one grade mixes pieces with different numbers of them."""
    weights = rng.uniform(0.2, 3.0, d) * np.where(rng.permutation(d) < m, -1.0, 1.0)
    return OutputLayer(weights, -1.0)


class TestSamplerStream:
    """The generator identities that the two-call seed stream rests on.

    A numpy release that breaks one of them fails here, by name, before it
    changes the golden CSV bytes."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("shape", [(1, 1), (3, 2), (7, 5)])
    def test_scaled_draws_equal_standard_draws(self, seed, shape):
        scale = 3.7 * (seed + 1)
        for scaled_draw, standard_draw in (
            (lambda g: g.exponential(scale, size=shape), lambda g: scale * g.standard_exponential(shape)),
            (lambda g: g.gamma(1.0, size=shape), lambda g: g.standard_exponential(shape)),
            (lambda g: g.uniform(0.0, scale, size=shape), lambda g: scale * g.random(shape)),
        ):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(scaled_draw(a), standard_draw(b))
            assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_call_equals_consecutive_calls(self, seed):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = np.empty((2, 12))
        a.standard_exponential(out=rows[1])
        assert np.array_equal(rows[1], np.concatenate([b.exponential(size=5), b.gamma(1.0, size=7)]))
        a.random(out=rows[0])
        assert np.array_equal(rows[0], b.uniform(size=12))
        assert a.bit_generator.state == b.bit_generator.state

    def assert_same_stream(self, piece, n, radius, seed):
        """sample_piece and the three-call reference give the same bytes
        and leave their generators in the same state."""
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_piece(piece, n, radius=radius, rng=a)
        expected = three_call_sample_piece(piece, n, radius, b)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert a.bit_generator.state == b.bit_generator.state
        return got

    @pytest.mark.parametrize("radius", [1.0, 1.5])
    @pytest.mark.parametrize("d", range(2, 9))
    def test_sample_piece_keeps_the_three_call_stream(self, d, radius):
        # m = 0 samples every piece on the all-positive path; a signed
        # readout mixes it with pieces that have negative values.  The
        # census samples at the default radius 1.0, which skips a multiply.
        rng = np.random.default_rng(40 + d)
        layer = random_layer(rng, d)
        for m in range(d):
            boundary = enumerate_pieces(layer, signed_readout(rng, d, m))
            for n in (0, 1, 4):
                a, b = np.random.default_rng(m), np.random.default_rng(m)
                got = b"".join(
                    sample_piece(piece, n, radius=radius, rng=a).tobytes() for piece in boundary.pieces
                )
                expected = b"".join(
                    three_call_sample_piece(piece, n, radius, b).tobytes() for piece in boundary.pieces
                )
                assert got == expected
                assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("radius", [0.0, 0.3])
    @pytest.mark.parametrize("d", [3, 10, 12])
    def test_other_sizes_keep_the_three_call_stream(self, d, radius):
        # verify draws 20 and 1000 points per piece: n = 7 and 1000 hand
        # BLAS other operand shapes than the census's 4, and d = 10 and 12
        # longer point products
        rng = np.random.default_rng(60 + d)
        layer = random_layer(rng, d)
        for m in (0, d // 2, d - 1):
            boundary = enumerate_pieces(layer, signed_readout(rng, d, m))
            for piece in boundary.pieces[:: max(1, boundary.piece_count // 24)]:
                for n in (7, 1000):
                    self.assert_same_stream(piece, n, radius, seed=m)

    def test_wide_span_readout_keeps_the_three_call_stream(self):
        # |t| spans 1e-3 to 1e3, two of the values negative
        rng = np.random.default_rng(63)
        layer = random_layer(rng, 6)
        t = np.geomspace(1e-3, 1e3, 6) * np.where(rng.permutation(6) < 2, -1.0, 1.0)
        boundary = enumerate_pieces(layer, OutputLayer(1.0 / t, -1.0))
        assert boundary.m == 2
        for piece in boundary.pieces:
            for n in (1, 4, 20):
                self.assert_same_stream(piece, n, 1.5, seed=n)

    @pytest.mark.parametrize("d", [2, 5, 8])
    def test_shared_canonical_boundary_keeps_the_three_call_stream(self, d):
        # canonical_boundary returns one object per (d, m), so its grades'
        # operands are read by every caller: sample it twice
        for m in range(d):
            for _ in range(2):
                for piece in bd.canonical_boundary(d, m).pieces:
                    self.assert_same_stream(piece, 1, 1.0, seed=m)

    def test_directly_built_piece_with_a_zero_value(self):
        # a zero value gets no draw and a zero coefficient
        layer = random_layer(np.random.default_rng(50), 4)
        (piece,) = bd.BoundaryGrade([[0, 1, 3]], [[2]], [[2.0, 0.0, -1.5]], layer).pieces()
        points = self.assert_same_stream(piece, 5, 1.5, seed=51)
        assert points.shape == (5, 4)

    def test_replaced_piece_samples_from_its_new_values(self):
        rng = np.random.default_rng(52)
        layer = random_layer(rng, 5)
        boundary = enumerate_pieces(layer, signed_readout(rng, 5, 2))
        for piece in boundary.pieces[::5]:
            copy = dataclasses.replace(piece, grade=dataclasses.replace(piece.grade, t=piece.grade.t * 1.5))
            assert copy.t.tobytes() == (piece.t * 1.5).tobytes()
            got = self.assert_same_stream(copy, 4, 2.0, seed=53)
            original = sample_piece(piece, 4, radius=2.0, rng=np.random.default_rng(53))
            assert got.tobytes() != original.tobytes()

    def test_not_vacuous_on_swapped_sign_operands(self, monkeypatch):
        # Handing each piece's positive positions to its negative operands
        # and the other way round must change the bytes: the sign order,
        # argsort of unsort, is rolled by k and inverted again, and every
        # row is then out of J order.
        rng = np.random.default_rng(54)
        layer = random_layer(rng, 5)
        boundary = enumerate_pieces(layer, signed_readout(rng, 5, 2))
        for piece in boundary.pieces:
            self.assert_same_stream(piece, 3, 1.5, seed=55)
        for grade in boundary.grades:
            operands = grade.operands
            swapped = np.array(
                [
                    np.argsort(np.roll(np.argsort(unsort), -k))
                    for unsort, (k, _, _, _) in zip(operands.unsort, operands.counts)
                ]
            ).reshape(operands.unsort.shape)
            counts = tuple((k, q, t_max, False) for k, q, t_max, _ in operands.counts)
            monkeypatch.setitem(
                grade.__dict__, "operands", dataclasses.replace(operands, unsort=swapped, counts=counts)
            )
        differs = 0
        for piece in boundary.pieces:
            a, b = np.random.default_rng(55), np.random.default_rng(55)
            got = sample_piece(piece, 3, radius=1.5, rng=a)
            differs += got.tobytes() != three_call_sample_piece(piece, 3, 1.5, b).tobytes()
        assert differs > 0


CENSUS_DRAWS = [(n, radius) for n in (0, 1, 4, 7) for radius in (0.5, 1.0, 2.0)]


def census_boundaries(d):
    """Per m, the canonical boundary and a random signed one at width d."""
    rng = np.random.default_rng(70 + d)
    layer = random_layer(rng, d)
    return [
        boundary
        for m in range(d)
        for boundary in (bd.canonical_boundary(d, m), enumerate_pieces(layer, signed_readout(rng, d, m)))
    ]


def differing_draws(boundaries, sample, reference):
    """The (m index, n, radius) draws on which ``sample`` and ``reference``,
    each drawing every piece in piece order from its own generator of one
    seed, give other bytes or leave their generators in other states."""
    differing = []
    for i, boundary in enumerate(boundaries):
        for n, radius in CENSUS_DRAWS:
            a, b = np.random.default_rng(n), np.random.default_rng(n)
            for piece in boundary.pieces:
                got, expected = sample(piece, n, radius, rng=a), reference(piece, n, radius, rng=b)
                if got.shape != expected.shape or got.tobytes() != expected.tobytes():
                    break
            else:
                if a.bit_generator.state == b.bit_generator.state:
                    continue
            differing.append((i, n, radius))
    return differing


class TestSamplePieceReference:
    """sample_piece keeps the bytes and the stream of the reference body on
    every piece the census samples, and on the other draws it allows."""

    @pytest.mark.parametrize("d", range(1, 9))
    def test_matches_the_reference_at_census_shapes(self, d):
        boundaries = census_boundaries(d)
        assert sum(boundary.piece_count for boundary in boundaries) == 2 * sum(2**d - 2**m for m in range(d))
        assert differing_draws(boundaries, sample_piece, reference_sample_piece) == []

    def test_not_vacuous_on_a_c_ordered_tail(self):
        def c_ordered(piece, n, radius, rng):
            return reference_sample_piece(piece, n, radius, rng, c_ordered_tail=True)

        # 33 of the 144 draws at d = 6 differ in some last bit
        assert differing_draws(census_boundaries(6), sample_piece, c_ordered) != []


SEED_SAMPLER_SHAPES = [(d, d) for d in range(2, 13)] + [(2, 3), (3, 5), (6, 8)]
SEED_SAMPLER_DRAWS = [(samples, radius) for samples in range(1, 7) for radius in (0.5, 1.0, 2.0)]


class TestBatchedSeedSamplerEquivalence:
    """The seed sampler, batched by grade, reproduces the per-piece loop bit for bit."""

    def differs(self, layer, boundary, seed, draws):
        """Whether any (samples, radius) draw differs from the per-piece loop."""
        for samples, radius in draws:
            rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_shallow_boundary(boundary, 1, samples, radius, rng)
            points, residuals, parent, fiber = reference_seed_samples(
                layer, boundary, samples, radius, reference_rng
            )
            if not (
                np.array_equal(got.points, points)
                and np.array_equal(got.residuals, residuals)
                and np.array_equal(got.parent, parent)
                and np.array_equal(got.fiber, fiber)
                and rng.bit_generator.state == reference_rng.bit_generator.state
            ):
                return True
        return False

    def assert_same(self, d_out, d_in, seed, draws):
        rng = np.random.default_rng(1000 * d_out + 10 * d_in + seed)
        layer = random_layer(rng, d_out, d_in)
        boundary = enumerate_pieces(layer, random_output_layer(rng, d_out))
        assert not self.differs(layer, boundary, seed, draws)

    @pytest.mark.parametrize("d_out, d_in", SEED_SAMPLER_SHAPES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_piece_loop(self, d_out, d_in, seed):
        # two of the 18 (samples, radius) pairs per seed; the three seeds
        # together cover every sample count and every radius
        draws = {0: [(1, 0.5), (4, 1.0)], 1: [(2, 1.0), (5, 2.0)], 2: [(3, 2.0), (6, 0.5)]}[seed]
        self.assert_same(d_out, d_in, seed, draws)

    @pytest.mark.parametrize("d", [6, 8])
    def test_matches_per_piece_loop_at_every_m(self, d):
        # random negative indices: a grade mixes pieces with different
        # numbers k of negative values, which the sampler handles in
        # separate passes
        rng = np.random.default_rng(2000 + d)
        layer = random_layer(rng, d)
        for m in range(d):
            boundary = enumerate_pieces(layer, signed_readout(rng, d, m))
            assert not self.differs(layer, boundary, m, [(0, 1.0), (1, 0.5), (3, 2.0), (5, 7.3)])

    def test_not_vacuous_on_a_row_major_budget(self, monkeypatch):
        # the budget product on row-major operands rounds differently in
        # the last bit; the equivalence must notice
        def row_major(tail, t_neg):
            operand = np.ascontiguousarray(tail.transpose(0, 2, 1))
            return 1.0 - (operand @ (1.0 / t_neg)[:, :, None])[:, :, 0]

        rng = np.random.default_rng(2006)
        layer = random_layer(rng, 6)
        boundaries = [enumerate_pieces(layer, signed_readout(rng, 6, m)) for m in range(6)]
        draws = [(5, 2.0)]
        assert not any(self.differs(layer, boundary, m, draws) for m, boundary in enumerate(boundaries))
        monkeypatch.setattr(bd, "_budgets", row_major)
        assert any(self.differs(layer, boundary, m, draws) for m, boundary in enumerate(boundaries))

    @pytest.mark.parametrize("d_out, d_in", [(3, 3), (4, 4), (5, 5), (6, 6), (4, 6)])
    def test_matches_per_piece_loop_at_the_trace_draw(self, d_out, d_in):
        # trace_boundary's default draw, 50 samples at radius 2.0, with a
        # third of the intersection values negative, as deep traces draw it
        rng = np.random.default_rng(3000 + 10 * d_out + d_in)
        layer = random_layer(rng, d_out, d_in)
        boundary = enumerate_pieces(layer, signed_readout(rng, d_out, d_out // 3))
        assert not self.differs(layer, boundary, 11, [(50, 2.0)])

    def test_not_vacuous_on_the_weight_sum_association(self, monkeypatch):
        # the Dirichlet sums added left to right, over (pieces, q, n) rows,
        # round differently in the last bit; the equivalence must notice.
        # numpy reduces fewer than 8 contiguous values left to right too, so
        # only the pieces with q >= 8 positive values (here m = 0) tell
        def left_to_right(weights):
            return np.add.reduce(np.ascontiguousarray(weights.transpose(0, 2, 1)), axis=1)

        rng = np.random.default_rng(2008)
        layer = random_layer(rng, 8)
        boundaries = [enumerate_pieces(layer, signed_readout(rng, 8, m)) for m in range(8)]
        draws = [(5, 2.0)]
        assert not any(self.differs(layer, boundary, m, draws) for m, boundary in enumerate(boundaries))
        monkeypatch.setattr(bd, "_weight_sums", left_to_right)
        assert any(self.differs(layer, boundary, m, draws) for m, boundary in enumerate(boundaries))

    @pytest.mark.slow
    @pytest.mark.parametrize("d_out, d_in", SEED_SAMPLER_SHAPES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_piece_loop_on_every_draw(self, d_out, d_in, seed):
        self.assert_same(d_out, d_in, seed, SEED_SAMPLER_DRAWS)


@pytest.mark.slow
def test_seed_draw_at_the_float_limit_holds_one_temporary_of_its_points():
    # 2048 pieces of 682 points in 12 dimensions: 128 MiB of points, just
    # under MAX_SAMPLE_FLOATS.  Besides the points and residuals it keeps,
    # the draw may hold one points-sized array (the layer's activations)
    # and small ones: a readout not formed in place adds 10 MiB.
    d, m = 12, 11
    n = MAX_SAMPLE_FLOATS // ((2**d - 2**m) * d)
    rng = np.random.default_rng(12)
    layer = random_layer(rng, d)
    boundary = enumerate_pieces(layer, signed_readout(rng, d, m))
    tracemalloc.start()
    try:
        samples = sample_shallow_boundary(boundary, 1, n, 2.0, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert samples.points.size == 2048 * 682 * 12 <= MAX_SAMPLE_FLOATS
    assert peak <= 2 * samples.points.nbytes + samples.residuals.nbytes + 2**20


class TestTrace:
    def traceable_net(self):
        # canonical first layer keeps the level-2 boundary inside the orthant
        layers = (ReluLayer.canonical(2), ReluLayer.canonical(2))
        return ReluNetwork(layers, OutputLayer(np.array([1.0, 0.8]), -1.0))

    def test_levels_verified(self):
        net = self.traceable_net()
        levels = trace_boundary(net, samples_per_piece=30, rng=np.random.default_rng(20))
        assert sorted(levels) == [1, 2]
        for level, sample_set in levels.items():
            assert len(sample_set) > 0
            residuals = np.abs(np.asarray(evaluate_tail(net, level, sample_set.points)))
            assert residuals.max() < 1e-7
            arrays = sample_set.points, sample_set.residuals, sample_set.parent, sample_set.fiber
            assert [array.dtype for array in arrays] == [float, float, np.int64, np.int64]
            for array in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0

    def test_depth_one_matches_shallow_sampler(self):
        net = random_net(1, 3, seed=21)
        levels = trace_boundary(net, samples_per_piece=25, radius=1.5,
                                rng=np.random.default_rng(22))
        direct = sample_shallow_boundary(
            enumerate_pieces(net.layers[0], net.output), 1, 25, 1.5, np.random.default_rng(22)
        )
        np.testing.assert_array_equal(levels[1].points, direct.points)

    def test_grid_detected_points_push_forward(self):
        # independent detection: sign changes of the full network on a grid,
        # pushed through the first layer, must satisfy the level-2 condition
        net = self.traceable_net()
        axis = np.linspace(-3, 3, 301)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        grid = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        values = np.asarray(evaluate_network(net, grid)).reshape(301, 301)
        sign_flip = np.flatnonzero(values[:-1, :] * values[1:, :] < 0)
        assert sign_flip.size > 0
        rows, cols = np.unravel_index(sign_flip, (300, 301))
        for r, c in list(zip(rows, cols))[::50]:
            a = np.array([axis[r], axis[c]])
            b = np.array([axis[r + 1], axis[c]])
            fa = evaluate_network(net, a)
            for _ in range(60):
                mid = 0.5 * (a + b)
                if fa * evaluate_network(net, mid) > 0:
                    a, fa = mid, evaluate_network(net, mid)
                else:
                    b = mid
            x = 0.5 * (a + b)
            y = evaluate(net.layers[0], x)
            assert y.min() >= 0.0
            assert abs(evaluate_tail(net, 2, y)) < 1e-7


BAD_RADII = [-2.0, np.inf, np.nan]
# (count, radius, message) of draws that every sampler refuses
BAD_DRAWS = [(-1, 1.0, "cannot draw -1 points")] + [
    (4, radius, f"radius must be a nonnegative finite number, got {radius}") for radius in BAD_RADII
]
BAD_DRAW_IDS = ["negative-count", "negative", "inf", "nan"]


class TestSeedRadiusRefused:
    """A negative count and a negative or non-finite radius are refused by
    every sampler before any draw, as by sample_piece.

    At radius -2 the seed sampler returned 24 points whose residuals
    reached 3.2; ``PreimageSet.sample`` returned NaN points at radius NaN
    and raised numpy errors for a negative count or radius."""

    readout = OutputLayer(np.array([1.0, -0.5, 2.0]), -1.0)
    # a square layer and a contracting one, each with a target that has zero
    # components, so the draw sweeps generators (and a complement direction)
    preimages = {
        "square": (ReluLayer.canonical(3), [0.0, 1.0, 0.0]),
        "contracting": (build_dual_frame(AffineMap(np.eye(2, 3), np.ones(2))), [0.0, 1.0]),
    }

    def assert_refused(self, draw, message):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(SchemaError, match=message):
            draw(rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("n, radius, message", BAD_DRAWS, ids=BAD_DRAW_IDS)
    def test_sample_shallow_boundary(self, n, radius, message):
        boundary = enumerate_pieces(ReluLayer.canonical(3), self.readout)
        self.assert_refused(lambda rng: sample_shallow_boundary(boundary, 1, n, radius, rng), message)

    @pytest.mark.parametrize("radius", BAD_RADII, ids=["negative", "inf", "nan"])
    def test_trace_boundary(self, radius):
        net = ReluNetwork((ReluLayer.canonical(3),), self.readout)
        self.assert_refused(
            lambda rng: trace_boundary(net, 4, radius, rng=rng),
            f"radius must be a nonnegative finite number, got {radius}",
        )

    @pytest.mark.parametrize("shape", ["square", "contracting"])
    @pytest.mark.parametrize("n, radius, message", BAD_DRAWS, ids=BAD_DRAW_IDS)
    def test_preimage_sample(self, shape, n, radius, message):
        layer, target = self.preimages[shape]
        pre = preimage_of_point(layer, np.array(target))
        assert pre.generator_indices and (shape == "square") == (layer.complement_basis is None)
        self.assert_refused(lambda rng: pre.sample(n, radius, rng=rng), message)
