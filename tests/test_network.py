import numpy as np
import pytest

from relugeom import (
    DimensionMismatch,
    EmptyIntersection,
    OutputLayer,
    RankDeficient,
    ReluNetwork,
    canonical_structure,
    enumerate_pieces,
    evaluate_canonical,
    evaluate_network,
    trace_boundary,
)
from relugeom.layer import ReluLayer, evaluate
from relugeom.layer import preimage_of_point
from relugeom.network import (
    BoundarySampleSet,
    evaluate_tail,
    pull_back_boundary,
    sample_shallow_boundary,
)


def random_net(depth, d, seed=0, offset_scale=0.5):
    rng = np.random.default_rng(seed)
    while True:
        mats = [rng.normal(size=(d, d)) / np.sqrt(d) for _ in range(depth)]
        offs = [rng.normal(size=d) * offset_scale for _ in range(depth)]
        composed = np.eye(d)
        ok = True
        for m in mats:
            composed = m @ composed
            if np.linalg.cond(composed) > 1e6:
                ok = False
                break
        if ok:
            return ReluNetwork.from_arrays(mats, offs, rng.normal(size=d), rng.normal() * 1.5)


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
        got = pull_back_boundary(net, 1, samples, np.random.default_rng(13), tol=np.inf)
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
        got = pull_back_boundary(net, 1, samples, np.random.default_rng(15), tol=np.inf)
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
        got = pull_back_boundary(net, 1, samples, np.random.default_rng(17), tol=np.inf)
        assert set(got.parent.tolist()) == {1}

    def test_all_outside_raises(self):
        net = self.net(seed=18)
        samples = BoundarySampleSet(
            level=2, points=np.array([[-1.0, -1.0]]), residuals=np.zeros(1),
            parent=[0], fiber=[0],
        )
        with pytest.raises(EmptyIntersection):
            pull_back_boundary(net, 1, samples, np.random.default_rng(19))

    def test_empty_intersection_reports_funnel(self):
        net = self.net(seed=18)
        points = np.array([[-1.0, -1.0], [0.5, -0.2], [-0.1, 2.0]])
        samples = BoundarySampleSet(
            level=2, points=points, residuals=np.zeros(3), parent=[0, 1, 2], fiber=[0, 0, 0],
        )
        with pytest.raises(EmptyIntersection, match="received 3 level-2 samples, 0 inside"):
            pull_back_boundary(net, 1, samples, np.random.default_rng(19))

    def test_empty_intersection_names_residual_losses(self):
        net = self.net(seed=18)
        samples = BoundarySampleSet(
            level=2, points=np.empty((0, 2)), residuals=np.empty(0), parent=[], fiber=[],
            rejected=12,
        )
        with pytest.raises(EmptyIntersection, match="residual filter at level 2 had rejected all 12"):
            pull_back_boundary(net, 1, samples, np.random.default_rng(19))

    def test_rejected_counts_residual_filter(self):
        net = self.net(seed=14)
        samples = BoundarySampleSet(
            level=2, points=np.array([[0.9, 0.0]]), residuals=np.zeros(1), parent=[0], fiber=[0],
        )
        # a negative tolerance rejects every fiber
        got = pull_back_boundary(net, 1, samples, np.random.default_rng(15), tol=-1.0)
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
        got = pull_back_boundary(net, 1, samples, np.random.default_rng(41), tol=np.inf)
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

    def assert_same(self, net, samples, seed, **kwargs):
        got = pull_back_boundary(net, 1, samples, np.random.default_rng(seed), **kwargs)
        rng = np.random.default_rng(seed)
        points, residuals, parent, fiber = reference_pull_back(net, 1, samples, rng, **kwargs)
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
            samples = sample_shallow_boundary(net.layers[1], boundary, 2, 20, 2.0, rng)
            try:
                self.assert_same(net, samples, seed, tol=tol)
            except EmptyIntersection:
                with pytest.raises(EmptyIntersection):
                    reference_pull_back(net, 1, samples, np.random.default_rng(seed), tol=tol)


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

    def test_depth_one_matches_shallow_sampler(self):
        net = random_net(1, 3, seed=21)
        levels = trace_boundary(net, samples_per_piece=25, radius=1.5,
                                rng=np.random.default_rng(22))
        direct = sample_shallow_boundary(
            net.layers[0], enumerate_pieces(net.layers[0], net.output), 1, 25, 1.5,
            np.random.default_rng(22),
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

