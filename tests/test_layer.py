import numpy as np
import pytest

from relugeom import DimensionMismatch, EnumerationLimit, preimage_of_point
from relugeom.layer import (
    ReluLayer,
    decompose_check,
    evaluate,
    image_of_sector,
    membership_mask,
    preimage_bases,
    preimage_of_sector,
    project_with_frame,
)
from relugeom.partition import SectorIndex, sample_sector

from factories import random_square_layer


class TestEvaluate:
    def test_canonical_relu(self):
        layer = ReluLayer.canonical(2)
        np.testing.assert_allclose(evaluate(layer, [-1.0, 2.0]), [0.0, 2.0])

    def test_sector_points_map_to_plus_coefficients(self):
        layer = random_square_layer(3, seed=1)
        alpha = np.array([0.8, 1.7])
        x = layer.apex + alpha[0] * layer.duals[0] - alpha[1] * layer.duals[2]
        expected = np.array([alpha[0], 0.0, 0.0])
        np.testing.assert_allclose(evaluate(layer, x), expected, atol=1e-10)

    def test_apex_maps_to_zero(self):
        layer = random_square_layer(4, seed=2)
        np.testing.assert_allclose(evaluate(layer, layer.apex), np.zeros(4), atol=1e-10)


class TestConeProjection:
    def test_fixes_cone_points(self):
        layer = random_square_layer(3, seed=4)
        x = layer.apex + 0.5 * layer.duals[0] + 2.0 * layer.duals[2]
        np.testing.assert_allclose(project_with_frame(layer, x), x, atol=1e-10)

    def test_truncates_negative_coefficients(self):
        layer = random_square_layer(2, seed=5)
        x = layer.apex + layer.duals[0] - layer.duals[1]
        np.testing.assert_allclose(
            project_with_frame(layer, x), layer.apex + layer.duals[0], atol=1e-10
        )

    def test_opposite_sector_collapses_to_apex(self):
        layer = random_square_layer(3, seed=6)
        x = layer.apex - layer.duals.sum(axis=0)
        np.testing.assert_allclose(project_with_frame(layer, x), layer.apex, atol=1e-10)

    def test_idempotent(self):
        layer = random_square_layer(4, seed=7)
        xs = np.random.default_rng(8).normal(size=(200, 4)) * 3.0
        once = project_with_frame(layer, xs)
        twice = project_with_frame(layer, once)
        assert np.abs(twice - once).max() < 1e-9


class TestDecomposition:
    def test_bulk_residual(self):
        rng = np.random.default_rng(9)
        layer = random_square_layer(4, seed=10)
        xs = rng.normal(size=(10000, 4)) * 3.0
        assert decompose_check(layer, xs) < 1e-9

    def test_apex_residual(self):
        layer = random_square_layer(3, seed=11)
        assert decompose_check(layer, layer.apex) < 1e-12

    def test_canonical_layer_exact(self):
        layer = ReluLayer.canonical(3)
        xs = np.random.default_rng(12).normal(size=(100, 3))
        assert decompose_check(layer, xs) == 0.0


class TestImageOfSector:
    def test_minus_set_is_forgotten(self):
        layer = random_square_layer(3, seed=13)
        s = SectorIndex.of(3, plus=[1, 2], minus=[3])
        assert image_of_sector(layer, s) == SectorIndex.of(3, plus=[1, 2])

    def test_affine_sector_fixed(self):
        layer = random_square_layer(3, seed=14)
        s = SectorIndex.of(3, plus=[1, 2, 3])
        assert image_of_sector(layer, s) == s

    def test_all_minus_collapses(self):
        layer = random_square_layer(2, seed=15)
        s = SectorIndex.of(2, minus=[1, 2])
        assert image_of_sector(layer, s) == SectorIndex.of(2)

    def test_image_law_sampled(self):
        layer = random_square_layer(3, seed=16)
        canonical = ReluLayer.canonical(3)
        rng = np.random.default_rng(17)
        from relugeom.partition import classify, enumerate_sectors

        for sector in enumerate_sectors(3):
            xs = sample_sector(layer, sector, 25, rng)
            for y in evaluate(layer, xs):
                assert classify(canonical, y) == image_of_sector(layer, sector)


class TestPreimageOfPoint:
    def test_positive_target_is_single_point(self):
        layer = random_square_layer(3, seed=18)
        y = np.array([1.0, 2.0, 0.5])
        pre = preimage_of_point(layer, y)
        assert pre.generator_indices == ()
        assert pre.dimension() == 0
        direct = np.linalg.solve(layer.affine.matrix, y - layer.affine.offset)
        np.testing.assert_allclose(pre.base, direct, atol=1e-10)
        assert pre.source_sector == SectorIndex.of(3, plus=[1, 2, 3])

    def test_origin_gives_full_reversed_cone(self):
        layer = random_square_layer(3, seed=19)
        pre = preimage_of_point(layer, np.zeros(3))
        assert pre.generator_indices == (1, 2, 3)
        np.testing.assert_allclose(pre.base, layer.apex, atol=1e-10)

    def test_one_zero_component_gives_ray(self):
        layer = random_square_layer(3, seed=20)
        pre = preimage_of_point(layer, np.array([2.0, 0.0, 1.0]))
        assert pre.generator_indices == (2,)
        assert pre.dimension() == 1

    def test_negative_component_empty(self):
        layer = random_square_layer(2, seed=21)
        assert preimage_of_point(layer, np.array([1.0, -0.5])) is None

    def test_dimension_equals_zero_count(self):
        layer = random_square_layer(4, seed=22)
        rng = np.random.default_rng(23)
        for _ in range(50):
            x = rng.normal(size=4) * 2.0
            y = evaluate(layer, x)
            pre = preimage_of_point(layer, y)
            assert len(pre.generator_indices) == int(np.sum(y <= 1e-9))

    def test_samples_map_to_target(self):
        layer = random_square_layer(3, seed=24)
        y = evaluate(layer, np.array([0.3, -2.0, 0.7]))
        pre = preimage_of_point(layer, y)
        samples = pre.sample(200, radius=2.0, rng=np.random.default_rng(25))
        assert np.abs(evaluate(layer, samples) - y).max() < 1e-9 * (1 + np.abs(y).max())


class TestPreimageBases:
    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (6, 6), (12, 12), (2, 4), (4, 6)])
    def test_rows_match_one_row_product(self, shape):
        # the batch must round like apex + y @ duals taken one row at a time
        d_out, d_in = shape
        rng = np.random.default_rng(d_out * 10 + d_in)
        layer = ReluLayer.build(rng.normal(size=(d_out, d_in)), rng.normal(size=d_out))
        y = np.abs(rng.normal(size=(200, d_out)))
        y[rng.random(size=y.shape) < 0.3] = 0.0
        y[::9, 0] = -1e-12
        clamped, bases, zero = preimage_bases(layer, y)
        for i, row in enumerate(y):
            row = np.where(row < 0.0, 0.0, row)
            assert np.array_equal(clamped[i], row)
            assert np.array_equal(bases[i], layer.apex + row @ layer.duals)
            assert np.array_equal(zero[i], row <= 1e-9)

    def test_single_row_matches_preimage_of_point(self):
        layer = random_square_layer(3, seed=31)
        y = np.array([1.5, 0.0, -1e-12])
        _, bases, zero = preimage_bases(layer, y[None, :])
        pre = preimage_of_point(layer, y)
        assert np.array_equal(bases[0], pre.base)
        assert pre.generator_indices == tuple(int(i) + 1 for i in np.flatnonzero(zero[0]))


class TestPreimageOfSector:
    def test_d2_single_index(self):
        layer = random_square_layer(2, seed=26)
        got = preimage_of_sector(layer, [1])
        assert set(got) == {
            SectorIndex.of(2, plus=[1]),
            SectorIndex.of(2, plus=[1], minus=[2]),
        }

    def test_full_index_set_is_affine_sector_only(self):
        layer = random_square_layer(3, seed=27)
        assert preimage_of_sector(layer, [1, 2, 3]) == [SectorIndex.of(3, plus=[1, 2, 3])]

    def test_empty_index_set_gives_all_minus_sectors(self):
        layer = random_square_layer(3, seed=28)
        got = preimage_of_sector(layer, [])
        assert len(got) == 8
        assert all(s.plus == () for s in got)

    def test_counts(self):
        layer = random_square_layer(4, seed=29)
        for j in ([], [2], [1, 3], [1, 2, 3, 4]):
            assert len(preimage_of_sector(layer, j)) == 2 ** (4 - len(j))

    @pytest.mark.parametrize("d", range(1, 6))
    def test_graded_order_for_every_index_set(self, d):
        layer = ReluLayer.canonical(d)
        for j_mask in range(2**d):
            j = [i + 1 for i in range(d) if j_mask >> i & 1]
            got = preimage_of_sector(layer, j)
            assert {s.plus_mask for s in got} == {j_mask}
            complement = [k for k in range(2**d) if not k & j_mask]
            assert [s.minus_mask for s in got] == sorted(complement, key=lambda s: (s.bit_count(), s))

    def test_guard(self):
        layer = ReluLayer.canonical(2)
        with pytest.raises(ValueError):
            preimage_of_sector(layer, [5])
        big = ReluLayer.canonical(21)
        with pytest.raises(EnumerationLimit):
            preimage_of_sector(big, [])

    def test_sector_preimages_partition_the_domain_index_set(self):
        # every domain sector appears in exactly one codomain-sector preimage
        from itertools import combinations

        from relugeom.partition import enumerate_sectors

        layer = random_square_layer(3, seed=50)
        seen = []
        for k in range(4):
            for j in combinations(range(1, 4), k):
                seen.extend(preimage_of_sector(layer, j))
        assert len(seen) == 27
        assert set(seen) == set(enumerate_sectors(3))

    def test_closure_preimage_relation(self):
        # the preimage of a closed codomain sector equals the union of the
        # closures of the preimage sectors with full minus sets
        from itertools import combinations

        from relugeom.partition import enumerate_sectors, leq

        layer = random_square_layer(3, seed=51)
        full = {1, 2, 3}
        for j_size in range(4):
            for j in combinations(sorted(full), j_size):
                direct = set()
                for k_size in range(len(j) + 1):
                    for k in combinations(j, k_size):
                        direct.update(preimage_of_sector(layer, k))
                via_closures = set()
                for k_size in range(len(j) + 1):
                    for k in combinations(j, k_size):
                        top = SectorIndex.of(3, plus=k, minus=sorted(full - set(k)))
                        via_closures.update(s for s in enumerate_sectors(3) if leq(s, top))
                assert direct == via_closures


class TestMembershipOracle:
    def layer_and_pre(self, seed=30):
        layer = random_square_layer(3, seed=seed)
        y = evaluate(layer, np.array([1.0, -0.5, 0.2]))
        return layer, preimage_of_point(layer, y)

    def test_base_is_member(self):
        layer, pre = self.layer_and_pre()
        assert membership_mask(layer, pre, pre.base)

    def test_sweep_direction_stays_member(self):
        layer, pre = self.layer_and_pre()
        assert pre.generator_indices
        i = pre.generator_indices[0]
        x = pre.base - 2.0 * layer.duals[i - 1]
        assert membership_mask(layer, pre, x)
        np.testing.assert_allclose(
            evaluate(layer, x), evaluate(layer, pre.base), atol=1e-9
        )

    def test_wrong_sign_rejected(self):
        layer, pre = self.layer_and_pre()
        i = pre.generator_indices[0]
        x = pre.base + layer.duals[i - 1]
        assert not membership_mask(layer, pre, x)

    def test_oracle_agrees_with_direct_check_on_grid(self):
        layer = random_square_layer(2, seed=31)
        axis = np.arange(-5.0, 5.0 + 0.05, 0.1)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        grid = np.stack([gx.ravel(), gy.ravel()], axis=-1)
        images = evaluate(layer, grid)
        rng = np.random.default_rng(32)
        for _ in range(10):
            y = images[rng.integers(0, grid.shape[0])]
            if np.any((y > 0) & (y < 1e-4)):
                continue
            pre = preimage_of_point(layer, y)
            oracle = membership_mask(layer, pre, grid, tol=1e-6)
            direct = np.abs(images - y).max(axis=1) <= 1e-6
            assert np.array_equal(oracle, direct)

    def test_dimension_check(self):
        layer, pre = self.layer_and_pre()
        with pytest.raises(DimensionMismatch):
            membership_mask(layer, pre, np.zeros(4))


class TestContractingLayer:
    def build(self, seed=33):
        rng = np.random.default_rng(seed)
        return ReluLayer.build(rng.normal(size=(2, 4)), rng.normal(size=2))

    def test_output_invariant_to_complement(self):
        layer = self.build()
        rng = np.random.default_rng(34)
        w_basis = layer.complement_basis
        for _ in range(50):
            x = rng.normal(size=4) * 2.0
            w = (rng.normal(size=2) * rng.uniform(0.1, 10.0)) @ w_basis
            got = evaluate(layer, x + w)
            want = evaluate(layer, x)
            assert np.abs(got - want).max() < 1e-10 * (1 + np.abs(want).max())

    def test_preimage_includes_complement(self):
        layer = self.build()
        y = np.array([1.0, 0.0])
        pre = preimage_of_point(layer, y)
        assert layer.complement_basis is not None
        # one sweep generator (the zero component) plus two free directions
        assert pre.dimension() == 3
        shifted = pre.base + 1.3 * layer.complement_basis[0]
        assert membership_mask(layer, pre, shifted)
        samples = pre.sample(100, radius=1.0, rng=np.random.default_rng(35))
        assert np.abs(evaluate(layer, samples) - y).max() < 1e-9
