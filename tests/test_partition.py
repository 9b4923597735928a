import itertools
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from relugeom import DimensionMismatch, EnumerationLimit, classify
from relugeom.core import AffineMap, build_dual_frame
from relugeom.partition import (
    SectorIndex,
    classify_many,
    enumerate_sectors,
    graded_subsets,
    leq,
    sample_sector,
    sector_counts,
)

from relugeom.tolerances import MAX_ENUM_DIM, MAX_SECTOR_DIM
from relugeom.verify import random_layer

from factories import random_square_layer


class TestSectorIndex:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            SectorIndex.of(3, plus=[1, 2], minus=[2])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SectorIndex.of(2, plus=[3])

    def test_dimension(self):
        s = SectorIndex.of(4, plus=[1, 3], minus=[2])
        assert s.dimension() == 3
        assert s.plus == (1, 3)
        assert s.minus == (2,)

    def test_json_round_trip(self):
        s = SectorIndex.of(5, plus=[2, 5], minus=[1])
        encoded = json.dumps(s.to_json())
        assert SectorIndex.of(5, **json.loads(encoded)) == s
        assert json.loads(encoded) == {"plus": [2, 5], "minus": [1]}


class TestExpand:
    def test_apex_has_zero_coefficients(self):
        frame = random_square_layer(3, seed=1)
        np.testing.assert_allclose(
            frame.affine(frame.apex), np.zeros(3), atol=1e-12
        )

    def test_single_dual_direction(self):
        frame = random_square_layer(4, seed=2)
        x = frame.apex + 3.0 * frame.duals[1]
        np.testing.assert_allclose(
            frame.affine(x), [0.0, 3.0, 0.0, 0.0], atol=1e-12
        )

    def test_matches_independent_solve_and_affine_image(self):
        frame = random_square_layer(5, seed=3)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.normal(size=5) * 3.0
            lam = frame.affine(x)
            # Independent route: solve the expansion system against the duals.
            solved = np.linalg.solve(frame.duals.T, x - frame.apex)
            np.testing.assert_allclose(lam, solved, atol=1e-9)
            np.testing.assert_allclose(lam, frame.affine(x), atol=1e-12)


class TestClassify:
    def test_apex_is_zero_sector(self):
        frame = random_square_layer(3, seed=6)
        assert classify(frame, frame.apex) == SectorIndex.of(3)

    def test_constructed_signs(self):
        frame = random_square_layer(2, seed=7)
        x = frame.apex + 2.0 * frame.duals[0] - 3.0 * frame.duals[1]
        assert classify(frame, x) == SectorIndex.of(2, plus=[1], minus=[2])

    def test_canonical_frame_uses_raw_coordinates(self):
        frame = build_dual_frame(AffineMap(np.eye(3), np.zeros(3)))
        assert classify(frame, [5.0, 0.0, -1.0]) == SectorIndex.of(3, plus=[1], minus=[3])

    def test_zero_band_flags(self):
        frame = build_dual_frame(AffineMap(np.eye(2), np.zeros(2)))
        assert classify_many(frame, [[1.0, 1e-12]])[3].tolist() == [[False, True]]
        assert classify_many(frame, [[1.0, 1.0]])[3].tolist() == [[False, False]]


class TestClassifyMany:
    @pytest.mark.parametrize("d_out", range(1, 21))
    @pytest.mark.parametrize("extra", [0, 1, 7])
    def test_coefficients_are_those_of_the_affine_map_bit_for_bit(self, d_out, extra):
        # the stacked product rounds each row as a single-point product does
        rng = np.random.default_rng(d_out * 8 + extra)
        layer = random_layer(rng, d_out, d_out + extra)
        points = rng.normal(scale=3.0, size=(33, d_out + extra))
        lam, plus, minus, zero = classify_many(layer, points)
        assert lam.tobytes() == np.array([layer.affine(x) for x in points]).tobytes()
        assert (plus | minus | zero).all() and not (plus & minus).any()

    def test_rejects_a_single_point(self):
        with pytest.raises(DimensionMismatch):
            classify_many(random_square_layer(3, seed=1), np.zeros(3))


class TestEnumeration:
    def test_d1(self):
        sectors = enumerate_sectors(1)
        assert sectors == [
            SectorIndex.of(1),
            SectorIndex.of(1, minus=[1]),
            SectorIndex.of(1, plus=[1]),
        ]

    @pytest.mark.parametrize("d,breakdown", [(2, {2: 4, 1: 4, 0: 1}), (3, {3: 8, 2: 12, 1: 6, 0: 1})])
    def test_figure_breakdowns(self, d, breakdown):
        sectors = enumerate_sectors(d)
        assert len(sectors) == 3**d
        by_dim = {}
        for s in sectors:
            by_dim[s.dimension()] = by_dim.get(s.dimension(), 0) + 1
        assert by_dim == breakdown
        assert sector_counts(d) == {k: breakdown.get(k, 0) for k in range(d + 1)}

    @pytest.mark.parametrize("d", range(1, 8))
    def test_totals_and_uniqueness(self, d):
        sectors = enumerate_sectors(d)
        assert len(sectors) == 3**d
        assert len(set(sectors)) == 3**d

    def test_order_is_graded_lex_and_stable(self):
        sectors = enumerate_sectors(4)
        keys = [(s.dimension(), s.plus_mask, s.minus_mask) for s in sectors]
        assert keys == sorted(keys)
        assert sectors == enumerate_sectors(4)

    def test_enumeration_guard(self):
        with pytest.raises(EnumerationLimit):
            enumerate_sectors(21)
        with pytest.raises(ValueError):
            enumerate_sectors(0)

    def test_sector_limit_is_checked_before_building(self):
        # 3^(MAX_SECTOR_DIM + 1) sectors would take seconds and hundreds of MB
        with pytest.raises(EnumerationLimit, match=f"limit d={MAX_SECTOR_DIM}"):
            enumerate_sectors(MAX_SECTOR_DIM + 1)


class TestGradedSubsets:
    @pytest.mark.parametrize("d", range(1, 13))
    def test_rows_follow_size_then_value(self, d):
        rows = graded_subsets(d)
        assert rows.dtype == bool and rows.shape == (2**d, d)
        masks = (rows @ (1 << np.arange(d))).tolist()
        assert masks == sorted(range(2**d), key=lambda s: (s.bit_count(), s))

    def test_one_read_only_array_per_d_up_to_the_sector_limit(self):
        rows = graded_subsets(MAX_SECTOR_DIM)
        assert graded_subsets(MAX_SECTOR_DIM) is rows
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = True

    def test_built_afresh_above_the_sector_limit(self):
        d = MAX_SECTOR_DIM + 1
        rows = graded_subsets(d)
        assert graded_subsets(d) is not rows
        assert not rows.flags.writeable

    def test_limit_checked_before_building(self):
        with pytest.raises(EnumerationLimit, match=f"limit d={MAX_ENUM_DIM}"):
            graded_subsets(MAX_ENUM_DIM + 1)


class TestOrder:
    def test_bottom_below_everything(self):
        bottom = SectorIndex.of(3)
        for s in enumerate_sectors(3):
            assert leq(bottom, s)

    def test_examples(self):
        assert leq(SectorIndex.of(2, plus=[1]), SectorIndex.of(2, plus=[1], minus=[2]))
        assert not leq(SectorIndex.of(2, plus=[2]), SectorIndex.of(2, plus=[1], minus=[2]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            leq(SectorIndex.of(2), SectorIndex.of(3))

    @given(st.data())
    def test_axioms(self, data):
        d = data.draw(st.integers(1, 6))
        full = (1 << d) - 1

        def sector(label):
            plus = data.draw(st.integers(0, full), label=label + "_plus")
            minus = data.draw(st.integers(0, full), label=label + "_minus") & ~plus
            return SectorIndex(d, plus, minus)

        a, b, c = sector("a"), sector("b"), sector("c")
        assert leq(a, a)
        if leq(a, b) and leq(b, a):
            assert a == b
        if leq(a, b) and leq(b, c):
            assert leq(a, c)


def closure(s):
    """The sectors in the closure of ``s``: those below it in the partial order."""
    return [j for j in enumerate_sectors(s.d) if leq(j, s)]


class TestClosure:
    def test_zero_sector(self):
        s = SectorIndex.of(2)
        assert closure(s) == [s]

    def test_mixed_pair(self):
        s = SectorIndex.of(2, plus=[1], minus=[2])
        assert set(closure(s)) == {
            SectorIndex.of(2),
            SectorIndex.of(2, plus=[1]),
            SectorIndex.of(2, minus=[2]),
            s,
        }

    def test_cardinality_is_product_of_subset_counts(self):
        s = SectorIndex.of(3, plus=[1, 2, 3])
        assert len(closure(s)) == 8

    def test_closure_equals_leq_filter(self):
        # The limits of a sector's points, reached by sending any subset of
        # their coefficients to zero, classify into exactly the sectors below it.
        frame = random_square_layer(3, seed=4)
        s = SectorIndex.of(3, plus=[1], minus=[2, 3])
        lam = frame.affine(sample_sector(frame, s, 1, np.random.default_rng(5))[0])
        limits = {
            classify(frame, frame.apex + (lam * np.array(keep)) @ frame.duals)
            for keep in itertools.product((0.0, 1.0), repeat=3)
        }
        assert limits == set(closure(s))


class TestPartitionProperty:
    def test_round_trip_random_points(self):
        rng = np.random.default_rng(11)
        for d in (2, 3, 5, 8):
            frame = random_square_layer(d, seed=d)
            xs = rng.normal(size=(200, d)) * 3.0
            for x in xs:
                sector = classify(frame, x)
                lam = frame.affine(x)
                assert set(sector.plus).isdisjoint(sector.minus)
                recon = frame.apex + lam @ frame.duals
                assert np.abs(recon - x).max() < 1e-9 * (1 + np.abs(x).max())

    def test_interior_samples_classify_to_their_sector(self):
        rng = np.random.default_rng(12)
        frame = random_square_layer(4, seed=13)
        for sector in enumerate_sectors(4):
            xs = sample_sector(frame, sector, 5, rng)
            for x in xs:
                assert classify(frame, x) == sector

    def test_boundary_stability_smoke(self):
        rng = np.random.default_rng(14)
        frame = random_square_layer(3, seed=15)
        sector = SectorIndex.of(3, plus=[2], minus=[3])
        x = sample_sector(frame, sector, 1, rng)[0]
        lam = frame.affine(x)
        zero_tol = 1e-9 * (1 + np.abs(lam).max())
        nudged = frame.apex + (lam + zero_tol / 2) @ frame.duals
        assert leq(classify(frame, x), classify(frame, nudged)) or leq(
            classify(frame, nudged), classify(frame, x)
        )
