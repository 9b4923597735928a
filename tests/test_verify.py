"""Planted faults: each oracle suite notices them and names a counterexample.

A fault is planted by replacing library functions with wrong versions;
the suite must fail on the properties that check them, and each failing
property must carry its own counterexample.
"""

import dataclasses
import json
import types

import numpy as np

import relugeom.boundary as bd
import relugeom.core as core
import relugeom.layer as ly
import relugeom.network as nw
import relugeom.partition as pt
from relugeom.io import canonical_json
from relugeom.verify import (
    SuiteResult,
    random_layer,
    run_canonical,
    run_count,
    run_decomposition,
    run_deep,
    run_duality,
    run_image,
)


def failing(suite) -> dict:
    return {p.name: p.counterexample for p in suite.properties if not p.passed}


def reported(suite) -> dict:
    """Each property's report, as the verify command serializes it."""
    return {p["property"]: p for p in json.loads(canonical_json(suite.to_json()))["properties"]}


def test_duality_checks_contracting_duals(monkeypatch):
    def perturbed(*args, **kwargs):
        frame = build(*args, **kwargs)
        if not frame.is_contracting:
            return frame
        return dataclasses.replace(frame, duals=frame.duals * (1.0 + 1e-6))

    build = core.build_dual_frame
    monkeypatch.setattr(core, "build_dual_frame", perturbed)
    failed = failing(run_duality(0))
    assert list(failed) == ["contracting_dual_basis_delta"]
    assert set(failed["contracting_dual_basis_delta"]) == {"d_out", "d_in", "matrix"}


def test_count_properties_keep_their_own_counterexamples(monkeypatch):
    # Every enumeration reports 0 pieces and the witness oracle finds 1; the
    # oracle is a constant so that the suite runs in about a second.
    # canonical_boundary keeps the boundaries it builds up to d = 8: build
    # the suite's d = 3 ones first, so that none is built by the stub and kept.
    for m in range(3):
        bd.canonical_boundary(3, m)
    monkeypatch.setattr(
        bd, "enumerate_pieces", lambda layer, output: types.SimpleNamespace(m=0, piece_count=0, pieces=())
    )
    monkeypatch.setattr(bd, "piece_count_oracle", lambda layer, output: 1)
    failed = failing(run_count(0))
    assert failed["piece_count_formula"] == {"d": 2, "m": 0, "count": 0}
    assert failed["piece_count_witness_oracle"] == {"d": 2, "witness": 1, "count": 0}


def test_canonical_properties_keep_their_own_counterexamples(monkeypatch):
    # The canonical boundary of the next class has other pieces, which map
    # neither onto the actual pieces nor onto the actual zero set.
    canonical = bd.canonical_boundary
    monkeypatch.setattr(bd, "canonical_boundary", lambda d, m: canonical(d, (m + 1) % d))
    failed = failing(run_canonical(0))
    assert set(failed["canonical_samples_map_onto_boundary"]) == {"m", "piece", "residual"}
    assert set(failed["piece_index_bijection"]) == {"m", "mapped"}


def test_canonical_boundary_replacement_reaches_the_count_figure(monkeypatch):
    # canonical_boundary keeps its boundaries, but a replaced module
    # attribute is still what the suite calls
    canonical = bd.canonical_boundary
    monkeypatch.setattr(bd, "canonical_boundary", lambda d, m: canonical(d, (m + 1) % d))
    assert list(failing(run_count(0))) == ["canonical_d3_counts_7_6_4"]


def test_canonical_suite_ties_each_piece_to_sigma_of_it(monkeypatch):
    # Swapping the last two entries of sigma where both are positive
    # (m <= d - 2) keeps the family {sigma(J)} and the map onto the zero
    # level; only the piece-by-piece property sees the wrong correspondence.
    enumerate_pieces = bd.enumerate_pieces

    def swapped(layer, output):
        boundary = enumerate_pieces(layer, output)
        if boundary.m > boundary.d - 2:
            return boundary
        sigma = boundary.canonical.sigma
        canonical = dataclasses.replace(boundary.canonical, sigma=sigma[:-2] + (sigma[-1], sigma[-2]))
        return dataclasses.replace(boundary, canonical=canonical)

    monkeypatch.setattr(bd, "enumerate_pieces", swapped)
    failed = failing(run_canonical(0))
    assert list(failed) == ["canonical_piece_maps_to_its_actual_piece"]
    assert set(failed["canonical_piece_maps_to_its_actual_piece"]) == {"d", "m", "piece", "mapped", "positive"}


def reference_run_image(seed):
    """The image suite as it classified before: one classify call per point."""
    rng = np.random.default_rng(seed)
    result = SuiteResult("image", seed)
    forgets = result.declare("image_forgets_minus_set", 1)
    for d in (1, 2, 3, 4):
        canonical = ly.ReluLayer.canonical(d)
        for _ in range(3):
            layer = random_layer(rng, d)
            for sector in pt.enumerate_sectors(d):
                xs = ly.sample_sector(layer, sector, 100, rng)
                ys = ly.evaluate(layer, xs)
                predicted = ly.image_of_sector(layer, sector)
                for y in ys:
                    got = pt.classify(canonical, y)
                    wrong = got != predicted
                    forgets.count(
                        wrong,
                        {"d": d, "sector": sector.to_json(), "got": got.to_json(), "y": y.tolist()}
                        if wrong
                        else None,
                    )
    return result


def test_image_suite_counts_as_the_per_point_loop(monkeypatch):
    # Every seventh image, from the fourth on, gets its own negative first
    # coordinate, so each batch has several violations, none at its first
    # point.  The golden report covers the passing suite.
    evaluate = ly.evaluate

    def moved(layer, xs):
        ys = evaluate(layer, xs)
        ys[3::7, 0] = -1.0 - np.arange(len(ys[3::7]))
        return ys

    monkeypatch.setattr(ly, "evaluate", moved)
    suite = run_image(0)
    assert not suite.passed
    (forgets, *_) = suite.properties
    assert canonical_json(forgets.to_json()) == canonical_json(reference_run_image(0).properties[0].to_json())
    assert failing(suite)["image_forgets_minus_set"]["y"][0] == -1.0


def test_image_suite_checks_the_sector_preimages(monkeypatch):
    # Each list of domain sectors loses its last one, so the sector (J, K)
    # with K the whole complement of J is listed for no J.
    preimage_of_sector = ly.preimage_of_sector
    monkeypatch.setattr(ly, "preimage_of_sector", lambda layer, j: preimage_of_sector(layer, j)[:-1])
    suite = run_image(0)
    failed = failing(suite)
    assert list(failed) == ["preimage_of_sector_partitions_the_domain"]
    assert failed["preimage_of_sector_partitions_the_domain"] == {
        "d": 1,
        "listed": 1,
        "missing": [{"plus": [], "minus": [1]}, {"plus": [1], "minus": []}],
    }
    assert reported(suite)["preimage_of_sector_partitions_the_domain"]["worst_residual"] == 2 + 4 + 8 + 16


def test_image_suite_checks_where_the_sector_preimages_map(monkeypatch):
    # Every listed sector also gets its plus set as minus set: disjoint
    # masks are kept, so only the empty J survives, and (J, J) is no sector.
    preimage_of_sector = ly.preimage_of_sector

    def minus_for_plus(layer, j):
        return [pt.SectorIndex(s.d, s.minus_mask, s.plus_mask) for s in preimage_of_sector(layer, j)]

    monkeypatch.setattr(ly, "preimage_of_sector", minus_for_plus)
    failed = failing(run_image(0))
    assert list(failed) == ["preimage_of_sector_partitions_the_domain"]
    assert set(failed["preimage_of_sector_partitions_the_domain"]) == {"d", "J", "sector", "got", "y"}


def test_nan_decomposition_residual_fails(monkeypatch):
    monkeypatch.setattr(ly, "decompose_check", lambda layer, xs: float("nan"))
    suite = run_decomposition(0)
    assert not suite.passed
    assert set(failing(suite)["relu_equals_affine_after_projection"]) == {"d", "matrix"}
    report = reported(suite)["relu_equals_affine_after_projection"]
    assert report["worst_residual"] is None and report["passed"] is False


def test_nan_rewrite_residual_fails(monkeypatch):
    monkeypatch.setattr(nw, "evaluate_canonical", lambda structure, xs: np.full(len(xs), np.nan))
    suite = run_deep(0)
    assert list(failing(suite)) == ["projection_rewrite_matches_network"]
    report = reported(suite)["projection_rewrite_matches_network"]
    assert report["worst_residual"] is None and report["passed"] is False
    assert set(report["counterexample"]) == {"depth", "d"}


def test_deep_suite_checks_the_seed_sampler(monkeypatch):
    # The seed sampler returns its rows reversed; trace_boundary calls it,
    # so only an expectation built without it can notice.
    sample = nw.sample_shallow_boundary

    def reversed_rows(*args, **kwargs):
        drawn = sample(*args, **kwargs)
        return dataclasses.replace(drawn, points=drawn.points[::-1], residuals=drawn.residuals[::-1])

    monkeypatch.setattr(nw, "sample_shallow_boundary", reversed_rows)
    assert "depth_one_matches_shallow_sampler" in failing(run_deep(0))
