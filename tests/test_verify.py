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
from relugeom.io import canonical_json
from relugeom.verify import run_canonical, run_count, run_decomposition, run_deep, run_duality


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
