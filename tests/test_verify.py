"""Planted faults: each oracle suite notices them and names a counterexample.

A fault is planted by replacing library functions with wrong versions;
the suite must fail on the properties that check them, and each failing
property must carry its own counterexample.
"""

import dataclasses
import types

import relugeom.boundary as bd
import relugeom.layer as ly
from relugeom.verify import run_canonical, run_count, run_duality


def failing(suite) -> dict:
    return {p.name: p.counterexample for p in suite.properties if not p.passed}


def test_duality_checks_contracting_duals(monkeypatch):
    def perturbed(*args, **kwargs):
        frame = build(*args, **kwargs)
        if not frame.is_contracting:
            return frame
        return dataclasses.replace(frame, duals=frame.duals * (1.0 + 1e-6))

    build = ly.build_dual_frame
    monkeypatch.setattr(ly, "build_dual_frame", perturbed)
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
