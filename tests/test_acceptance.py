"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them)
and asserts both the property and its runtime budget.
"""

import time

import pytest

from relugeom.partition import enumerate_sectors, sector_counts
from relugeom.verify import (
    run_canonical,
    run_count,
    run_decomposition,
    run_deep,
    run_duality,
    run_image,
    run_preimage,
)

SEED = 20260810


def report(number, description, suite_or_ok, elapsed, budget):
    if hasattr(suite_or_ok, "properties"):
        ok = suite_or_ok.passed
        detail = "; ".join(
            f"{p.name}: worst {p.worst:.2e} (tol {p.tolerance:.0e})"
            for p in suite_or_ok.properties
        )
    else:
        ok = bool(suite_or_ok)
        detail = ""
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {description} [{elapsed:.1f}s < {budget}s] {detail}")
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded runtime budget ({elapsed:.1f}s)"


def timed(fn, seed):
    start = time.monotonic()
    out = fn(seed)
    return out, time.monotonic() - start


@pytest.fixture(scope="module")
def count_suite():
    return timed(run_count, SEED)


@pytest.fixture(scope="module")
def deep_suite():
    return timed(run_deep, SEED)


def test_criterion_1_duality_identity():
    suite, elapsed = timed(run_duality, SEED)
    delta = [p for p in suite.properties if p.name == "dual_basis_delta"][0]
    assert delta.checks >= 1000
    report(1, "dual basis identity on 1000+ random layers, d in 2..10", suite, elapsed, 5.0)


def test_criterion_2_partition_counts():
    start = time.monotonic()
    ok = True
    for d in range(1, 11):
        sectors = enumerate_sectors(d)
        ok &= len(sectors) == 3**d
        by_dim = {}
        for s in sectors:
            by_dim[s.dimension()] = by_dim.get(s.dimension(), 0) + 1
        ok &= by_dim == sector_counts(d)
    by_dim2 = {k: v for k, v in sector_counts(2).items()}
    by_dim3 = {k: v for k, v in sector_counts(3).items()}
    ok &= by_dim2 == {0: 1, 1: 4, 2: 4}
    ok &= by_dim3 == {0: 1, 1: 6, 2: 12, 3: 8}
    elapsed = time.monotonic() - start
    report(2, "3^d sector totals and per-dimension breakdowns, d <= 10", ok, elapsed, 1.0)


def test_criterion_3_image_lemma():
    suite, elapsed = timed(run_image, SEED)
    checks = suite.properties[0].checks
    assert checks >= sum(3**d * 100 for d in (2, 3, 4))
    report(3, "image of every sector classifies to (I+, {}), zero violations", suite, elapsed, 10.0)


def test_criterion_4_decomposition_identity():
    suite, elapsed = timed(run_decomposition, SEED)
    assert suite.properties[0].checks >= 10000 * 0.9
    report(4, "ReLU = affine-after-projection, residual < 1e-9 on 10^4 pairs", suite, elapsed, 5.0)


def test_criterion_5_preimage_brute_force():
    suite, elapsed = timed(run_preimage, SEED)
    report(
        5,
        "grid membership oracle agrees with direct evaluation on 100% of points",
        suite,
        elapsed,
        60.0,
    )


def test_criterion_6_piece_count_theorem(count_suite):
    suite, elapsed = count_suite
    relevant = [
        p
        for p in suite.properties
        if p.name
        in ("piece_count_formula", "piece_count_witness_oracle", "canonical_d3_counts_7_6_4")
    ]
    assert all(p.checks >= 3500 for p in relevant[:2])
    ok = all(p.passed for p in relevant)
    report(6, "piece count = 2^d - 2^m = witness oracle; d=3 gives 7/6/4", ok, elapsed, 30.0)


def test_criterion_7_zero_level_soundness(count_suite):
    suite, elapsed = count_suite
    prop = [p for p in suite.properties if p.name == "piece_samples_on_zero_level"][0]
    assert prop.checks >= 50 * 1000  # 50 boundaries, 1000 samples per piece
    report(7, "piece samples satisfy |L(T(x))| < 1e-8 (1 + |bias|)", prop.passed, elapsed, 30.0)


def test_criterion_8_canonicalization():
    suite, elapsed = timed(run_canonical, SEED)
    report(
        8,
        "canonical samples map onto the boundary (1e-7) and piece indices biject",
        suite,
        elapsed,
        60.0,
    )


def test_criterion_9_canonical_network_rewrite(deep_suite):
    suite, elapsed = deep_suite
    prop = [p for p in suite.properties if p.name == "projection_rewrite_matches_network"][0]
    assert prop.checks >= 10000
    report(9, "projection rewrite matches the network to 1e-8 on 10^4 samples", prop.passed, elapsed, 30.0)


def test_criterion_10_deep_recursion_soundness(deep_suite):
    suite, elapsed = deep_suite
    names = ("pullback_points_on_level_zero_set", "depth_one_matches_shallow_sampler")
    props = [p for p in suite.properties if p.name in names]
    ok = all(p.passed for p in props)
    report(10, "pulled-back samples satisfy level conditions; depth 1 matches shallow", ok, elapsed, 60.0)


def test_summary_line():
    # final marker so a bare `pytest -s tests/test_acceptance.py` ends with
    # an explicit overall statement
    print("ACCEPTANCE SUITE COMPLETE")
