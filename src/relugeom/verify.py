"""Brute-force oracle suites backing every closed-form result.

Each suite re-derives a family of claims by an independent route (direct
evaluation, grid enumeration, witness construction, segment bisection)
and compares against the closed-form implementation.  The suites are
deterministic functions of their seed and are shared between the CLI
``verify`` command and the acceptance tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import boundary as bd
from . import layer as ly
from . import network as nw
from . import partition as pt
from .core import project_to_row_span
from .errors import AllNegative, DegenerateBias, DegenerateDirection, EmptyIntersection


@dataclass
class PropertyResult:
    name: str
    checks: int
    worst: float
    tolerance: float
    passed: bool
    counterexample: dict | None = None

    def to_json(self) -> dict:
        out = {
            "property": self.name,
            "checks": self.checks,
            "worst_residual": self.worst,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


@dataclass
class SuiteResult:
    suite: str
    seed: int
    properties: list[PropertyResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.properties)

    def first_counterexample(self) -> dict | None:
        for p in self.properties:
            if not p.passed:
                return p.counterexample or {"property": p.name, "worst": p.worst}
        return None

    def add(self, name, checks, worst, tolerance, counterexample=None) -> PropertyResult:
        result = PropertyResult(
            name=name,
            checks=checks,
            worst=float(worst),
            tolerance=float(tolerance),
            passed=bool(worst < tolerance),
            counterexample=counterexample if worst >= tolerance else None,
        )
        self.properties.append(result)
        return result

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "properties": [p.to_json() for p in self.properties],
        }


# ---------------------------------------------------------------------------
# Random instance factories.  Rejection sampling keeps instances away from
# the degenerate configurations the closed-form theory excludes.


def random_layer(
    rng: np.random.Generator, d_out: int, d_in: int | None = None, rcond_min: float = 1e-3
) -> ly.ReluLayer:
    """Random well-conditioned layer; square unless ``d_in`` is given."""
    if d_in is None:
        d_in = d_out
    while True:
        a = rng.normal(size=(d_out, d_in))
        s = np.linalg.svd(a, compute_uv=False)
        if s[-1] / s[0] >= rcond_min:
            return ly.ReluLayer.build(a, rng.normal(size=d_out))


def random_output_layer(
    rng: np.random.Generator, d: int, min_weight: float = 0.15, min_bias: float = 0.2
) -> bd.OutputLayer:
    """Random normalized readout with a nonempty boundary.

    Weights are kept away from zero (no degenerate directions), the bias
    away from zero, and at least one intersection value is positive.
    """
    while True:
        w = rng.normal(size=d)
        if np.min(np.abs(w)) < min_weight * np.max(np.abs(w)):
            continue
        b = rng.normal() * 1.5
        if abs(b) < min_bias:
            continue
        out = bd.normalize_output_layer(bd.OutputLayer(w, b))
        if np.any(out.weights > 0.0):
            return out


def random_network(
    rng: np.random.Generator, depth: int, d: int, comp_rcond_min: float = 1e-6
) -> nw.ReluNetwork:
    """Random constant-width network whose composed maps stay well conditioned."""
    while True:
        mats = [rng.normal(size=(d, d)) / np.sqrt(d) for _ in range(depth)]
        offs = [rng.normal(size=d) * 0.5 for _ in range(depth)]
        ok = True
        for prefix in itertools.accumulate(mats, lambda acc, m: m @ acc):
            s = np.linalg.svd(prefix, compute_uv=False)
            if s[-1] / s[0] < comp_rcond_min:
                ok = False
                break
        if ok:
            return nw.ReluNetwork.from_arrays(mats, offs, rng.normal(size=d), rng.normal() * 1.5)


def random_boundary_network(
    rng: np.random.Generator, depth: int, d: int
) -> tuple[nw.ReluNetwork, dict[int, nw.BoundarySampleSet]]:
    """Random network together with a traced boundary; retries until the
    recursion survives to the input level."""
    for _ in range(500):
        net = random_network(rng, depth, d)
        if abs(net.output.bias) < 0.2:
            continue
        try:
            if not np.any(bd.normalize_output_layer(net.output).weights > 0):
                continue
            levels = nw.trace_boundary(net, samples_per_piece=30, radius=1.5, rng=rng)
        except (AllNegative, DegenerateBias, DegenerateDirection, EmptyIntersection):
            continue
        if all(len(s) > 0 for s in levels.values()):
            return net, levels
    raise RuntimeError("could not draw a network with a traceable boundary")


# ---------------------------------------------------------------------------
# Suites.


def run_duality(seed: int, layers_total: int = 1008, dims=tuple(range(2, 11))) -> SuiteResult:
    rng = np.random.default_rng(seed)
    result = SuiteResult("duality", seed)
    per_d = max(1, layers_total // len(dims))
    worst_delta = worst_apex = worst_recon = 0.0
    ce_delta = None
    checks = 0
    for d in dims:
        for _ in range(per_d):
            layer = random_layer(rng, d)
            frame = layer.frame
            delta = np.max(np.abs(frame.duals @ layer.affine.matrix.T - np.eye(d)))
            if delta > worst_delta:
                worst_delta, ce_delta = delta, {"d": d, "matrix": layer.affine.matrix.tolist()}
            apex_res = np.linalg.norm(layer.affine(frame.apex)) / (
                1.0 + np.linalg.norm(layer.affine.offset)
            )
            worst_apex = max(worst_apex, apex_res)
            x = rng.normal(size=d) * 3.0
            lam = frame.source(x)
            recon = np.max(np.abs(frame.apex + lam @ frame.duals - x)) / (1.0 + np.max(np.abs(x)))
            worst_recon = max(worst_recon, recon)
            checks += 1
    result.add("dual_basis_delta", checks, worst_delta, 1e-9, ce_delta)
    result.add("apex_residual", checks, worst_apex, 1e-9)
    result.add("dual_expansion_roundtrip", checks, worst_recon, 1e-9)

    worst_kernel = worst_split = 0.0
    n_contract = 0
    for d_in in (3, 4, 6, 8):
        for d_out in range(2, d_in):
            for _ in range(8):
                layer = random_layer(rng, d_out, d_in)
                frame = layer.frame
                delta = np.max(np.abs(frame.duals @ layer.affine.matrix.T - np.eye(d_out)))
                worst_delta = max(worst_delta, delta)
                kernel = np.max(np.abs(layer.affine.matrix @ frame.complement_basis.T))
                worst_kernel = max(worst_kernel, kernel)
                stacked = np.vstack([frame.row_span_basis, frame.complement_basis])
                split = np.max(np.abs(stacked @ stacked.T - np.eye(d_in)))
                worst_split = max(worst_split, split)
                x = rng.normal(size=d_in) * 2.0
                proj = project_to_row_span(frame, x)
                t_diff = np.max(np.abs(ly.evaluate(layer, x) - ly.evaluate(layer, proj)))
                worst_kernel = max(worst_kernel, t_diff)
                n_contract += 1
    result.add("contracting_kernel", n_contract, worst_kernel, 1e-9)
    result.add("span_split_orthonormal", n_contract, worst_split, 1e-9)
    return result


def run_partition(seed: int, max_count_dim: int = 10, points: int = 10000) -> SuiteResult:
    rng = np.random.default_rng(seed)
    result = SuiteResult("partition", seed)

    count_errors = 0
    ce = None
    for d in range(1, max_count_dim + 1):
        sectors = pt.enumerate_sectors(d)
        expected = pt.sector_counts(d)
        if len(sectors) != 3**d or len(set(sectors)) != 3**d:
            count_errors += 1
            ce = {"d": d, "total": len(sectors)}
        by_dim = {k: sum(1 for s in sectors if s.dimension() == k) for k in range(d + 1)}
        if by_dim != expected:
            count_errors += 1
            ce = {"d": d, "by_dim": by_dim}
    figure_cases = {2: {2: 4, 1: 4, 0: 1}, 3: {3: 8, 2: 12, 1: 6, 0: 1}}
    for d, breakdown in figure_cases.items():
        counts = pt.sector_counts(d)
        if any(counts[k] != v for k, v in breakdown.items()):
            count_errors += 1
            ce = {"d": d, "counts": counts}
    result.add("sector_counts_3^d", max_count_dim + 2, count_errors, 1, ce)

    order_errors = 0
    for d in (2, 3, 4):
        sectors = pt.enumerate_sectors(d)
        n = len(sectors)
        rel = np.zeros((n, n), dtype=bool)
        for i, a in enumerate(sectors):
            for j, b in enumerate(sectors):
                rel[i, j] = pt.leq(a, b)
        if not np.all(np.diagonal(rel)):
            order_errors += 1
        if np.any(rel & rel.T & ~np.eye(n, dtype=bool)):
            order_errors += 1
        # Transitivity: composing the relation with itself adds nothing.
        if np.any((rel.astype(int) @ rel.astype(int) > 0) & ~rel):
            order_errors += 1
    result.add("partial_order_axioms", 3, order_errors, 1)

    worst_recon = 0.0
    ce_recon = None
    per_frame = 200
    n = 0
    while n < points:
        d = int(rng.integers(2, 9))
        layer = random_layer(rng, d)
        xs = rng.normal(size=(per_frame, d)) * 3.0
        for x in xs:
            sector = pt.classify(layer.frame, x)
            lam = layer.frame.source(x)
            band = 1e-9 * (1 + np.max(np.abs(lam)))
            signs_ok = set(sector.plus) == {
                i + 1 for i in range(d) if lam[i] > band
            } and set(sector.minus) == {i + 1 for i in range(d) if lam[i] < -band}
            recon = np.max(np.abs(layer.frame.apex + lam @ layer.frame.duals - x)) / (
                1.0 + np.max(np.abs(x))
            )
            if not signs_ok:
                recon = 1.0
                ce_recon = {"d": d, "x": x.tolist()}
            worst_recon = max(worst_recon, recon)
            n += 1
            if n >= points:
                break
    result.add("classification_roundtrip", n, worst_recon, 1e-9, ce_recon)

    smoke_errors = 0
    for _ in range(200):
        d = int(rng.integers(2, 7))
        layer = random_layer(rng, d)
        sectors = pt.enumerate_sectors(d)
        sector = sectors[int(rng.integers(0, len(sectors)))]
        x = pt.sample_sector(layer.frame, sector, 1, rng)[0]
        lam = layer.frame.source(x)
        zero_tol = 1e-9 * (1.0 + float(np.max(np.abs(lam))))
        lam_perturbed = lam + zero_tol / 2.0
        x2 = layer.frame.apex + lam_perturbed @ layer.frame.duals
        if not pt.leq(pt.classify(layer.frame, x), pt.classify(layer.frame, x2)) and not pt.leq(
            pt.classify(layer.frame, x2), pt.classify(layer.frame, x)
        ):
            smoke_errors += 1
    result.add("boundary_stability_smoke", 200, smoke_errors, 1)
    return result


def run_image(seed: int, dims=(1, 2, 3, 4), samples: int = 100, layers_per_dim: int = 3) -> SuiteResult:
    rng = np.random.default_rng(seed)
    result = SuiteResult("image", seed)
    violations = 0
    checks = 0
    ce = None
    for d in dims:
        canonical = ly.ReluLayer.canonical(d)
        for _ in range(layers_per_dim):
            layer = random_layer(rng, d)
            for sector in pt.enumerate_sectors(d):
                xs = pt.sample_sector(layer.frame, sector, samples, rng)
                ys = ly.evaluate(layer, xs)
                predicted = ly.image_of_sector(layer, sector)
                for y in ys:
                    got = pt.classify(canonical.frame, y)
                    checks += 1
                    if got != predicted:
                        violations += 1
                        if ce is None:
                            ce = {
                                "d": d,
                                "sector": sector.to_json(),
                                "got": got.to_json(),
                                "y": y.tolist(),
                            }
    result.add("image_forgets_minus_set", checks, violations, 1, ce)
    return result


def run_decomposition(seed: int, pairs: int = 10000, dims=tuple(range(2, 9))) -> SuiteResult:
    rng = np.random.default_rng(seed)
    result = SuiteResult("decomposition", seed)
    worst = 0.0
    worst_idem = 0.0
    ce = None
    per_dim = max(1, pairs // len(dims))
    layers_per_dim = 25
    checks = 0
    for d in dims:
        per_layer = max(1, per_dim // layers_per_dim)
        for _ in range(layers_per_dim):
            layer = random_layer(rng, d)
            xs = rng.normal(size=(per_layer, d)) * 3.0
            residual = ly.decompose_check(layer, xs)
            if residual > worst:
                worst = residual
                ce = {"d": d, "matrix": layer.affine.matrix.tolist()}
            proj = ly.project_with_frame(layer.frame, xs)
            worst_idem = max(
                worst_idem, float(np.max(np.abs(ly.project_with_frame(layer.frame, proj) - proj)))
            )
            checks += per_layer
    result.add("relu_equals_affine_after_projection", checks, worst, 1e-9, ce)
    result.add("projection_idempotent", checks, worst_idem, 1e-9)
    return result


def _grid(d: int, lo: float = -5.0, hi: float = 5.0, step: float = 0.1) -> np.ndarray:
    axis = np.round(np.arange(lo, hi + step / 2, step), 10)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def run_preimage(
    seed: int, dims=(1, 2, 3), targets_per_dim: int = 20, direct_tol: float = 1e-6
) -> SuiteResult:
    rng = np.random.default_rng(seed)
    result = SuiteResult("preimage", seed)
    mismatches = 0
    checks = 0
    ce = None
    worst_dim_law = 0
    for d in dims:
        layer = random_layer(rng, d)
        grid = _grid(d)
        images = ly.evaluate(layer, grid)
        found = 0
        while found < targets_per_dim:
            y = images[int(rng.integers(0, grid.shape[0]))]
            # Positive components must clear both the zero band and the
            # direct-check tolerance, otherwise the two tests measure
            # different questions at the margin.
            if np.any((y > 0) & (y < 1e-4)):
                continue
            found += 1
            pre = ly.preimage_of_point(layer, y)
            oracle = ly.membership_mask(layer, pre, grid, tol=direct_tol)
            direct = np.max(np.abs(images - y), axis=1) <= direct_tol
            disagreements = int(np.sum(oracle != direct))
            mismatches += disagreements
            checks += grid.shape[0]
            if disagreements and ce is None:
                idx = int(np.flatnonzero(oracle != direct)[0])
                ce = {"d": d, "y": y.tolist(), "x": grid[idx].tolist()}
            zeros = int(np.sum(y <= 1e-9))
            worst_dim_law = max(worst_dim_law, abs(len(pre.generator_indices) - zeros))
    result.add("grid_membership_agreement", checks, mismatches, 1, ce)
    result.add("preimage_dimension_law", len(dims) * targets_per_dim, worst_dim_law, 1)
    return result


def run_count(
    seed: int,
    configs_per_dim: int = 500,
    dims=tuple(range(2, 9)),
    soundness_boundaries: int = 50,
    soundness_samples_per_piece: int = 1000,
) -> SuiteResult:
    rng = np.random.default_rng(seed)
    result = SuiteResult("count", seed)
    formula_errors = 0
    oracle_errors = 0
    checks = 0
    ce = None
    for d in dims:
        for _ in range(configs_per_dim):
            layer = random_layer(rng, d)
            output = random_output_layer(rng, d)
            boundary = bd.enumerate_pieces(layer, output)
            expected = 2**d - 2**boundary.m
            witness = bd.piece_count_oracle(layer, output)
            checks += 1
            if boundary.piece_count != expected:
                formula_errors += 1
                ce = ce or {"d": d, "m": boundary.m, "count": boundary.piece_count}
            if witness != boundary.piece_count:
                oracle_errors += 1
                ce = ce or {"d": d, "witness": witness, "count": boundary.piece_count}
    result.add("piece_count_formula", checks, formula_errors, 1, ce)
    result.add("piece_count_witness_oracle", checks, oracle_errors, 1, ce)

    figure_errors = 0
    for m, expected in ((0, 7), (1, 6), (2, 4)):
        boundary = bd.canonical_boundary(3, m)
        if boundary.piece_count != expected or bd.piece_count_oracle(
            ly.ReluLayer.canonical(3),
            bd.OutputLayer(np.where(np.arange(3) < m, -1.0, 1.0), -1.0),
        ) != expected:
            figure_errors += 1
    result.add("canonical_d3_counts_7_6_4", 3, figure_errors, 1)

    sampled_errors = 0
    for d in (2, 3):
        for _ in range(5):
            layer = random_layer(rng, d)
            output = random_output_layer(rng, d)
            boundary = bd.enumerate_pieces(layer, output)
            enumerated = {p.indices for p in boundary.pieces}
            sampled = bd.sample_boundary_patterns(layer, output, rng, n_segments=3000)
            if not sampled or not sampled.issubset(enumerated):
                sampled_errors += 1
    result.add("sampled_patterns_subset_of_pieces", 10, sampled_errors, 1)

    worst_level = 0.0
    ce_level = None
    n_samples = 0
    for _ in range(soundness_boundaries):
        d = int(rng.integers(2, 5))
        layer = random_layer(rng, d)
        output = random_output_layer(rng, d)
        boundary = bd.enumerate_pieces(layer, output)
        tol_scale = 1.0 + abs(output.bias)
        for piece in boundary.pieces:
            xs = bd.sample_piece(piece, soundness_samples_per_piece, radius=2.0, rng=rng)
            levels = np.abs(output(ly.evaluate(layer, xs))) / tol_scale
            peak = float(np.max(levels))
            if peak > worst_level:
                worst_level = peak
                ce_level = {"d": d, "piece": list(piece.indices)}
            n_samples += soundness_samples_per_piece
    result.add("piece_samples_on_zero_level", n_samples, worst_level, 1e-8, ce_level)
    return result


def run_canonical(seed: int, configs: int = 100, d: int = 4, samples: int = 1000) -> SuiteResult:
    rng = np.random.default_rng(seed)
    result = SuiteResult("canonical", seed)
    worst_mapped = 0.0
    bijection_errors = 0
    sign_errors = 0
    worst_dual_product = 0.0
    ce = None
    for _ in range(configs):
        layer = random_layer(rng, d)
        output = random_output_layer(rng, d)
        boundary = bd.enumerate_pieces(layer, output)
        reduction = boundary.canonical
        canon = bd.canonical_boundary(d, boundary.m)

        actual_sets = {p.indices for p in boundary.pieces}
        mapped_sets = {reduction.map_indices(p.indices) for p in canon.pieces}
        if mapped_sets != actual_sets:
            bijection_errors += 1
            ce = ce or {"m": boundary.m, "mapped": sorted(mapped_sets)}

        t = boundary.values.t
        norm = bd.normalize_output_layer(output)
        if not all(np.sign(t[i]) == np.sign(norm.weights[i]) for i in range(d)):
            sign_errors += 1
        pulled = bd.pull_back_hyperplane(layer.affine, norm)
        worst_dual_product = max(
            worst_dual_product,
            float(np.max(np.abs(layer.frame.duals @ pulled.normal - norm.weights))),
        )

        per_piece = max(1, samples // canon.piece_count)
        scale = 1.0 + abs(norm.bias)
        for piece in canon.pieces:
            xs = bd.sample_piece(piece, per_piece, radius=1.5, rng=rng)
            mapped = reduction.to_actual(xs)
            levels = np.abs(output(ly.evaluate(layer, mapped))) / scale
            peak = float(np.max(levels))
            if peak > worst_mapped:
                worst_mapped = peak
                ce = ce or {"m": boundary.m, "piece": list(piece.indices), "residual": peak}
    result.add("canonical_samples_map_onto_boundary", configs * samples, worst_mapped, 1e-7, ce)
    result.add("piece_index_bijection", configs, bijection_errors, 1, ce)
    result.add("intersection_sign_law", configs, sign_errors, 1)
    result.add("pulled_back_normal_duality", configs, worst_dual_product, 1e-10)
    return result


def run_deep(
    seed: int,
    rewrite_samples: int = 10000,
    rewrite_nets: int = 10,
    recursion_depths=(2, 3, 2, 3),
) -> SuiteResult:
    rng = np.random.default_rng(seed)
    result = SuiteResult("deep", seed)

    worst_rewrite = 0.0
    ce = None
    per_net = max(1, rewrite_samples // rewrite_nets)
    for _ in range(rewrite_nets):
        depth = int(rng.integers(1, 5))
        d = int(rng.integers(2, 7))
        net = random_network(rng, depth, d)
        structure = nw.canonical_structure(net)
        xs = rng.normal(size=(per_net, d)) * 2.0
        direct = np.asarray(nw.evaluate_network(net, xs))
        rewritten = np.asarray(nw.evaluate_canonical(structure, xs))
        peak = float(np.max(np.abs(direct - rewritten)))
        if peak > worst_rewrite:
            worst_rewrite = peak
            ce = {"depth": depth, "d": d}
    result.add("projection_rewrite_matches_network", rewrite_nets * per_net, worst_rewrite, 1e-8, ce)

    worst_recursion = 0.0
    n_points = 0
    ce_rec = None
    for depth in recursion_depths:
        d = int(rng.integers(2, 5))
        net, levels = random_boundary_network(rng, depth, d)
        for level, sample_set in levels.items():
            residuals = np.abs(np.asarray(nw.evaluate_tail(net, level, sample_set.points)))
            peak = float(np.max(residuals, initial=0.0))
            n_points += len(sample_set)
            if peak > worst_recursion:
                worst_recursion = peak
                ce_rec = {"depth": depth, "d": d, "level": level}
    result.add("pullback_points_on_level_zero_set", n_points, worst_recursion, 1e-7, ce_rec)

    shallow_mismatch = 0
    for trial in range(3):
        d = int(rng.integers(2, 5))
        layer = random_layer(rng, d)
        output = random_output_layer(rng, d)
        net = nw.ReluNetwork((layer,), output)
        sub_seed = int(rng.integers(0, 2**31))
        levels = nw.trace_boundary(
            net, samples_per_piece=20, radius=1.5, rng=np.random.default_rng(sub_seed)
        )
        direct = nw.sample_shallow_boundary(
            layer, output, 1, 20, 1.5, np.random.default_rng(sub_seed)
        )
        if not np.array_equal(levels[1].points, direct.points):
            shallow_mismatch += 1
    result.add("depth_one_matches_shallow_sampler", 3, shallow_mismatch, 1)
    return result


SUITES = {
    "duality": run_duality,
    "partition": run_partition,
    "image": run_image,
    "preimage": run_preimage,
    "decomposition": run_decomposition,
    "count": run_count,
    "canonical": run_canonical,
    "deep": run_deep,
}


def run_suite(name: str, seed: int) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](seed)
