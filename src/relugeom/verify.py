"""Brute-force oracle suites backing every closed-form result.

Each suite re-derives a family of claims by an independent route (direct
evaluation, grid enumeration, witness construction, exact segment roots)
and compares against the closed-form implementation.  The suites are
deterministic functions of their seed and are shared between the CLI
``verify`` command and the acceptance tests.
"""

from __future__ import annotations

import itertools
import math
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
    """One checked property, accumulated over the cases of a suite.

    A residual property keeps the largest value it has seen (:meth:`see`),
    a violation-count property the sum of its violations (:meth:`count`).
    A NaN residual is the worst value of all, so it fails.  ``checks``
    counts the cases recorded unless the suite declares it.
    """

    name: str
    tolerance: float
    declared_checks: int | None = None
    seen: int = 0
    worst: float = 0.0
    counterexample: dict | None = None

    @property
    def checks(self) -> int:
        return self.seen if self.declared_checks is None else self.declared_checks

    def see(self, value, counterexample=None, checks=1) -> None:
        """Record residuals (a number or an array); keep the worst and its case."""
        value = float(np.max(value, initial=0.0))
        self.seen += checks
        # NaN compares false: it replaces any finite worst and is kept.
        if not math.isnan(self.worst) and not value <= self.worst:
            self.worst, self.counterexample = value, counterexample

    def count(self, violations, counterexample=None, checks=1) -> None:
        """Record violations; keep the case of the first one."""
        self.seen += checks
        if violations and not self.worst:
            self.counterexample = counterexample
        self.worst += float(violations)

    @property
    def passed(self) -> bool:
        return bool(self.worst < self.tolerance)

    def to_json(self) -> dict:
        out = {
            "property": self.name,
            "checks": self.checks,
            "worst_residual": self.worst,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }
        if not self.passed and self.counterexample is not None:
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

    def declare(self, name: str, tolerance: float, checks: int | None = None) -> PropertyResult:
        """Add a property in report order; ``checks`` fixes its check count."""
        prop = PropertyResult(name, float(tolerance), checks)
        self.properties.append(prop)
        return prop

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


def random_layer(rng: np.random.Generator, d_out: int, d_in: int | None = None) -> ly.ReluLayer:
    """Random well-conditioned layer; square unless ``d_in`` is given."""
    if d_in is None:
        d_in = d_out
    while True:
        a = rng.normal(size=(d_out, d_in))
        s = np.linalg.svd(a, compute_uv=False)
        if s[-1] / s[0] >= 1e-3:
            return ly.ReluLayer.build(a, rng.normal(size=d_out))


def random_output_layer(rng: np.random.Generator, d: int) -> bd.OutputLayer:
    """Random normalized readout with a nonempty boundary.

    Weights are kept away from zero (no degenerate directions), the bias
    away from zero, and at least one intersection value is positive.
    """
    while True:
        w = rng.normal(size=d)
        if np.min(np.abs(w)) < 0.15 * np.max(np.abs(w)):
            continue
        b = rng.normal() * 1.5
        if abs(b) < 0.2:
            continue
        out = bd.normalize_output_layer(bd.OutputLayer(w, b))
        if np.any(out.weights > 0.0):
            return out


def random_network(rng: np.random.Generator, depth: int, d: int) -> nw.ReluNetwork:
    """Random constant-width network whose composed maps stay well conditioned."""
    while True:
        mats = [rng.normal(size=(d, d)) / np.sqrt(d) for _ in range(depth)]
        offs = [rng.normal(size=d) * 0.5 for _ in range(depth)]
        ok = True
        for prefix in itertools.accumulate(mats, lambda acc, m: m @ acc):
            s = np.linalg.svd(prefix, compute_uv=False)
            if s[-1] / s[0] < 1e-6:
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
# Suites.  Each runs at a fixed size and depends only on its seed.


def run_duality(seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    result = SuiteResult("duality", seed)
    delta = result.declare("dual_basis_delta", 1e-9)
    apex = result.declare("apex_residual", 1e-9)
    roundtrip = result.declare("dual_expansion_roundtrip", 1e-9)
    contract_delta = result.declare("contracting_dual_basis_delta", 1e-9)
    kernel = result.declare("contracting_kernel", 1e-9)
    split = result.declare("span_split_orthonormal", 1e-9)
    for d in range(2, 11):
        for _ in range(112):
            layer = random_layer(rng, d)
            delta.see(
                np.abs(layer.duals @ layer.affine.matrix.T - np.eye(d)),
                {"d": d, "matrix": layer.affine.matrix.tolist()},
            )
            apex.see(np.linalg.norm(layer.affine(layer.apex)) / (1.0 + np.linalg.norm(layer.affine.offset)))
            x = rng.normal(size=d) * 3.0
            lam = layer.affine(x)
            roundtrip.see(np.abs(layer.apex + lam @ layer.duals - x) / (1.0 + np.max(np.abs(x))))

    for d_in in (3, 4, 6, 8):
        for d_out in range(2, d_in):
            for _ in range(8):
                layer = random_layer(rng, d_out, d_in)
                contract_delta.see(
                    np.abs(layer.duals @ layer.affine.matrix.T - np.eye(d_out)),
                    {"d_out": d_out, "d_in": d_in, "matrix": layer.affine.matrix.tolist()},
                )
                stacked = np.vstack([layer.row_span_basis, layer.complement_basis])
                split.see(np.abs(stacked @ stacked.T - np.eye(d_in)))
                x = rng.normal(size=d_in) * 2.0
                proj = project_to_row_span(layer, x)
                kernel.see([
                    np.max(np.abs(layer.affine.matrix @ layer.complement_basis.T)),
                    np.max(np.abs(ly.evaluate(layer, x) - ly.evaluate(layer, proj))),
                ])
    return result


def run_partition(seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    result = SuiteResult("partition", seed)
    counts = result.declare("sector_counts_3^d", 1)
    order = result.declare("partial_order_axioms", 1)
    roundtrip = result.declare("classification_roundtrip", 1e-9)
    smoke = result.declare("boundary_stability_smoke", 1)

    sectors_of = {d: pt.enumerate_sectors(d) for d in range(1, 11)}
    for d, sectors in sectors_of.items():
        dims = np.bincount([s.dimension() for s in sectors], minlength=d + 1)
        by_dim = dict(enumerate(dims.tolist()))
        errors = (len(sectors) != 3**d or len(set(sectors)) != 3**d) + (by_dim != pt.sector_counts(d))
        counts.count(errors, {"d": d, "total": len(sectors), "by_dim": by_dim})
    for d, breakdown in {2: {2: 4, 1: 4, 0: 1}, 3: {3: 8, 2: 12, 1: 6, 0: 1}}.items():
        expected = pt.sector_counts(d)
        counts.count(any(expected[k] != v for k, v in breakdown.items()), {"d": d, "counts": expected})

    for d in (2, 3, 4):
        sectors = sectors_of[d]
        rel = np.array([[pt.leq(a, b) for b in sectors] for a in sectors])
        order.count(
            (not np.all(np.diagonal(rel)))
            + bool(np.any(rel & rel.T & ~np.eye(len(sectors), dtype=bool)))
            # Transitivity: composing the relation with itself adds nothing.
            + bool(np.any((rel.astype(int) @ rel.astype(int) > 0) & ~rel))
        )

    for _ in range(10000 // 200):
        d = int(rng.integers(2, 9))
        layer = random_layer(rng, d)
        xs = rng.normal(size=(200, d)) * 3.0
        _, plus, minus, _ = pt.classify_many(layer, xs)
        residuals = []
        for x, p, m in zip(xs, plus, minus):
            # lam, band and reconstruction recomputed here, independent of classify_many
            lam = layer.affine(x)
            band = 1e-9 * (1 + np.abs(lam).max())
            signs_ok = (p == (lam > band)).all() and (m == (lam < -band)).all()
            recon = np.abs(layer.apex + lam @ layer.duals - x) / (1.0 + np.abs(x).max())
            residuals.append(recon.max() if signs_ok else 1.0)
        worst = int(np.argmax(residuals))  # the first worst point, as one see per point would keep
        roundtrip.see(residuals[worst], {"d": d, "x": xs[worst].tolist()}, checks=len(xs))

    for _ in range(200):
        d = int(rng.integers(2, 7))
        layer = random_layer(rng, d)
        sectors = sectors_of[d]
        sector = sectors[int(rng.integers(0, len(sectors)))]
        x = pt.sample_sector(layer, sector, 1, rng)[0]
        lam = layer.affine(x)
        zero_tol = 1e-9 * (1.0 + float(np.max(np.abs(lam))))
        lam_perturbed = lam + zero_tol / 2.0
        x2 = layer.apex + lam_perturbed @ layer.duals
        a, b = pt.classify(layer, x), pt.classify(layer, x2)
        smoke.count(not pt.leq(a, b) and not pt.leq(b, a))
    return result


def _count_images(prop, layer, canonical, sector, want, rng, case: dict):
    """Count the images under ``layer`` of 100 points drawn in ``sector``
    that ``canonical``, the canonical layer, does not put in sector ``want``."""
    bits = 1 << np.arange(layer.d_out)
    ys = ly.evaluate(layer, pt.sample_sector(layer, sector, 100, rng))
    _, plus, minus, _ = pt.classify_many(canonical, ys)
    wrong = np.flatnonzero((plus @ bits != want.plus_mask) | (minus @ bits != want.minus_mask))
    counterexample = None
    if wrong.size:
        y = ys[wrong[0]]
        got = pt.classify(canonical, y).to_json()
        counterexample = {**case, "sector": sector.to_json(), "got": got, "y": y.tolist()}
    prop.count(wrong.size, counterexample, checks=len(ys))


def run_image(seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    result = SuiteResult("image", seed)
    forgets = result.declare("image_forgets_minus_set", 1)
    pulled = result.declare("preimage_of_sector_partitions_the_domain", 1)
    for d in (1, 2, 3, 4):
        canonical = ly.ReluLayer.canonical(d)
        for _ in range(3):
            layer = random_layer(rng, d)
            for sector in pt.enumerate_sectors(d):
                _count_images(forgets, layer, canonical, sector, ly.image_of_sector(layer, sector), rng, {"d": d})
    # Drawn after the loop above, so that its property keeps its numbers:
    # the sectors listed for the codomain sectors (J, {}) are every domain
    # sector once, and each maps into its (J, {}).
    for d in (1, 2, 3, 4):
        canonical, layer, listed = ly.ReluLayer.canonical(d), random_layer(rng, d), []
        for j in itertools.chain.from_iterable(itertools.combinations(range(1, d + 1), g) for g in range(d + 1)):
            image = pt.SectorIndex.of(d, j)
            for sector in ly.preimage_of_sector(layer, j):
                listed.append(sector)
                _count_images(pulled, layer, canonical, sector, image, rng, {"d": d, "J": list(j)})
        every, seen = pt.enumerate_sectors(d), set(listed)
        violations = len(seen.symmetric_difference(every)) + len(listed) - len(seen)
        missing = [s.to_json() for s in every if s not in seen]
        pulled.count(violations, {"d": d, "listed": len(listed), "missing": missing}, checks=len(every))
    return result


def run_decomposition(seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    result = SuiteResult("decomposition", seed)
    relu = result.declare("relu_equals_affine_after_projection", 1e-9)
    idempotent = result.declare("projection_idempotent", 1e-9)
    dims = range(2, 9)
    layers_per_dim = 25
    # About 10^4 pairs, spread evenly over the dimensions and their layers.
    per_layer = 10000 // len(dims) // layers_per_dim
    for d in dims:
        for _ in range(layers_per_dim):
            layer = random_layer(rng, d)
            xs = rng.normal(size=(per_layer, d)) * 3.0
            ce = {"d": d, "matrix": layer.affine.matrix.tolist()}
            relu.see(ly.decompose_check(layer, xs), ce, per_layer)
            proj = ly.project_with_frame(layer, xs)
            idempotent.see(np.abs(ly.project_with_frame(layer, proj) - proj), checks=per_layer)
    return result


def _grid(d: int) -> np.ndarray:
    """The grid of step 0.1 over [-5, 5]^d."""
    axis = np.round(np.arange(-5.0, 5.05, 0.1), 10)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def run_preimage(seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    result = SuiteResult("preimage", seed)
    membership = result.declare("grid_membership_agreement", 1)
    dimension_law = result.declare("preimage_dimension_law", 1)
    direct_tol = 1e-6
    for d in (1, 2, 3):
        layer = random_layer(rng, d)
        grid = _grid(d)
        images = ly.evaluate(layer, grid)
        found = 0
        while found < 20:
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
            disagree = np.flatnonzero(oracle != direct)
            membership.count(
                len(disagree),
                {"d": d, "y": y.tolist(), "x": grid[disagree[0]].tolist()} if len(disagree) else None,
                grid.shape[0],
            )
            dimension_law.see(abs(len(pre.generator_indices) - int(np.sum(y <= 1e-9))))
    return result


def run_count(seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    result = SuiteResult("count", seed)
    formula = result.declare("piece_count_formula", 1)
    witness_oracle = result.declare("piece_count_witness_oracle", 1)
    figure = result.declare("canonical_d3_counts_7_6_4", 1)
    sampled = result.declare("sampled_patterns_subset_of_pieces", 1)
    on_level = result.declare("piece_samples_on_zero_level", 1e-8)
    for d in range(2, 9):
        for _ in range(500):
            layer = random_layer(rng, d)
            output = random_output_layer(rng, d)
            boundary = bd.enumerate_pieces(layer, output)
            count = boundary.piece_count
            witness = bd.piece_count_oracle(layer, output)
            formula.count(count != 2**d - 2**boundary.m, {"d": d, "m": boundary.m, "count": count})
            witness_oracle.count(witness != count, {"d": d, "witness": witness, "count": count})

    for m, expected in ((0, 7), (1, 6), (2, 4)):
        readout = bd.OutputLayer(np.where(np.arange(3) < m, -1.0, 1.0), -1.0)
        witness = bd.piece_count_oracle(ly.ReluLayer.canonical(3), readout)
        figure.count(bd.canonical_boundary(3, m).piece_count != expected or witness != expected)

    for d in (2, 3):
        for _ in range(5):
            layer = random_layer(rng, d)
            output = random_output_layer(rng, d)
            enumerated = {p.indices for p in bd.enumerate_pieces(layer, output).pieces}
            patterns = bd.sample_boundary_patterns(layer, output, rng, n_segments=3000)
            sampled.count(not patterns or not patterns.issubset(enumerated))

    for _ in range(50):
        d = int(rng.integers(2, 5))
        layer = random_layer(rng, d)
        output = random_output_layer(rng, d)
        for piece in bd.enumerate_pieces(layer, output).pieces:
            xs = bd.sample_piece(piece, 1000, radius=2.0, rng=rng)
            on_level.see(
                np.abs(output(ly.evaluate(layer, xs))) / (1.0 + abs(output.bias)),
                {"d": d, "piece": list(piece.indices)},
                len(xs),
            )
    return result


def run_canonical(seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    result = SuiteResult("canonical", seed)
    configs, d, samples = 100, 4, 1000
    mapped_on = result.declare("canonical_samples_map_onto_boundary", 1e-7, configs * samples)
    bijection = result.declare("piece_index_bijection", 1)
    sign_law = result.declare("intersection_sign_law", 1)
    duality = result.declare("pulled_back_normal_duality", 1e-10)
    piece_by_piece = result.declare("canonical_piece_maps_to_its_actual_piece", 1)
    for _ in range(configs):
        layer = random_layer(rng, d)
        output = random_output_layer(rng, d)
        boundary = bd.enumerate_pieces(layer, output)
        reduction = boundary.canonical
        canon = bd.canonical_boundary(d, boundary.m)

        actual_sets = {p.indices for p in boundary.pieces}
        mapped_sets = {reduction.map_indices(p.indices) for p in canon.pieces}
        bijection.count(mapped_sets != actual_sets, {"m": boundary.m, "mapped": sorted(mapped_sets)})

        norm = bd.normalize_output_layer(output)
        sign_law.count(not np.array_equal(np.sign(boundary.t), np.sign(norm.weights)))
        pulled = bd.pull_back_hyperplane(layer.affine, norm)
        duality.see(np.abs(layer.duals @ pulled.weights - norm.weights))

        per_piece = max(1, samples // canon.piece_count)
        for piece in canon.pieces:
            xs = bd.sample_piece(piece, per_piece, radius=1.5, rng=rng)
            levels = np.abs(output(ly.evaluate(layer, reduction.to_actual(xs)))) / (1.0 + abs(norm.bias))
            peak = float(np.max(levels))
            mapped_on.see(peak, {"m": boundary.m, "piece": list(piece.indices), "residual": peak})

    # Piece by piece, at every d <= 8 and m, drawn after the instances above
    # so that their properties keep their numbers: at the points of canonical
    # piece J mapped by to_actual, the positive set of A x + b is sigma(J).
    for d in range(2, 9):
        for m in range(d):
            layer = random_layer(rng, d)
            signs = np.where(rng.permutation(d) < m, -1.0, 1.0)
            output = bd.OutputLayer(signs * rng.uniform(0.5, 2.0, d), -rng.uniform(0.5, 2.0))
            reduction = bd.enumerate_pieces(layer, output).canonical
            for grade in bd.canonical_boundary(d, m).grades:
                xs = bd.sample_grade(grade, 3, 1.5, rng)
                positive = layer.affine(reduction.to_actual(xs.reshape(-1, d))).reshape(xs.shape) > 0.0
                for piece, rows in zip(grade.pieces(), positive):
                    mapped = reduction.map_indices(piece.indices)
                    found = [tuple((np.flatnonzero(row) + 1).tolist()) for row in rows]
                    wrong = [list(indices) for indices in found if indices != mapped]
                    example = {"d": d, "m": m, "piece": list(piece.indices), "mapped": list(mapped)}
                    piece_by_piece.count(len(wrong), wrong and {**example, "positive": wrong[0]}, len(found))
    return result


def run_deep(seed: int) -> SuiteResult:
    rng = np.random.default_rng(seed)
    result = SuiteResult("deep", seed)
    rewrite = result.declare("projection_rewrite_matches_network", 1e-8)
    recursion = result.declare("pullback_points_on_level_zero_set", 1e-7)
    shallow = result.declare("depth_one_matches_shallow_sampler", 1)

    per_net = 1000
    for _ in range(10):
        depth = int(rng.integers(1, 5))
        d = int(rng.integers(2, 7))
        net = random_network(rng, depth, d)
        structure = nw.canonical_structure(net)
        xs = rng.normal(size=(per_net, d)) * 2.0
        direct = np.asarray(nw.evaluate_network(net, xs))
        rewritten = np.asarray(nw.evaluate_canonical(structure, xs))
        rewrite.see(np.abs(direct - rewritten), {"depth": depth, "d": d}, per_net)

    for depth in (2, 3, 2, 3):
        d = int(rng.integers(2, 5))
        net, levels = random_boundary_network(rng, depth, d)
        for level, sample_set in levels.items():
            recursion.see(
                np.abs(np.asarray(nw.evaluate_tail(net, level, sample_set.points))),
                {"depth": depth, "d": d, "level": level},
                len(sample_set),
            )

    for _ in range(3):
        d = int(rng.integers(2, 5))
        layer = random_layer(rng, d)
        output = random_output_layer(rng, d)
        net = nw.ReluNetwork((layer,), output)
        sub_seed = int(rng.integers(0, 2**31))
        levels = nw.trace_boundary(
            net, samples_per_piece=20, radius=1.5, rng=np.random.default_rng(sub_seed)
        )
        # The expected seed points come from the pieces directly, drawn in
        # piece order from the same sub-seed, not through the seed sampler
        # that trace_boundary itself calls.
        piece_rng = np.random.default_rng(sub_seed)
        expected = np.vstack([
            bd.sample_piece(piece, 20, radius=1.5, rng=piece_rng)
            for piece in bd.enumerate_pieces(layer, output).pieces
        ])
        shallow.count(not np.array_equal(levels[1].points, expected))
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
