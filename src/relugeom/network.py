"""Multi-layer ReLU networks: composition, rewriting, and boundary recursion.

Because each layer factors into a cone projection followed by its affine
part, a whole network factors into the chain of cone projections of the
*composed* affine maps followed by a single composed readout.  The
boundary of the network at level k (the zero set of the suffix starting
at layer k) pulls back one level at a time: intersect with the closed
nonnegative orthant, then take layer preimages.  Exact piece enumeration
across layers is not attempted; levels are represented by verified
samples with their parent and fiber indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import DecisionBoundary, OutputLayer, enumerate_pieces, pull_back_hyperplane, sample_grade
from .core import AffineMap, ReluLayer, build_dual_frame, read_only_floats
from .errors import DimensionMismatch, EmptyIntersection, RankDeficient, SchemaError
from .layer import evaluate, preimage_bases, project_with_frame, refuse_draw
from .tolerances import ZERO_COMPONENT_TOL


@dataclass(frozen=True, eq=False)
class ReluNetwork:
    """Stack of ReLU layers with a scalar affine readout."""

    layers: tuple[ReluLayer, ...]
    output: OutputLayer

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise DimensionMismatch("network needs at least one layer")
        for k in range(1, len(layers)):
            if layers[k].d_in != layers[k - 1].d_out:
                raise DimensionMismatch(
                    f"layer {k + 1} expects dimension {layers[k].d_in}, "
                    f"layer {k} outputs {layers[k - 1].d_out}"
                )
        if self.output.d != layers[-1].d_out:
            raise DimensionMismatch(
                f"readout expects dimension {self.output.d}, "
                f"last layer outputs {layers[-1].d_out}"
            )
        object.__setattr__(self, "layers", layers)

    @classmethod
    def from_arrays(cls, matrices, offsets, weights, bias) -> "ReluNetwork":
        layers = tuple(ReluLayer.build(m, b) for m, b in zip(matrices, offsets))
        return cls(layers, OutputLayer(np.asarray(weights, dtype=float), bias))

    @property
    def depth(self) -> int:
        return len(self.layers)


def evaluate_network(net: ReluNetwork, x) -> float | np.ndarray:
    """Full forward pass: readout of the composed layer chain."""
    return evaluate_tail(net, 1, x)


def evaluate_tail(net: ReluNetwork, level: int, x) -> float | np.ndarray:
    """Value of the suffix network starting at layer ``level`` (1-based).

    Level 1 is the full network; level k sees points in the domain of
    layer k.  Points of the level-k boundary are exactly the zeros.
    """
    if not 1 <= level <= net.depth:
        raise ValueError(f"level {level} outside 1..{net.depth}")
    h = np.asarray(x, dtype=float)
    for layer in net.layers[level - 1 :]:
        h = evaluate(layer, h)
    return net.output(h)


@dataclass(frozen=True, eq=False)
class ComposedAffine:
    """Prefix compositions of the layer affine maps, each held as a layer.

    ``frames[k-1].affine`` is the composition of the first k affine parts;
    its frame defines the k:th cone projection of the rewritten network.
    ``final_affine`` is the readout composed with the last map, a scalar
    affine function on the input space.
    """

    frames: tuple[ReluLayer, ...]
    final_affine: OutputLayer


def canonical_structure(net: ReluNetwork) -> ComposedAffine:
    """Rewrite the network as cone projections plus one affine readout.

    Each composed affine map must admit a dual frame; failure reports the
    depth at which the composition loses rank.
    """
    frames = [net.layers[0]]  # the first composed map is layer 1's affine part, so layer 1 is its frame
    composed = net.layers[0].affine
    for k, layer in enumerate(net.layers[1:], start=2):
        a = layer.affine
        composed = AffineMap(a.matrix @ composed.matrix, a.matrix @ composed.offset + a.offset)
        try:
            frames.append(build_dual_frame(composed))
        except RankDeficient as exc:
            raise RankDeficient(f"composed affine map at depth {k}: {exc}") from exc
    final = pull_back_hyperplane(composed, net.output)
    return ComposedAffine(frames=tuple(frames), final_affine=final)


def evaluate_canonical(structure: ComposedAffine, x) -> float | np.ndarray:
    """Evaluate the rewritten network: projections then the composed readout."""
    h = np.asarray(x, dtype=float)
    for frame in structure.frames:
        h = project_with_frame(frame, h)
    return structure.final_affine(h)


@dataclass(frozen=True, eq=False)
class BoundarySampleSet:
    """Verified sample points of the boundary at one level.

    Row i of ``points`` came from row ``parent[i]`` of the level-(k+1)
    sample set (at the seed level: from piece ``parent[i]``) as fiber
    ``fiber[i]``; fiber 0 of a pulled-back parent is its preimage base
    point.  ``rejected`` counts the points the residual filter dropped.
    """

    level: int
    points: np.ndarray
    residuals: np.ndarray
    parent: np.ndarray
    fiber: np.ndarray
    rejected: int = 0

    def __post_init__(self):
        for name, dtype in (
            ("points", float), ("residuals", float), ("parent", np.int64), ("fiber", np.int64)
        ):
            object.__setattr__(self, name, read_only_floats(getattr(self, name), dtype))

    def __len__(self) -> int:
        return self.points.shape[0]


def sample_shallow_boundary(
    boundary: DecisionBoundary,
    level: int,
    samples_per_piece: int,
    radius: float,
    rng: np.random.Generator,
) -> BoundarySampleSet:
    """Seed sample set: ``samples_per_piece`` points of every piece of the
    boundary, drawn in piece order, with residuals |readout(layer(x))| of
    the normalized readout and the boundary's own layer.  Opens with
    :func:`~relugeom.layer.refuse_draw`, which raises before any draw:
    SchemaError for a negative count or a negative or non-finite radius,
    EnumerationLimit when the points would exceed MAX_SAMPLE_FLOATS
    floats.  SchemaError also follows the draw when the radius is so large
    that a point or a residual leaves the float range.

    Stream contract: the points are exactly those of :func:`sample_piece`
    called piece by piece on the same generator, and the generator ends in
    the same state.  Each grade (the pieces with equal |J|, consecutive in
    piece order) is drawn by :func:`sample_grade`: two generator calls per
    piece, then array passes over the grade.

    The residuals are evaluated once, on the points of all grades as one
    (pieces, n, d_in) stack: the layer's product and the readout's still
    run stack by stack, on one piece's n points at a time, so the bits are
    those of a per-piece evaluation, however many pieces are stacked.
    The ReLU, the bias add and the abs run in place, so besides the
    points and residuals it keeps, a draw holds one more array of its
    points' size.
    """
    layer, n_pieces = boundary.layer, boundary.piece_count
    refuse_draw(samples_per_piece, radius, n_pieces * samples_per_piece * layer.d_in)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        points = np.concatenate(
            [sample_grade(grade, samples_per_piece, radius, rng) for grade in boundary.grades]
        )
        activations = layer.affine(points)
        np.maximum(activations, 0.0, out=activations)
        residuals = activations @ boundary.readout.weights
        del activations  # freed before the finiteness checks below allocate
        residuals += boundary.readout.bias
        np.abs(residuals, residuals)
    points, residuals = points.reshape(-1, layer.d_in), residuals.ravel()
    if not (np.isfinite(points).all() and np.isfinite(residuals).all()):
        raise SchemaError(f"--radius {radius:g} puts boundary samples beyond the float range")
    parent = np.repeat(np.arange(n_pieces), samples_per_piece)
    fiber = np.tile(np.arange(samples_per_piece), n_pieces)
    for array in (points, residuals, parent, fiber):
        array.setflags(write=False)  # fresh arrays: the set keeps them uncopied
    return BoundarySampleSet(level, points, residuals, parent, fiber)


def pull_back_boundary(
    net: ReluNetwork,
    k: int,
    samples: BoundarySampleSet,
    rng: np.random.Generator,
    max_fibers: int,
    tol: float,
) -> BoundarySampleSet:
    """Pull level-(k+1) boundary samples back through layer k.

    Keeps the samples inside the closed nonnegative orthant, up to the
    zero band ZERO_COMPONENT_TOL (the rest have empty preimages), and
    emits, per kept sample y, the preimage base point apex + y A* followed
    by fibers swept from it along -a_i* for the zero components i of y
    (Exponential(1) coefficients) and, for contracting layers, along the
    complement basis (standard Normal shifts).  The fiber budget
    per point is min(max_fibers, 4^(z + free)) with z the number of zero
    components and free the complement dimension.  Base points and fiber
    counts are computed for all kept samples at once; coefficients and
    sweeps are drawn parent by parent in parent order.  Every emitted
    point is verified against the level-k zero condition: its suffix
    value from layer k is at most ``tol`` in magnitude.
    """
    if samples.level != k + 1:
        raise ValueError(f"expected samples at level {k + 1}, got {samples.level}")
    if not 1 <= k < net.depth + 1:
        raise ValueError(f"level {k} outside 1..{net.depth}")
    layer = net.layers[k - 1]
    if samples.points.shape[1] != layer.d_out:
        raise DimensionMismatch(
            f"samples have dimension {samples.points.shape[1]}, "
            f"layer {k} outputs {layer.d_out}"
        )
    inside = np.flatnonzero(np.min(samples.points, axis=1) >= -ZERO_COMPONENT_TOL)
    if inside.size == 0:
        message = (
            f"no level-{k + 1} samples inside the nonnegative orthant: pull-back to "
            f"level {k} received {len(samples)} level-{k + 1} samples, 0 inside"
        )
        if len(samples) == 0 and samples.rejected:
            message += (
                f"; the residual filter at level {k + 1} had rejected all "
                f"{samples.rejected} of its points"
            )
        raise EmptyIntersection(message)
    _, bases, zero = preimage_bases(layer, samples.points[inside])
    free = 0 if layer.complement_basis is None else layer.complement_basis.shape[0]
    n_fibers = np.minimum(4.0 ** (zero.sum(axis=1) + free), max_fibers).astype(np.int64)
    counts = np.maximum(n_fibers, 1)
    starts = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(inside.size), counts)
    fiber = np.arange(owner.size) - starts[owner]
    points = bases[owner]
    for i in np.flatnonzero(n_fibers > 1).tolist():
        n, pattern = int(n_fibers[i]), zero[i]
        extra = rng.exponential(1.0, size=(n - 1, int(pattern.sum()))) @ -layer.duals[pattern]
        if free:
            shifts = rng.normal(0.0, 1.0, size=(n - 1, free))
            extra = extra + shifts @ layer.complement_basis
        points[starts[i] + 1 : starts[i] + n] += extra

    residuals = np.abs(np.asarray(evaluate_tail(net, k, points)))
    keep = residuals <= tol
    kept = points[keep], residuals[keep], inside[owner][keep], fiber[keep]
    for array in kept:
        array.setflags(write=False)  # fresh arrays: the set keeps them uncopied
    return BoundarySampleSet(k, *kept, rejected=int(keep.size - np.count_nonzero(keep)))


def trace_boundary(
    net: ReluNetwork,
    samples_per_piece: int = 50,
    radius: float = 2.0,
    *,
    rng: np.random.Generator,
    max_fibers: int = 16,
    tol: float = 1e-7,
) -> dict[int, BoundarySampleSet]:
    """Run the boundary recursion from the last level down to the input.

    Level N is seeded from the exact shallow enumeration of the last layer
    plus readout; every earlier level is produced by pull-back.  Returns
    one verified sample set per level, keyed by level.  Raises SchemaError
    when ``samples_per_piece`` is below 1, since no point would be drawn.
    """
    if samples_per_piece < 1:
        raise SchemaError(
            f"--samples {samples_per_piece} draws no boundary points: the trace needs "
            "at least one sample per piece"
        )
    n = net.depth
    levels: dict[int, BoundarySampleSet] = {}
    boundary = enumerate_pieces(net.layers[-1], net.output)
    current = sample_shallow_boundary(boundary, n, samples_per_piece, radius, rng)
    levels[n] = current
    for k in range(n - 1, 0, -1):
        current = pull_back_boundary(net, k, current, rng, max_fibers, tol)
        levels[k] = current
    return levels

