"""Exact decision boundaries of shallow ReLU networks.

A scalar readout L(y) = w . y + c applied after a ReLU layer has a
piecewise linear zero set.  Pulling the kernel hyperplane of L back
through the layer turns the boundary into one linear piece per index
subset J whose intersection values are not all negative; the piece for J
is a simplex-constrained patch swept by the dual vectors outside J.

The intersection values t_i = -c / w_i (after normalizing c < 0) say
where the kernel crosses each dual line.  Their sign pattern fixes
everything combinatorial: the number of pieces is 2^d - 2^m with m the
number of negative values, the surface is convex exactly when m = 0, and
sorting t produces an invertible affine change of variables onto the
canonical boundary with the same m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AffineMap, ReluLayer
from .errors import (
    AllNegative,
    DegenerateBias,
    DegenerateDirection,
    DimensionMismatch,
    EmptyPiece,
    EnumerationLimit,
    InvalidM,
    RankDeficient,
)
from .partition import _graded_submasks, _indices_of, _mask_of
from .tolerances import (
    DEGENERATE_DIRECTION_REL,
    MAX_ENUM_DIM,
    RCOND_MIN,
    WITNESS_LEVEL_REL,
    scaled,
)


@dataclass(frozen=True, eq=False)
class OutputLayer:
    """Scalar affine readout y -> weights . y + bias."""

    weights: np.ndarray
    bias: float

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1:
            raise DimensionMismatch(f"weights must be a vector, got shape {w.shape}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", float(self.bias))

    @property
    def d(self) -> int:
        return self.weights.shape[0]

    def __call__(self, y) -> np.ndarray | float:
        y = np.asarray(y, dtype=float)
        if y.shape[-1:] != (self.d,):
            raise DimensionMismatch(
                f"point has dimension {y.shape[-1] if y.ndim else 0}, readout expects {self.d}"
            )
        out = y @ self.weights + self.bias
        return float(out) if out.ndim == 0 else out


def normalize_output_layer(layer: OutputLayer) -> OutputLayer:
    """Flip signs if needed so the bias is negative; the zero set is unchanged."""
    if layer.bias == 0.0:
        raise DegenerateBias("zero bias: the kernel hyperplane passes through the origin")
    if layer.bias > 0.0:
        return OutputLayer(-layer.weights, -layer.bias)
    return layer


def pull_back_hyperplane(affine: AffineMap, layer: OutputLayer) -> OutputLayer:
    """The readout composed with an affine map, a scalar affine function.

    Its zero set is the readout's kernel pulled back: a point x satisfies
    ``weights . x + bias = 0`` exactly when its affine image lies on the
    kernel.
    """
    if layer.d != affine.d_out:
        raise DimensionMismatch(
            f"readout expects dimension {layer.d}, affine map outputs {affine.d_out}"
        )
    return OutputLayer(affine.matrix.T @ layer.weights, layer.weights @ affine.offset + layer.bias)


@dataclass(frozen=True, eq=False)
class BoundaryPiece:
    """One linear piece of the boundary, in parametric form.

    Points are apex + sum_{j in indices} alpha_j a_j* - sum_{i outside}
    lambda_i a_i* with alpha_j > 0 constrained by sum_j alpha_j / t_j = 1
    and lambda_i >= 0.  The piece is bounded in the simplex directions
    exactly when all its t_j are positive; the recession directions make
    it unbounded whenever the index set is proper.  The apex and the dual
    vectors a_i* are those of ``layer``.
    """

    indices: tuple[int, ...]
    t: np.ndarray
    recession_indices: tuple[int, ...]
    bounded: bool
    layer: ReluLayer

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        t.setflags(write=False)
        object.__setattr__(self, "t", t)

    @property
    def is_empty(self) -> bool:
        return len(self.indices) == 0 or not np.any(self.t > 0.0)

    def label(self) -> str:
        return "-".join(str(i) for i in self.indices)


@dataclass(frozen=True, eq=False)
class CanonicalReduction:
    """Affine change of variables onto the canonical boundary with the same m.

    ``sigma`` sorts the intersection values ascending (stable in the
    original index), ``scale`` holds their magnitudes, and ``to_actual``
    maps the canonical boundary onto the actual one, sending the canonical
    piece for J to the actual piece for sigma(J).
    """

    sigma: tuple[int, ...]
    scale: np.ndarray
    to_actual: AffineMap

    def map_indices(self, indices) -> tuple[int, ...]:
        return tuple(sorted(self.sigma[i - 1] for i in indices))


@dataclass(frozen=True, eq=False)
class DecisionBoundary:
    """Complete piecewise-linear boundary of a shallow network.

    ``readout`` is the readout normalized to a negative bias; the
    intersection values ``t`` (t[i-1] puts apex + t_i a_i* on the
    boundary's hyperplane) and the piece structure refer to it.  ``m``
    counts the negative values.
    """

    d: int
    readout: OutputLayer
    pieces: tuple[BoundaryPiece, ...]
    t: np.ndarray
    m: int
    piece_count: int
    curvature: str
    canonical: CanonicalReduction


def _readout(layer: ReluLayer, output: OutputLayer) -> tuple[OutputLayer, np.ndarray, int]:
    """Normalized readout, its intersection values t and the number m of negative ones.

    t_i = -bias / weight_i once the bias is normalized negative.  Raises, in
    this order: AllNegative when the values of all non-vanishing weights
    are negative (the boundary is empty); DegenerateDirection for weights
    below DEGENERATE_DIRECTION_REL of the largest (the hyperplane is
    parallel to a dual line) and for a t that overflows; DegenerateBias for
    a t that underflows to 0.  Every returned t is finite and nonzero.
    """
    if output.d != layer.d_out:
        raise DimensionMismatch(
            f"readout expects dimension {output.d}, layer outputs {layer.d_out}"
        )
    norm = normalize_output_layer(output)
    w = norm.weights
    live = np.abs(w) > DEGENERATE_DIRECTION_REL * float(np.max(np.abs(w), initial=0.0))
    with np.errstate(over="ignore", divide="ignore"):  # non-finite values are rejected below
        t = -norm.bias / w
    negative = t[live] < 0.0
    if negative.size and negative.all():
        raise AllNegative("all intersection values negative: the boundary is empty")
    if not live.all():
        vanishing = tuple(int(i) + 1 for i in np.flatnonzero(~live))
        raise DegenerateDirection(
            f"readout weight vanishes at indices {vanishing}; "
            "the hyperplane is parallel to the corresponding dual lines"
        )
    if not np.isfinite(t).all():
        raise DegenerateDirection("an intersection value -bias / weight overflows the float range")
    if not t.all():
        raise DegenerateBias("an intersection value -bias / weight underflows to 0")
    t.setflags(write=False)
    return norm, t, int(np.count_nonzero(negative))


def enumerate_pieces(layer: ReluLayer, output: OutputLayer) -> DecisionBoundary:
    """Enumerate every linear piece of the boundary of output o layer.

    One piece per index subset J that meets P = {i : t_i > 0}, bounded
    exactly when J lies inside P; the count always comes out to
    2^d - 2^m.

    The canonical reduction sends the i:th basis vector to
    |t_sigma(i)| a*_sigma(i), where sigma sorts the intersection values
    ascending (ties broken by original index), and the origin to the cone
    apex.  For a contracting layer it lands in the row-span slice through
    the apex; the complement directions add freely.
    """
    d = layer.d_out
    if d > MAX_ENUM_DIM:
        raise EnumerationLimit(f"refusing 2^{d} subsets (limit d={MAX_ENUM_DIM})")
    norm, t, m = _readout(layer, output)
    full = (1 << d) - 1
    positive = _mask_of(np.flatnonzero(t > 0.0) + 1, d)
    pieces = []
    for mask in _graded_submasks(full):
        if not mask & positive:
            continue
        indices = _indices_of(mask)
        pieces.append(
            BoundaryPiece(
                indices=indices,
                t=t[[i - 1 for i in indices]],
                recession_indices=_indices_of(full & ~mask),
                bounded=not mask & ~positive,
                layer=layer,
            )
        )
    expected = 2**d - 2**m
    if len(pieces) != expected:
        raise AssertionError(
            f"piece enumeration produced {len(pieces)} pieces, expected {expected}"
        )
    order = np.argsort(t, kind="stable")
    scale = np.abs(t)
    with np.errstate(over="ignore"):
        matrix = layer.duals[order].T * scale[order]
    if not np.isfinite(matrix).all():
        raise RankDeficient("canonical change of variables leaves the float range")
    singulars = np.linalg.svd(matrix, compute_uv=False)
    if singulars[0] == 0.0 or singulars[-1] / singulars[0] < RCOND_MIN:
        raise RankDeficient("canonical change of variables is numerically singular")
    return DecisionBoundary(
        d=d,
        readout=norm,
        pieces=tuple(pieces),
        t=t,
        m=m,
        piece_count=len(pieces),
        curvature="convex" if m == 0 else "saddle",
        canonical=CanonicalReduction(
            sigma=tuple(int(i) + 1 for i in order),
            scale=scale,
            to_actual=AffineMap(matrix, layer.apex),
        ),
    )


def sample_piece(
    piece: BoundaryPiece, n: int, radius: float = 1.0, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Random points of a boundary piece.

    The simplex constraint is sampled by a Dirichlet draw on the
    positive-value coordinates, budgeted to absorb whatever the negative
    coordinates contribute; recession coefficients are uniform in
    [0, radius].
    """
    if piece.is_empty:
        raise EmptyPiece(f"piece {piece.indices} has no points")
    if rng is None:
        rng = np.random.default_rng(0)
    t = piece.t
    pos = np.flatnonzero(t > 0.0)
    neg = np.flatnonzero(t < 0.0)
    alphas = np.zeros((n, len(piece.indices)))
    budget = np.ones(n)
    if neg.size:
        alphas[:, neg] = rng.exponential(radius * float(np.max(np.abs(t[neg]))), size=(n, neg.size))
        budget = 1.0 - alphas[:, neg] @ (1.0 / t[neg])
    weights = rng.gamma(1.0, size=(n, pos.size))
    weights /= weights.sum(axis=1, keepdims=True)
    alphas[:, pos] = weights * budget[:, None] * t[pos]
    duals = piece.layer.duals
    points = piece.layer.apex + alphas @ duals[[i - 1 for i in piece.indices]]
    if piece.recession_indices:
        lam = rng.uniform(0.0, radius, size=(n, len(piece.recession_indices)))
        points = points + lam @ -duals[[i - 1 for i in piece.recession_indices]]
    return points


def piece_count_oracle(layer: ReluLayer, output: OutputLayer) -> int:
    """Count boundary pieces by constructing a witness point on each candidate.

    For every index subset with a positive intersection value, builds an
    explicit solution of the simplex constraint, verifies that the witness
    really lies on the zero level of the network and carries the claimed
    activation pattern, and counts it.  No piece-count formula is used, so
    agreement with :func:`enumerate_pieces` is a genuine cross-check.
    """
    d = layer.d_out
    if d > 8:
        raise ValueError("witness enumeration is intended for d <= 8")
    norm, t, _ = _readout(layer, output)
    tol = scaled(WITNESS_LEVEL_REL, abs(norm.bias))
    count = 0
    for mask in range(1, 1 << d):
        indices = _indices_of(mask)
        idx0 = [i - 1 for i in indices]
        tj = t[idx0]
        pos = np.flatnonzero(tj > 0.0)
        if pos.size == 0:
            continue
        # Witness: tiny equal coefficients everywhere except one positive
        # coordinate that absorbs the slack in the simplex constraint.
        lead = pos[0]
        inv_sum_pos = float(np.sum(1.0 / tj[pos[1:]])) if pos.size > 1 else 0.0
        # eps * inv_sum_pos < 1/2 keeps the lead coefficient positive.
        eps = 0.5 / (inv_sum_pos + 1.0)
        alpha = np.full(len(indices), eps)
        alpha[lead] = tj[lead] * (1.0 - float(np.sum(alpha / tj)) + alpha[lead] / tj[lead])
        if alpha[lead] <= 0.0 or abs(float(np.sum(alpha / tj)) - 1.0) > 1e-9:
            continue
        x = layer.apex + alpha @ layer.duals[idx0]
        level = float(norm.weights @ layer(x) + norm.bias)
        rho = layer.affine(x)
        pattern_tol = scaled(1e-9, float(np.max(np.abs(rho))))
        pattern = tuple(i + 1 for i in range(d) if rho[i] > pattern_tol)
        if abs(level) <= tol and pattern == indices:
            count += 1
    return count


def sample_boundary_patterns(
    layer: ReluLayer,
    output: OutputLayer,
    rng: np.random.Generator,
    n_segments: int = 4000,
) -> set[tuple[int, ...]]:
    """Activation patterns of boundary points found by segment bisection.

    Draws random segments around the apex in dual coordinates: each
    endpoint is apex + lambda @ duals with lambda uniform in [-r, r]^d and
    r = 3 max(max |t_i|, 1), so the draw follows the frame and reaches
    past every intersection value however the layer is conditioned.  Keeps
    the segments whose endpoints evaluate with opposite signs, and bisects
    each 80 times toward the zero level.  Each located point is labeled by
    its set of positive row functionals; on a piece's relative interior
    that label is the piece's index set, so the returned pattern set is a
    sampled census of the pieces.  Points too close to a pattern
    change are discarded as ambiguous.  Degenerate readouts are rejected
    as in :func:`enumerate_pieces`.
    """
    norm, t, _ = _readout(layer, output)
    d = layer.d_out
    radius = 3.0 * max(float(np.max(np.abs(t))), 1.0)

    def level(points):
        return norm(layer(points))

    lo = layer.apex + rng.uniform(-radius, radius, size=(n_segments, d)) @ layer.duals
    hi = layer.apex + rng.uniform(-radius, radius, size=(n_segments, d)) @ layer.duals
    f_lo, f_hi = level(lo), level(hi)
    crossing = (f_lo * f_hi) < 0.0
    lo, hi, f_lo = lo[crossing], hi[crossing], f_lo[crossing]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        f_mid = level(mid)
        toward_hi = (f_lo * f_mid) > 0.0
        lo = np.where(toward_hi[:, None], mid, lo)
        f_lo = np.where(toward_hi, f_mid, f_lo)
        hi = np.where(toward_hi[:, None], hi, mid)
    rho = layer.affine(0.5 * (lo + hi))
    band = scaled(1e-6, float(np.max(np.abs(rho), initial=0.0)))
    clear = rho[np.all(np.abs(rho) > band, axis=1)]
    return {tuple(int(i) + 1 for i in np.flatnonzero(row)) for row in np.unique(clear > 0.0, axis=0)}


def canonical_boundary(d: int, m: int) -> DecisionBoundary:
    """Boundary of the canonical network for class index m.

    Identity layer, readout with bias -1 and weights -1 on the first m
    coordinates and +1 on the rest, so the intersection values follow the
    canonical sign pattern exactly.
    """
    if not 0 <= m <= d - 1:
        raise InvalidM(f"canonical class index {m} outside 0..{d - 1}")
    weights = np.ones(d)
    weights[:m] = -1.0
    return enumerate_pieces(ReluLayer.canonical(d), OutputLayer(weights, -1.0))

