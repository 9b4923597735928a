"""ReLU layer evaluation, cone projection, and exact preimages.

The layer T(x) = relu(A x + b) factors through the polyhedral cone with
apex at the frame's apex point: first project onto the cone by zeroing
the negative dual-expansion coefficients, then apply the affine map.
Running the factorization backwards gives closed-form preimages: the
preimage of a codomain point y is an affine base point swept by the dual
vectors of y's zero components, with nonnegative coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ReluLayer
from .errors import DimensionMismatch, EnumerationLimit, SchemaError
from .partition import SectorIndex, graded_subsets
from .tolerances import MAX_SAMPLE_FLOATS, ZERO_COMPONENT_TOL, scaled


# The functional spelling of ``layer(x)``: T(x) = componentwise max(A x + b, 0).
evaluate = ReluLayer.__call__


def project_with_frame(layer: ReluLayer, x) -> np.ndarray:
    """Cone projection defined by the layer's dual frame.

    Expands in the dual basis, zeroes the negative coefficients, and
    resums.  Output lies in the closed cone spanned by the dual vectors
    at the apex; points already inside are fixed, the all-negative sector
    collapses to the apex.  For contracting layers the complement part is
    dropped as well, so the output lies in the row span.
    """
    lam = layer.affine(x)
    return layer.apex + np.maximum(lam, 0.0) @ layer.duals


def decompose_check(layer: ReluLayer, x) -> float:
    """Max-norm residual of the factorization T = (affine) o (cone projection).

    The contract is that this stays below tolerance for every input; it is
    the working check that the projection construction is consistent with
    the layer.
    """
    lhs = evaluate(layer, x)
    rhs = layer.affine(project_with_frame(layer, x))
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


def image_of_sector(layer: ReluLayer, s: SectorIndex) -> SectorIndex:
    """Codomain sector hit by a domain sector: the minus set is forgotten."""
    if s.d != layer.d_out:
        raise DimensionMismatch(
            f"sector indexes {s.d} hyperplanes, layer has {layer.d_out}"
        )
    return SectorIndex(s.d, s.plus_mask, 0)


@dataclass(frozen=True, eq=False)
class PreimageSet:
    """Symbolic description of the full preimage of a codomain point.

    The set is ``base - sum_{i in generator_indices} c_i a_i*`` over
    coefficients c_i >= 0, plus, for contracting layers, arbitrary shifts
    along the layer's ``complement_basis`` (the directions it ignores).
    It is never materialized; use :func:`membership_mask` or :meth:`sample`.
    """

    layer: ReluLayer
    target: np.ndarray
    base: np.ndarray
    generator_indices: tuple[int, ...]
    source_sector: SectorIndex

    @property
    def generators(self) -> np.ndarray:
        """Sweep directions, one row per generator: -a_i*."""
        idx = [i - 1 for i in self.generator_indices]
        return -self.layer.duals[idx]

    def dimension(self) -> int:
        free = self.layer.complement_basis
        return len(self.generator_indices) + (0 if free is None else free.shape[0])

    def sample(self, n: int, radius: float, *, rng: np.random.Generator) -> np.ndarray:
        """Points of the set; coefficients are Exponential(1) scaled by radius.
        Refused by :func:`refuse_draw` before any draw."""
        refuse_draw(n, radius, n * self.layer.d_in)
        points = np.tile(self.base, (n, 1))
        if self.generator_indices:
            coeffs = rng.exponential(radius, size=(n, len(self.generator_indices)))
            points = points + coeffs @ self.generators
        free = self.layer.complement_basis
        if free is not None and free.size:
            shifts = rng.normal(0.0, radius, size=(n, free.shape[0]))
            points = points + shifts @ free
        return points


def refuse_draw(samples: int, radius: float, floats: int):
    """The guard every sampler calls before it draws ``samples`` points (per
    piece, for a boundary) at ``radius``, holding ``floats`` floats: raise
    SchemaError for a negative count or a negative or non-finite radius,
    and EnumerationLimit for more than MAX_SAMPLE_FLOATS floats."""
    if samples < 0:
        raise SchemaError(f"cannot draw {samples} points")
    if not 0.0 <= radius < math.inf:
        raise SchemaError(f"the sampling radius must be a nonnegative finite number, got {radius}")
    if floats > MAX_SAMPLE_FLOATS:
        raise EnumerationLimit(
            f"--samples {samples} would hold {floats} sample coordinates at once "
            f"(limit {MAX_SAMPLE_FLOATS})"
        )


def preimage_bases(
    layer: ReluLayer, y, zero_tol: float = ZERO_COMPONENT_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clamped targets, preimage base points and zero masks of codomain rows.

    Each row of y (shape (n, d_out)) has its negative components clamped
    to 0; a component is a zero component when it is <= zero_tol.  The
    base point apex + y A* maps to the clamped row under the affine part.
    The stacked vector-matrix product rounds each row exactly like the
    one-row product ``y_i @ duals`` (a plain matrix product would not), so
    a batch gives the same bits as a row at a time.
    Rows negative beyond the zero band have empty preimages; callers
    decide which rows to pass.
    """
    y = np.asarray(y, dtype=float)
    y = np.where(y < 0.0, 0.0, y)
    bases = layer.apex + (y[:, None, :] @ layer.duals)[:, 0, :]
    return y, bases, y <= zero_tol


def preimage_of_point(
    layer: ReluLayer, y, zero_tol: float = ZERO_COMPONENT_TOL
) -> PreimageSet | None:
    """Complete preimage of a codomain point, or None when it is empty.

    Empty exactly when some component of y is negative beyond the zero
    band.  Otherwise the base point maps to y under the affine part and
    one sweep generator is added per zero component of y, so the set's
    dimension is the codimension of y's codomain sector (plus the
    complement dimension for contracting layers).
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (layer.d_out,):
        raise DimensionMismatch(
            f"target has shape {y.shape}, layer codomain dimension is {layer.d_out}"
        )
    if np.any(y < -zero_tol):
        return None
    (y,), (base,), (zero,) = preimage_bases(layer, y[None, :], zero_tol)
    zeros = tuple(int(i) + 1 for i in np.flatnonzero(zero))
    plus = tuple(int(i) + 1 for i in np.flatnonzero(~zero))
    return PreimageSet(
        layer=layer,
        target=y,
        base=base,
        generator_indices=zeros,
        source_sector=SectorIndex.of(layer.d_out, plus),
    )


def preimage_of_sector(layer: ReluLayer, j) -> list[SectorIndex]:
    """Domain sectors whose union is the preimage of codomain sector (J, {}).

    Returns the 2^(d-|J|) pairings (J, K) over subsets K of the complement,
    in the graded order of :func:`~relugeom.partition.graded_subsets`.
    """
    d = layer.d_out
    masks = graded_subsets(d) @ (1 << np.arange(d))
    j_mask = SectorIndex.of(d, j).plus_mask
    return [SectorIndex(d, j_mask, k) for k in masks[masks & j_mask == 0].tolist()]


def membership_mask(layer: ReluLayer, pre: PreimageSet, points, tol: float | None = None) -> np.ndarray:
    """Vectorized membership test for a batch of points.

    Solves for the parametric coefficients: r = A(x - base) must vanish on
    the positive components of the target and be <= 0 (coefficient >= 0)
    on the zero components.  Any complement part is unconstrained because
    the layer ignores it.
    """
    points = np.asarray(points, dtype=float)
    if tol is None:
        tol = scaled(1e-9, float(np.max(np.abs(pre.target), initial=0.0)))
    r = layer.affine(points) - pre.target
    zeros = [i - 1 for i in pre.generator_indices]
    plus = [i for i in range(layer.d_out) if (i + 1) not in pre.generator_indices]
    ok = np.ones(r.shape[:-1], dtype=bool)
    if zeros:
        ok &= np.all(r[..., zeros] <= tol, axis=-1)
    if plus:
        ok &= np.all(np.abs(r[..., plus]) <= tol, axis=-1)
    return ok
