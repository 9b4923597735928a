"""Sector partition induced by the dual frame of a layer.

Expanding a point in the dual basis, the signs of the coefficients select
two disjoint index sets (positive and negative).  Each pair of disjoint
subsets of {1..d} names one sector; the 3^d sectors partition the domain.
The subset partial order on pairs gives closures and boundaries of
sectors without any further geometry.  :func:`graded_subsets` is the one
graded order on subsets of {1..d}, the order in which sector preimages
and boundary pieces are listed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import compress
from math import comb

import numpy as np

from .core import ReluLayer
from .errors import DimensionMismatch, EnumerationLimit
from .tolerances import DEFAULT_REL, MAX_ENUM_DIM, MAX_SECTOR_DIM


def _mask_of(indices, d: int) -> int:
    mask = 0
    for i in indices:
        i = int(i)
        if not 1 <= i <= d:
            raise ValueError(f"index {i} outside 1..{d}")
        mask |= 1 << (i - 1)
    return mask


def _indices_of(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@dataclass(frozen=True)
class SectorIndex:
    """A pairing of disjoint 1-based index subsets identifying one sector.

    Stored as bitmasks over {1..d}; bit (i-1) stands for index i.
    """

    d: int
    plus_mask: int
    minus_mask: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("sector dimension must be at least 1")
        full = (1 << self.d) - 1
        if not 0 <= self.plus_mask <= full or not 0 <= self.minus_mask <= full:
            raise ValueError("index mask outside 1..d")
        if self.plus_mask & self.minus_mask:
            raise ValueError("plus and minus index sets must be disjoint")

    @classmethod
    def of(cls, d: int, plus=(), minus=()) -> "SectorIndex":
        return cls(d, _mask_of(plus, d), _mask_of(minus, d))

    @property
    def plus(self) -> tuple[int, ...]:
        return _indices_of(self.plus_mask)

    @property
    def minus(self) -> tuple[int, ...]:
        return _indices_of(self.minus_mask)

    @property
    def support_mask(self) -> int:
        return self.plus_mask | self.minus_mask

    def dimension(self) -> int:
        return self.support_mask.bit_count()

    def to_json(self) -> dict:
        return {"plus": list(self.plus), "minus": list(self.minus)}

    def __repr__(self):
        return f"SectorIndex(d={self.d}, plus={set(self.plus) or '{}'}, minus={set(self.minus) or '{}'})"


def classify_many(layer: ReluLayer, X, zero_tol: float | None = None) -> tuple[np.ndarray, ...]:
    """Expansion coefficients of the points ``X`` (one per row) and their
    plus, minus and zero-band masks, each of shape (n, d_out).

    Coefficients within ``zero_tol`` of zero are in neither sign set,
    which places the point in the closed-form lower-dimensional sector;
    a row with a zero-band entry is numerically on a sector boundary.
    With ``zero_tol`` None each row's band is relative to its largest
    coefficient.  The stacked product gives each row the bits of
    ``layer.affine(x)``; a plain ``X @ A.T`` may round differently.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != layer.d_in:
        raise DimensionMismatch(f"points of shape {X.shape}, layer expects (n, {layer.d_in})")
    lam = (X[:, None, :] @ layer.affine.matrix.T)[:, 0, :] + layer.affine.offset
    magnitude = np.abs(lam)
    if zero_tol is None:
        zero_tol = DEFAULT_REL * (1.0 + magnitude.max(axis=1, initial=0.0, keepdims=True))
    return lam, lam > zero_tol, lam < -zero_tol, magnitude <= zero_tol


def classify(layer: ReluLayer, x, zero_tol: float | None = None) -> SectorIndex:
    """Sector of the point ``x``.

    Duality makes the row functionals the coordinate functionals: the
    expansion coefficients of ``x`` in the dual basis are exactly the
    affine image ``A x + b``.  The zero band is that of
    :func:`classify_many`, of which this is the one-point case.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch("classify expects a single point")
    _, plus, minus, _ = classify_many(layer, x[None], zero_tol)
    indices = range(1, layer.d_out + 1)
    return SectorIndex.of(layer.d_out, compress(indices, plus[0].tolist()), compress(indices, minus[0].tolist()))


def graded_subsets(d: int) -> np.ndarray:
    """Every subset of {1..d} as a bool row (column i-1 for index i),
    ordered by size and then by bitmask value, as a read-only array.

    The array of each d up to MAX_SECTOR_DIM is built once and shared by
    every call (about 0.1 MB for all of them); a larger d, up to
    MAX_ENUM_DIM, is built afresh on each call."""
    if d > MAX_ENUM_DIM:
        raise EnumerationLimit(f"refusing 2^{d} subsets (limit d={MAX_ENUM_DIM})")
    return _shared_graded_subsets(d) if d <= MAX_SECTOR_DIM else _build_graded_subsets(d)


def _build_graded_subsets(d: int) -> np.ndarray:
    member = np.arange(1 << d)[:, None] & (1 << np.arange(d)) > 0
    member = member[np.argsort(member.sum(axis=1), kind="stable")]
    member.setflags(write=False)
    return member


_shared_graded_subsets = cache(_build_graded_subsets)


def enumerate_sectors(d: int) -> list[SectorIndex]:
    """All 3^d sector pairings for index dimension ``d``.

    Output order is graded lexicographic by (dimension, plus mask, minus
    mask) and is part of the contract.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if d > MAX_SECTOR_DIM:
        raise EnumerationLimit(f"refusing to enumerate 3^{d} sectors (limit d={MAX_SECTOR_DIM})")
    # each sector over {1..i} extends to three: i+1 in neither set, in plus, in minus
    plus = minus = dim = np.zeros(1, dtype=np.int64)
    for bit in (1 << i for i in range(d)):
        plus, minus = np.concatenate([plus, plus + bit, plus]), np.concatenate([minus, minus, minus + bit])
        dim = np.concatenate([dim, dim + 1, dim + 1])
    order = np.lexsort((minus, plus, dim))
    return [SectorIndex(d, p, m) for p, m in zip(plus[order].tolist(), minus[order].tolist())]


def sector_counts(d: int) -> dict[int, int]:
    """Number of sectors of each dimension k: C(d, k) * 2^k."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    return {k: comb(d, k) * 2**k for k in range(d + 1)}


def leq(a: SectorIndex, b: SectorIndex) -> bool:
    """Partial order: both index sets of ``a`` are contained in those of ``b``.

    Sectors below ``b`` make up the closure of ``b``'s sector.
    """
    if a.d != b.d:
        raise DimensionMismatch(f"sectors have different dimensions {a.d} and {b.d}")
    return (a.plus_mask & ~b.plus_mask) == 0 and (a.minus_mask & ~b.minus_mask) == 0


def sample_sector(layer: ReluLayer, sector: SectorIndex, n: int, rng: np.random.Generator) -> np.ndarray:
    """Points in the (relative) interior of a sector.

    Coefficients are drawn bounded away from zero so the samples classify
    stably: |coefficient| = 0.1 + Exponential(1) on the support.
    """
    if sector.d != layer.d_out:
        raise DimensionMismatch(
            f"sector indexes {sector.d} hyperplanes, frame has {layer.d_out}"
        )
    lam = np.zeros((n, layer.d_out))
    for i in sector.plus:
        lam[:, i - 1] = 0.1 + rng.exponential(1.0, size=n)
    for i in sector.minus:
        lam[:, i - 1] = -(0.1 + rng.exponential(1.0, size=n))
    return layer.apex + lam @ layer.duals
