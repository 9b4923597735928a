"""Sector partition induced by a dual frame.

Expanding a point in the dual basis, the signs of the coefficients select
two disjoint index sets (positive and negative).  Each pair of disjoint
subsets of {1..d} names one sector; the 3^d sectors partition the domain.
The subset partial order on pairs gives closures and boundaries of
sectors without any further geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .core import DualFrame
from .errors import DimensionMismatch, EnumerationLimit
from .tolerances import DEFAULT_REL, MAX_ENUM_DIM


def _mask_of(indices, d: int) -> int:
    mask = 0
    for i in indices:
        i = int(i)
        if not 1 <= i <= d:
            raise ValueError(f"index {i} outside 1..{d}")
        mask |= 1 << (i - 1)
    return mask


def _indices_of(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


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

    @classmethod
    def from_json(cls, d: int, obj: dict) -> "SectorIndex":
        return cls.of(d, obj.get("plus", ()), obj.get("minus", ()))

    def __repr__(self):
        return f"SectorIndex(d={self.d}, plus={set(self.plus) or '{}'}, minus={set(self.minus) or '{}'})"


def split_by_zero_band(lam: np.ndarray, zero_tol: float | None) -> tuple[SectorIndex, tuple[int, ...]]:
    """Sector of the expansion coefficients ``lam`` and the indices in the zero band.

    Coefficients within ``zero_tol`` of zero are assigned to neither index
    set, which places the point in the closed-form lower-dimensional
    sector; their 1-based indices are returned as well, so a nonempty
    second value means the point is numerically on a sector boundary.
    With ``zero_tol`` None the band is relative to the largest coefficient.
    """
    if zero_tol is None:
        zero_tol = DEFAULT_REL * (1.0 + float(np.max(np.abs(lam), initial=0.0)))
    plus_mask = 0
    minus_mask = 0
    near_zero = []
    for i, value in enumerate(lam):
        if value > zero_tol:
            plus_mask |= 1 << i
        elif value < -zero_tol:
            minus_mask |= 1 << i
        if abs(value) <= zero_tol:
            near_zero.append(i + 1)
    return SectorIndex(len(lam), plus_mask, minus_mask), tuple(near_zero)


def classify(frame: DualFrame, x, zero_tol: float | None = None) -> SectorIndex:
    """Sector of the point ``x``.

    Duality makes the row functionals the coordinate functionals: the
    expansion coefficients of ``x`` in the dual basis are exactly the
    affine image ``A x + b``.  The zero band is that of
    :func:`split_by_zero_band`.
    """
    lam = frame.source(x)
    if lam.ndim != 1:
        raise DimensionMismatch("classify expects a single point")
    return split_by_zero_band(lam, zero_tol)[0]


def _graded_key(sector: SectorIndex):
    return (sector.dimension(), sector.plus_mask, sector.minus_mask)


def _graded_submasks(mask: int) -> list[int]:
    """Every submask of ``mask``, ordered by bit count and then by value."""
    subs = [mask]
    while subs[-1]:
        subs.append((subs[-1] - 1) & mask)
    return sorted(subs, key=lambda sub: (sub.bit_count(), sub))


def enumerate_sectors(d: int) -> list[SectorIndex]:
    """All 3^d sector pairings for index dimension ``d``.

    Output order is graded lexicographic by (dimension, plus mask, minus
    mask) and is part of the contract.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if d > MAX_ENUM_DIM:
        raise EnumerationLimit(f"refusing to enumerate 3^{d} sectors (limit d={MAX_ENUM_DIM})")
    out = [
        SectorIndex(d, plus, support & ~plus)
        for support in _graded_submasks((1 << d) - 1)
        for plus in _graded_submasks(support)
    ]
    out.sort(key=_graded_key)
    return out


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


def closure_members(s: SectorIndex) -> list[SectorIndex]:
    """All sectors below ``s``, i.e. the pieces of its topological closure."""
    out = [
        SectorIndex(s.d, plus, minus)
        for plus in _graded_submasks(s.plus_mask)
        for minus in _graded_submasks(s.minus_mask)
    ]
    out.sort(key=_graded_key)
    return out


def boundary_members(s: SectorIndex) -> list[SectorIndex]:
    """Closure members strictly below ``s``."""
    return [m for m in closure_members(s) if m != s]


def sample_sector(frame: DualFrame, sector: SectorIndex, n: int, rng: np.random.Generator) -> np.ndarray:
    """Points in the (relative) interior of a sector.

    Coefficients are drawn bounded away from zero so the samples classify
    stably: |coefficient| = 0.1 + Exponential(1) on the support.
    """
    if sector.d != frame.d_out:
        raise DimensionMismatch(
            f"sector indexes {sector.d} hyperplanes, frame has {frame.d_out}"
        )
    lam = np.zeros((n, frame.d_out))
    for i in sector.plus:
        lam[:, i - 1] = 0.1 + rng.exponential(1.0, size=n)
    for i in sector.minus:
        lam[:, i - 1] = -(0.1 + rng.exponential(1.0, size=n))
    return frame.apex + lam @ frame.duals
