"""Affine maps, and ReLU layers held as the dual frame they induce.

An affine map ``x -> A x + b`` with independent rows carries a natural
geometric structure: the rows ``a_i`` are normals of the hyperplanes
``a_i . x + b_i = 0``, the hyperplanes meet in the cone apex ``x_0``
(solution of ``A x_0 + b = 0``), and the dual vectors ``a_i*`` satisfy

    a_j . a_i* = delta_ij

so that every point expands as ``x = x_0 + sum_i lambda_i a_i*`` with
coefficients equal to the affine image ``A x + b``.

For square maps the dual vectors are the columns of the matrix inverse.
For contracting maps (fewer rows than columns) the same construction is
carried out inside the row span V, and the orthogonal complement of V is
kept alongside because the layer is invariant to it.  A ReLU layer is
its affine map together with this frame: :class:`ReluLayer`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotContracting, RankDeficient
from .tolerances import RCOND_MIN


def _as_matrix(values) -> np.ndarray:
    m = np.array(values, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"matrix must be 2-dimensional, got shape {m.shape}")
    return m


def _as_vector(values) -> np.ndarray:
    v = np.array(values, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"vector must be 1-dimensional, got shape {v.shape}")
    return v


def read_only_floats(values, dtype=float) -> np.ndarray:
    """``values`` as an array of ``dtype`` (float unless an index array
    asks for an integer type) that nobody can write to.

    A read-only ndarray of that dtype is kept as it is; anything else, a
    caller's writable array included, is copied before it is frozen, so
    freezing never reaches an array the caller still owns.
    """
    if type(values) is np.ndarray and values.dtype == dtype and not values.flags.writeable:
        return values
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class AffineMap:
    """The map ``x -> matrix @ x + offset``.

    ``matrix`` has shape (d_out, d_in), ``offset`` has length d_out.
    Instances are immutable; the stored arrays are read-only copies.
    """

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        m = _as_matrix(self.matrix)
        b = _as_vector(self.offset)
        if m.shape[0] != b.shape[0]:
            raise DimensionMismatch(
                f"matrix has {m.shape[0]} rows but offset has length {b.shape[0]}"
            )
        m.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "offset", b)

    @property
    def d_in(self) -> int:
        return self.matrix.shape[1]

    @property
    def d_out(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, x) -> np.ndarray:
        return evaluate_affine(self, x)


@dataclass(frozen=True, eq=False)
class ReluLayer:
    """The ReLU layer ``x -> relu(affine(x))``, held as its dual frame.

    ``duals`` stores the dual vectors as rows, so ``duals[i - 1]`` is a_i*,
    and ``apex`` is the cone apex.  ``conditioning`` is the reciprocal
    condition estimate of the solved system; frames close to singular are
    rejected by :func:`build_dual_frame`, the one constructor that runs
    that gate.

    For contracting layers ``row_span_basis`` and ``complement_basis`` hold
    orthonormal bases of the row span V and of V-perp.  Both are None in
    the square case.
    """

    affine: AffineMap
    apex: np.ndarray
    duals: np.ndarray
    conditioning: float
    row_span_basis: np.ndarray | None = None
    complement_basis: np.ndarray | None = None

    def __post_init__(self):
        for name in ("apex", "duals", "row_span_basis", "complement_basis"):
            arr = getattr(self, name)
            if arr is not None:
                object.__setattr__(self, name, read_only_floats(arr))

    @classmethod
    def build(cls, matrix, offset=None) -> "ReluLayer":
        matrix = np.asarray(matrix, dtype=float)
        if offset is None:
            offset = np.zeros(matrix.shape[0])
        return build_dual_frame(AffineMap(matrix, offset))

    @classmethod
    def canonical(cls, d: int) -> "ReluLayer":
        """The layer with identity matrix and zero offset."""
        return cls.build(np.eye(d))

    @property
    def d_in(self) -> int:
        return self.affine.d_in

    @property
    def d_out(self) -> int:
        return self.affine.d_out

    @property
    def is_contracting(self) -> bool:
        return self.row_span_basis is not None

    def __call__(self, x) -> np.ndarray:
        """T(x) = componentwise max(A x + b, 0)."""
        return np.maximum(self.affine(x), 0.0)


def evaluate_affine(layer: AffineMap, x) -> np.ndarray:
    """Apply ``A x + b``.

    Accepts a single point of length d_in or an array of points with the
    coordinate axis last.  A float64 ndarray is read as it is, without a
    copy; anything else is converted to float first.  The result is always
    a new array.  One point or one stack of points takes the product as
    ``dot``, the cheaper call, which rounds as ``@`` does on up to two
    axes; more axes keep ``@``, whose per-stack products ``dot`` does not
    reproduce.
    """
    if type(x) is not np.ndarray or x.dtype != np.float64:
        x = np.asarray(x, dtype=float)
    if not x.ndim or x.shape[-1] != layer.matrix.shape[1]:
        raise DimensionMismatch(
            f"point has dimension {x.shape[-1] if x.ndim else 0}, layer expects {layer.d_in}"
        )
    points = x.dot(layer.matrix.T) if x.ndim <= 2 else x @ layer.matrix.T
    points += layer.offset
    return points


def build_dual_frame(affine: AffineMap) -> ReluLayer:
    """The ReLU layer of ``affine``, with its dual frame.

    Square case: the dual vectors are the columns of the matrix inverse,
    obtained by a column-wise solve of ``A X = I`` (no explicit inverse),
    and the apex solves ``A x_0 + b = 0``.

    Contracting case (d_out < d_in): dualization runs inside the row span
    V.  Writing G = A A^T for the Gram matrix of the rows, the dual
    vectors are the rows of ``G^{-1} A`` (each lies in V and satisfies
    a_j . a_i* = delta_ij) and the apex is the least-norm solution of
    ``A x_0 = -b``, which lies in V.

    Raises RankDeficient when the reciprocal condition estimate of the
    rows falls below RCOND_MIN, when the Gram matrix leaves the float
    range, when a solve fails (the Gram matrix of rows scaled near the
    float floor is singular) or when the duals or the apex leave the float
    range, and for expanding layers (more rows than input dimensions),
    whose rows are never independent.
    """
    a = affine.matrix
    b = affine.offset
    d_out, d_in = a.shape
    if d_out > d_in:
        raise RankDeficient(
            f"expanding layer ({d_out} rows, {d_in} columns) has no dual frame"
        )

    singulars = np.linalg.svd(a, compute_uv=False)
    if singulars[0] == 0.0:
        raise RankDeficient("zero matrix has no dual frame")
    rcond = float(singulars[-1] / singulars[0])
    if not np.isfinite(rcond) or rcond < RCOND_MIN:
        raise RankDeficient(
            f"reciprocal condition estimate {rcond:.3e} below gate {RCOND_MIN:.3e}"
        )

    row_span = complement = None
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite results are rejected below
            if d_out == d_in:
                duals = np.linalg.solve(a, np.eye(d_in)).T
                apex = np.linalg.solve(a, -b)
            else:
                gram = a @ a.T
                if not np.isfinite(gram).all():
                    raise RankDeficient("Gram matrix of the rows leaves the float range")
                duals = np.linalg.solve(gram, a)
                apex = -(duals.T @ b)
                _, _, vt = np.linalg.svd(a)
                row_span, complement = vt[:d_out].copy(), vt[d_out:].copy()
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(f"dual frame solve failed: {exc}") from exc
    if not (np.isfinite(duals).all() and np.isfinite(apex).all()):
        raise RankDeficient("dual vectors or cone apex leave the float range")
    return ReluLayer(
        affine=affine,
        apex=apex,
        duals=duals,
        conditioning=rcond,
        row_span_basis=row_span,
        complement_basis=complement,
    )


def project_to_row_span(layer: ReluLayer, x) -> np.ndarray:
    """Orthogonal projection onto the row span V of a contracting layer.

    The layer map is invariant to the discarded component: T(x) equals
    T of the projection.  Square frames are rejected rather than treated
    as an identity, so accidental misuse is visible.
    """
    if layer.row_span_basis is None:
        raise NotContracting("square frame: the row span is the whole domain")
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (layer.d_in,):
        raise DimensionMismatch(
            f"point has dimension {x.shape[-1] if x.ndim else 0}, frame expects {layer.d_in}"
        )
    basis = layer.row_span_basis
    return (x @ basis.T) @ basis
