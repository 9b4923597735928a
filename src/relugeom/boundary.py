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
from functools import cached_property, lru_cache

import numpy as np

from .core import AffineMap, ReluLayer, read_only_floats
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
from .layer import refuse_draw
from .partition import graded_subsets
from .tolerances import (
    DEGENERATE_DIRECTION_REL,
    RCOND_MIN,
    WITNESS_LEVEL_REL,
    WITNESS_MAX_DIM,
    WITNESS_PATTERN_ULPS,
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


@dataclass(frozen=True, eq=False, repr=False)
class BoundaryPiece:
    """One linear piece of the boundary: row ``row`` of ``grade``.

    Points are apex + sum_{j in indices} alpha_j a_j* - sum_{i outside}
    lambda_i a_i* with alpha_j > 0 constrained by sum_j alpha_j / t_j = 1
    and lambda_i >= 0.  The piece is bounded in the simplex directions
    exactly when all its t_j are positive; the recession directions make
    it unbounded whenever the index set is proper.  The apex and the dual
    vectors a_i* are those of ``layer``.

    ``indices``, ``recession_indices``, ``bounded``, ``t`` (a read-only
    view) and ``layer`` read the grade's row, as :func:`sample_piece` reads
    the grade's operands.  A piece of other values is a row of a
    :class:`BoundaryGrade` built from them.
    """

    grade: BoundaryGrade
    row: int

    def __repr__(self) -> str:
        return f"BoundaryPiece(indices={self.indices}, row={self.row})"

    @property
    def indices(self) -> tuple[int, ...]:
        return self.grade._rows[0][self.row]

    @property
    def recession_indices(self) -> tuple[int, ...]:
        return self.grade._rows[1][self.row]

    @property
    def bounded(self) -> bool:
        return self.grade._rows[2][self.row]

    @property
    def t(self) -> np.ndarray:
        return self.grade.t[self.row]

    @property
    def layer(self) -> ReluLayer:
        return self.grade.layer


@dataclass(frozen=True, eq=False)
class SamplingOperands:
    """What :func:`sample_piece` reads of one grade, one row per piece.

    The sign order lists a row's positions in J by sign: the negative
    values first, then any zeros, then the positive values, each in
    ascending position.  ``unsort`` is its inverse, the place of each
    position of J; ``t_signed`` and ``inverse`` hold t and 1 / t in that
    order, of which a call reads 1 / t on the first k places and t on the
    last q.  ``counts`` holds, per row, the number k of negative values,
    the number q of positive ones, max |t| over the negative ones (0
    without) and whether the sign order is J order already, as on every
    piece of a canonical boundary.  ``duals`` holds each row's dual
    vectors a_j*, j in J, and ``negated_recession`` minus those of its
    recession indices.  The arrays are read-only.
    """

    unsort: np.ndarray
    t_signed: np.ndarray
    inverse: np.ndarray
    counts: tuple[tuple[int, int, float, bool], ...]
    duals: np.ndarray
    negated_recession: np.ndarray


@dataclass(frozen=True, eq=False)
class BoundaryGrade:
    """The pieces with one index-set size |J| = g, as arrays in piece order.

    Row r of ``indices`` is the 0-based index set J of one piece, row r
    of ``recession`` its recession indices and row r of ``t`` the
    intersection values on J, all read-only (a caller's writable array is
    copied); ``layer`` holds the dual frame.  Reports, CSV labels and the
    seed sampler read these arrays; piece r is ``BoundaryPiece(grade, r)``.

    Raises DimensionMismatch unless ``t`` is (pieces, g), ``indices`` has
    its shape and ``recession`` has g + h = d_out columns, or when an index
    a caller hands over is not an integer in 0..d_out - 1.  A read-only
    intp index array, as :func:`enumerate_pieces` hands over, is kept as
    it is and pays one range reduction besides the shape comparisons.
    """

    indices: np.ndarray
    recession: np.ndarray
    t: np.ndarray
    layer: ReluLayer

    def __post_init__(self):
        d = self.layer.d_out
        for name in ("indices", "recession"):
            object.__setattr__(self, name, _index_array(getattr(self, name), d, name))
        object.__setattr__(self, "t", read_only_floats(self.t))
        t, indices, recession = self.t, self.indices, self.recession
        if t.ndim != 2 or indices.shape != t.shape or recession.shape != (t.shape[0], d - t.shape[1]):
            raise DimensionMismatch(
                f"a grade of t {t.shape} needs indices of that shape and recession of shape "
                f"(pieces, {d} - g); got indices {indices.shape}, recession {recession.shape}"
            )

    @property
    def bounded(self) -> np.ndarray:
        """Per piece, whether J lies inside P = {i : t_i > 0}."""
        return (self.t > 0.0).all(axis=1)

    @cached_property
    def _rows(self) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]], list[bool]]:
        """Per row, J and the recession indices as 1-based tuples and whether the piece is bounded."""
        one_based = (list(map(tuple, (array + 1).tolist())) for array in (self.indices, self.recession))
        return (*one_based, self.bounded.tolist())

    def pieces(self) -> list[BoundaryPiece]:
        """One :class:`BoundaryPiece` per row, in piece order."""
        return [BoundaryPiece(self, row) for row in range(self.t.shape[0])]

    @cached_property
    def operands(self) -> SamplingOperands:
        """The grade's sampling operands, built by one array pass the first
        time one of its pieces is sampled.  Enumerating, tracing or
        exporting never builds them."""
        t = self.t
        negative, positive = t < 0.0, t > 0.0
        sign_order = np.argsort(np.where(negative, -1.0, positive), axis=1, kind="stable")
        unsort = np.argsort(sign_order, axis=1)
        t_signed = t[np.arange(t.shape[0])[:, None], sign_order]
        with np.errstate(divide="ignore"):  # a zero value has no draw
            inverse = 1.0 / t_signed
        t_max = -np.fmin.reduce(t, axis=1, initial=0.0)
        duals = self.layer.duals.take(self.indices, 0)
        negated_recession = -self.layer.duals.take(self.recession, 0)
        for array in (unsort, t_signed, inverse, duals, negated_recession):
            array.setflags(write=False)
        # a row is in J order exactly when sorting by sign moves no value
        in_j_order = np.logical_and.reduce(t_signed == t, axis=1)
        rows = (np.add.reduce(negative, 1), np.add.reduce(positive, 1), t_max, in_j_order)
        counts = tuple(zip(*(array.tolist() for array in rows)))
        return SamplingOperands(unsort, t_signed, inverse, counts, duals, negated_recession)


def _index_array(values, d: int, name: str) -> np.ndarray:
    """``values`` as a read-only intp array of integers in 0..d - 1.  One
    that already is read-only intp is kept as it is, after one range check:
    viewed as unsigned, a negative index is larger than any valid one."""
    if type(values) is np.ndarray and values.dtype == np.intp and not values.flags.writeable:
        if not values.size or np.maximum.reduce(values.view(np.uintp), None) < d:
            return values
    given = np.asarray(values, dtype=float)
    bad = given[~((given == np.trunc(given)) & (given >= 0.0) & (given < d))]
    if bad.size:
        raise DimensionMismatch(f"{name} must hold integers in 0..{d - 1}, got {float(bad[0])!r}")
    return read_only_floats(given, np.intp)


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

    def __post_init__(self):
        object.__setattr__(self, "scale", read_only_floats(self.scale))

    def map_indices(self, indices) -> tuple[int, ...]:
        return tuple(sorted(self.sigma[i - 1] for i in indices))


@dataclass(frozen=True, eq=False)
class DecisionBoundary:
    """Complete piecewise-linear boundary of a shallow network.

    ``layer`` holds the dual frame (the apex and the a_i*) and is the
    ``layer`` of every grade, so the samplers and the mesh take the
    boundary alone.  ``readout`` is the readout normalized to a negative
    bias; the intersection values ``t`` (t[i-1] puts apex + t_i a_i* on
    the boundary's hyperplane) and the piece structure refer to it.  ``m``
    counts the negative values.  ``grades`` holds the pieces as arrays,
    one :class:`BoundaryGrade` per |J| = 1..d in piece order, and
    ``piece_count`` their total row count.  The report, the CSV labels and
    :func:`sample_grade` read the grades alone; ``pieces`` builds one
    :class:`BoundaryPiece`, a (grade, row) pair, per row the first time it
    is read.  Each grade builds the operands that :func:`sample_piece`
    reads the first time one of its pieces is sampled.
    """

    d: int
    layer: ReluLayer
    readout: OutputLayer
    grades: tuple[BoundaryGrade, ...]
    t: np.ndarray
    m: int
    piece_count: int
    curvature: str
    canonical: CanonicalReduction

    @cached_property
    def pieces(self) -> tuple[BoundaryPiece, ...]:
        """Every piece in piece order, built from the grades on first access."""
        pieces = []
        for grade in self.grades:
            pieces += grade.pieces()
        return tuple(pieces)


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
    # every subset J, in the graded order that partition.graded_subsets defines
    member = graded_subsets(d)
    norm, t, m = _readout(layer, output)
    member = member[(member & (t > 0.0)).any(axis=1)]
    size = member.sum(axis=1)
    inside, outside = member.nonzero()[1], (~member).nonzero()[1]
    t_inside = t[inside]
    for array in (inside, outside, t_inside):
        array.setflags(write=False)
    grades, a, b = [], 0, 0
    # every grade 1..d has pieces (P is not empty); no J of grade 0 meets P
    for g, count in enumerate(np.bincount(size, minlength=d + 1).tolist()[1:], start=1):
        grade = BoundaryGrade(
            inside[a : a + count * g].reshape(count, g),
            outside[b : b + count * (d - g)].reshape(count, d - g),
            t_inside[a : a + count * g].reshape(count, g),
            layer,
        )
        grades.append(grade)
        a, b = a + count * g, b + count * (d - g)
    piece_count, expected = sum(grade.t.shape[0] for grade in grades), 2**d - 2**m
    if piece_count != expected:
        raise AssertionError(
            f"piece enumeration produced {piece_count} pieces, expected {expected}"
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
        layer=layer,
        readout=norm,
        grades=tuple(grades),
        t=t,
        m=m,
        piece_count=piece_count,
        curvature="convex" if m == 0 else "saddle",
        canonical=CanonicalReduction(
            sigma=tuple(int(i) + 1 for i in order),
            scale=scale,
            to_actual=AffineMap(matrix, layer.apex),
        ),
    )


def sample_piece(
    piece: BoundaryPiece, n: int, radius: float = 1.0, *, rng: np.random.Generator
) -> np.ndarray:
    """Random points of a boundary piece.

    The simplex constraint is sampled by a Dirichlet draw on the
    positive-value coordinates, budgeted to absorb whatever the negative
    coordinates contribute; recession coefficients are uniform in
    [0, radius].

    Opens with :func:`~relugeom.layer.refuse_draw`: SchemaError for a
    negative ``n`` and for a negative or non-finite radius, and
    EnumerationLimit when the n points would hold more than
    MAX_SAMPLE_FLOATS floats; nothing is drawn then.

    The piece's sign structure and dual vectors are read at its row of
    the :class:`SamplingOperands` of its grade, built once per grade; a
    row with no positive value raises EmptyPiece.  A call makes the two
    generator calls, one elementwise ufunc call per rounding step (each
    writing in place or into its final place), the Dirichlet sums and the
    three products; a row out of J order adds one gather.  The
    coefficients, in the sign order, go into one C-ordered (|J|, n)
    buffer, zeroed only for a zero value: those of the k negative
    coordinates into the first rows, the budgeted Dirichlet weights
    times t into the last q.  The weights are normalized and budgeted in
    place, in the draws.

    Elementwise steps round alike on any layout, but the reduction and the
    products do not, so their operand layouts are fixed: the pinned
    samples were drawn on them.  The Dirichlet sums reduce the C-ordered
    (n, q) draws along their rows.  The budget is a BLAS product of the
    first k rows of the buffer transposed, an F-ordered (n, k) operand,
    with the values 1 / t as a column: BLAS rounds a C-ordered operand
    differently.  The point product takes the (|J|, n) coefficients in J
    order, transposed, against the C-ordered (|J|, d_in) duals, then
    adds the apex and then the recession sweep.  Where the sign order is
    J order, as on every canonical piece, the coefficients are the buffer
    itself; elsewhere ``unsort`` gathers its rows in J order into a copy
    of the same layout.  A unit radius skips its multiply.

    Stream contract, unchanged by the operands: two generator calls.  One
    ``standard_exponential`` call draws the n·k coefficients of the k
    negative coordinates (scaled to Exponential(radius·max |t_neg|)) and
    then the n·(|J| − k) Gamma(1) Dirichlet weights; one ``random`` call
    draws the n·|R| recession coefficients (scaled to uniform on
    [0, radius]).  The values and the generator state equal those of the
    former exponential, gamma(1.0) and uniform(0, radius) calls, and
    :func:`sample_grade` draws the same stream piece by piece.
    """
    grade, row = piece.grade, piece.row
    apex = grade.layer.apex
    refuse_draw(n, radius, n * len(apex))
    operands = grade.operands
    k, q, t_max, in_j_order = operands.counts[row]
    if not q:
        raise EmptyPiece(f"piece {piece.indices} has no points")
    g = grade.t.shape[1]
    draws = rng.standard_exponential(n * (k + q))
    coefficients = np.empty((g, n)) if k + q == g else np.zeros((g, n))
    weights = draws[n * k :].reshape(n, q)
    np.divide(weights, np.add.reduce(weights, 1, keepdims=True), weights)
    if k:
        tail = np.multiply(draws[: n * k].reshape(n, k), radius * t_max, coefficients[:k].T)
        budget = tail.dot(operands.inverse[row, :k, None])
        np.multiply(weights, np.subtract(1.0, budget, budget), weights)
    np.multiply(weights, operands.t_signed[row, g - q :], coefficients[g - q :].T)
    if not in_j_order:
        coefficients = coefficients.take(operands.unsort[row], 0)
    points = coefficients.T.dot(operands.duals[row])
    np.add(points, apex, points)
    h = grade.recession.shape[1]
    if h:
        lam = rng.random((n, h))
        if radius != 1.0:
            np.multiply(lam, radius, lam)
        np.add(points, lam.dot(operands.negated_recession[row]), points)
    return points


def sample_grade(grade: BoundaryGrade, n: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """``n`` points of each piece of one grade, shape (pieces, n, d_in).

    Each piece makes the two generator calls of :func:`sample_piece`, in
    piece order, into preallocated rows; everything else runs in array
    passes over the pieces with equal numbers k of negative values, so the
    points equal those of :func:`sample_piece` on each piece bit for bit.

    Three steps round by their operand layouts, which are therefore those
    of :func:`sample_piece`: the Dirichlet sums reduce each piece's
    C-ordered (n, q) weights along their rows (:func:`_weight_sums`), the
    budget takes each piece's (n, k) tail as the transpose of a C-ordered
    (k, n) array (:func:`_budgets`), and the point products are stacked,
    one BLAS call per piece on its C-ordered (n, |J|) coefficients: one
    plain product over all points would round differently from d = 8 on.
    Every other step is elementwise and rounds alike on any layout.  So
    the divide by the sums, the tail scaling and the budget and t
    multiplies run on C-ordered (pieces, rows, n) arrays, whose long rows
    hold the n samples; each writes its result into its output buffer,
    and without negative values straight into the pieces' columns.  The
    apex and the recession sweep are added in place.  The sign structure
    comes from the grade's ``t`` in the same pass, not from
    :attr:`BoundaryGrade.operands`: the grade is drawn once, so filling
    the per-piece record would cost more than it saves.
    """
    (p, g), h = grade.indices.shape, grade.recession.shape[1]
    negative = grade.t < 0.0
    n_negative = negative.sum(axis=1)
    # Pieces are handled sorted by k, so each k is one slice; the draws
    # land in sorted rows, in piece order.
    order = np.argsort(n_negative, kind="stable")
    slot = np.argsort(order)
    t_j, negative = grade.t[order], negative[order]
    draws = np.empty((p, n * g))
    sweeps = np.empty((p, n * h))
    exponentials, uniforms = list(draws), list(sweeps)
    for r, s in enumerate(slot.tolist()):
        rng.standard_exponential(out=exponentials[s])
        if h:
            rng.random(out=uniforms[r])
    # each piece's coefficients as a (g, n) array, one row per index of J
    columns = np.empty((p, g, n))
    stop = 0
    for k, count in enumerate(np.bincount(n_negative).tolist()):
        if not count:
            continue
        start, stop = stop, stop + count
        group, t_k, neg_k = draws[start:stop], t_j[start:stop], negative[start:stop]
        piece_columns, q = columns[start:stop], g - k
        weights = group[:, n * k :].reshape(count, n, q)
        # without negative values the (q, n) rows are the pieces' columns
        positive = np.empty((count, q, n)) if k else piece_columns
        np.divide(weights.transpose(0, 2, 1), _weight_sums(weights)[:, None, :], positive)
        if not k:
            positive *= t_k[:, :, None]
            continue
        pos_k = ~neg_k
        t_neg = t_k[neg_k].reshape(count, k)
        scale = radius * np.maximum.reduce(np.abs(t_neg), axis=1)
        tail = group[:, : n * k].reshape(count, n, k).transpose(0, 2, 1)
        tail = np.multiply(tail, scale[:, None, None], np.empty((count, k, n)))
        positive *= _budgets(tail, t_neg)[:, None, :]
        positive *= t_k[pos_k].reshape(count, q, 1)
        piece_columns[neg_k] = tail.reshape(count * k, n)
        piece_columns[pos_k] = positive.reshape(count * q, n)
    # back in piece order, each piece's columns as a C-ordered (n, g) operand
    alphas = np.take(columns.transpose(0, 2, 1), slot, 0)
    block = alphas @ grade.layer.duals[grade.indices]
    block += grade.layer.apex
    if h:
        sweeps *= radius
        block += sweeps.reshape(p, n, h) @ -grade.layer.duals[grade.recession]
    return block


def _weight_sums(weights: np.ndarray) -> np.ndarray:
    """The Dirichlet sums of (pieces, n, q) weights, shape (pieces, n).

    Each piece's weights are a C-ordered (n, q) array, as in
    :func:`sample_piece`, and each sum is reduced along its row: a
    reduction over another axis adds the q values in another association
    and rounds differently in the last bit.
    """
    return np.add.reduce(weights, axis=2)


def _budgets(tail: np.ndarray, t_neg: np.ndarray) -> np.ndarray:
    """1 - sum_i alpha_i / t_i over the negative coordinates, (pieces, n).

    ``tail`` holds each piece's negative-coordinate coefficients as a
    contiguous (k, n) array.  :func:`sample_piece` forms the budget as a
    matrix-vector product on the transpose of the first k rows of its
    (|J|, n) buffer, a column-major operand, and BLAS rounds a row-major
    operand differently in the last bits.  So each piece's (n, k) operand
    is handed over as the transpose of its contiguous (k, n) array.
    """
    return 1.0 - (tail.transpose(0, 2, 1) @ (1.0 / t_neg)[:, :, None])[:, :, 0]


def piece_count_oracle(layer: ReluLayer, output: OutputLayer) -> int:
    """Count boundary pieces by constructing a witness point on each candidate.

    For every index subset J with a positive intersection value, builds an
    explicit solution alpha of the simplex constraint sum_J alpha_j / t_j = 1
    and its witness x = apex + alpha @ duals, runs the witness forward
    through the layer and the readout, and counts J when x lies on the zero
    level and carries exactly the activation pattern J.  Coordinate j is
    active above its rounding band r_j on (|A| |x| + |b|)_j (see
    WITNESS_PATTERN_ULPS), and the level band is WITNESS_LEVEL_REL
    (1 + |c|) plus sum_j |w_j| r_j, the rounding the rho_j carry into the
    level.  All 2^d - 1 subsets are handled in one array pass (one row
    per subset, one matmul for every forward pass), but every witness is
    still built and checked; no piece-count formula and no enumeration is
    used, so agreement with :func:`enumerate_pieces` is a genuine
    cross-check.
    Refused with EnumerationLimit above d = WITNESS_MAX_DIM.
    """
    d = layer.d_out
    if d > WITNESS_MAX_DIM:
        raise EnumerationLimit(f"refusing witness enumeration at d={d} (limit d={WITNESS_MAX_DIM})")
    norm, t, _ = _readout(layer, output)
    member = (np.arange(1, 1 << d)[:, None] >> np.arange(d)) & 1 == 1
    positive = member & (t > 0.0)
    keep = positive.any(axis=1)
    member, others = member[keep], positive[keep]
    rows = np.arange(member.shape[0])
    # Witness: tiny equal coefficients eps on J except the first positive
    # index, the lead, which absorbs the slack in the simplex constraint.
    lead = others.argmax(axis=1)
    others[rows, lead] = False
    # eps * sum_{others} 1/t_j < 1/2 keeps the lead coefficient positive.
    eps = 0.5 / (np.where(others, 1.0 / t, 0.0).sum(axis=1) + 1.0)
    alpha = np.where(member, eps[:, None], 0.0)
    alpha[rows, lead] = t[lead] * (1.0 - (alpha / t).sum(axis=1) + eps / t[lead])
    built = (alpha[rows, lead] > 0.0) & (np.abs((alpha / t).sum(axis=1) - 1.0) <= 1e-9)
    affine, x = layer.affine, layer.apex + alpha @ layer.duals
    rho = affine(x)
    level = np.maximum(rho, 0.0) @ norm.weights + norm.bias
    band = WITNESS_PATTERN_ULPS * np.finfo(float).eps / layer.conditioning
    rounding = band * (np.abs(x) @ np.abs(affine.matrix).T + np.abs(affine.offset))
    pattern = rho > rounding
    # the level carries the rounding of each rho_j, weighted by |w_j|
    on_level = np.abs(level) <= scaled(WITNESS_LEVEL_REL, abs(norm.bias)) + rounding @ np.abs(norm.weights)
    return int(np.count_nonzero(built & on_level & (pattern == member).all(axis=1)))


def sample_boundary_patterns(
    layer: ReluLayer,
    output: OutputLayer,
    rng: np.random.Generator,
    n_segments: int = 4000,
) -> set[tuple[int, ...]]:
    """Activation patterns of boundary points found as exact segment roots.

    Draws random segments around the apex in dual coordinates: each
    endpoint is apex + lambda @ duals with lambda uniform in [-r, r]^d and
    r = 3 max(max |t_i|, 1), so the draw follows the frame and reaches
    past every intersection value however the layer is conditioned.  Keeps
    the segments whose endpoints evaluate with opposite signs and finds
    the zero of the level on each exactly (:func:`_segment_roots`).  Each
    located point is labeled by its set of positive row functionals; on a
    piece's relative interior that label is the piece's index set, so the
    returned pattern set is a sampled census of the pieces.  Points too
    close to a pattern change are discarded as ambiguous.  Degenerate
    readouts are rejected as in :func:`enumerate_pieces`.
    """
    norm, t, _ = _readout(layer, output)
    d = layer.d_out
    radius = 3.0 * max(float(np.max(np.abs(t))), 1.0)
    lo = layer.apex + rng.uniform(-radius, radius, size=(n_segments, d)) @ layer.duals
    hi = layer.apex + rng.uniform(-radius, radius, size=(n_segments, d)) @ layer.duals
    rho = layer.affine(_segment_roots(layer, norm, lo, hi))
    band = scaled(1e-6, float(np.max(np.abs(rho), initial=0.0)))
    clear = rho[np.all(np.abs(rho) > band, axis=1)]
    codes = np.unique((clear > 0.0) @ (1 << np.arange(d))).tolist()
    return {tuple(i + 1 for i in range(d) if code >> i & 1) for code in codes}


def _segment_roots(layer: ReluLayer, readout: OutputLayer, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Row r of ``lo`` and ``hi`` holds the ends of segment r; of each one whose
    ends evaluate with opposite signs, a point x on it where the level
    ``readout(layer(x))`` is zero, to within four times the rounding of one
    level evaluation at the larger end, eps (|w| . (|A| max(|lo|, |hi|) + |b|) + |c|).

    Along lo + s (hi - lo) each row functional is affine in s, so the level
    is piecewise linear with kinks at s_i = alpha_i / (alpha_i - alpha'_i)
    in (0, 1), alpha at lo and alpha' at hi.  Each piece between sorted
    breakpoints [0, kinks, 1] whose ends lie on opposite sides of zero (0
    counting as negative, so a zero at a kink is found) holds one root,
    interpolated linearly.  Of several roots, the interval is halved as
    80-pass bisection halves it, keeping the half with an odd number.
    """
    weights, bias = readout.weights, readout.bias
    offset = np.tile(layer.affine.offset, (lo.shape[0], 1))
    alpha = [points @ layer.affine.matrix.T + offset for points in (lo, hi)]
    f_lo, f_hi = (np.maximum(a, 0.0) @ weights + bias for a in alpha)
    crossing = np.flatnonzero(f_lo * f_hi < 0.0)
    # a column per crossing segment: a broadcast over a short last axis costs more than the arithmetic
    (a_lo, a_hi), f_lo, f_hi = (a.T.take(crossing, axis=1) for a in alpha), f_lo[crossing], f_hi[crossing]
    del alpha, offset  # the full arrays are not read past the crossing test
    drop = a_lo - a_hi
    with np.errstate(divide="ignore", invalid="ignore"):  # no kink where the drop is 0
        kinks = a_lo / drop
    d, n = kinks.shape
    kinks = np.sort(np.where((kinks > 0.0) & (kinks < 1.0), kinks, 1.0), axis=0)  # 1: no kink
    # functional i at kink k in row i, column (k, segment); a missing kink takes the end's level
    at_kinks = (weights @ np.maximum(a_lo[:, None] - kinks * drop[:, None], 0.0).reshape(d, -1)).reshape(d, n)
    level = np.vstack([f_lo, np.where(kinks < 1.0, at_kinks + bias, f_hi), f_hi])
    s = np.vstack([np.zeros(n), kinks, np.ones(n)])
    change = np.diff(level > 0.0, axis=0)  # the pieces whose ends differ in sign
    with np.errstate(divide="ignore", invalid="ignore"):  # computed on every piece, kept on those that change
        roots = np.where(change, s[:-1] + (s[1:] - s[:-1]) * (level[:-1] / (level[:-1] - level[1:])), np.inf)
    root, several = roots.min(axis=0), np.flatnonzero(change.sum(axis=0) > 1)
    r, a, b = roots[:, several], np.zeros(len(several)), np.ones(len(several))
    for _ in range(80):
        if ((r > a) & (r <= b)).sum(axis=0).max(initial=0) < 2:
            break
        mid = 0.5 * (a + b)
        lower = ((r > a) & (r <= mid)).sum(axis=0) % 2 == 1
        a, b = np.where(lower, a, mid), np.where(lower, mid, b)
    root[several] = np.where((r > a) & (r <= b), r, np.inf).min(axis=0)
    lo = lo.take(crossing, axis=0)
    return lo + root[:, None] * (hi.take(crossing, axis=0) - lo)


def canonical_boundary(d: int, m: int) -> DecisionBoundary:
    """Boundary of the canonical network for class index m.

    Identity layer, readout with bias -1 and weights -1 on the first m
    coordinates and +1 on the rest, so the intersection values follow the
    canonical sign pattern exactly.  Up to d = WITNESS_MAX_DIM every call
    returns one shared boundary, built on the first call and immutable
    (frozen dataclasses, read-only arrays); above, each call builds its own.
    """
    if not 0 <= m <= d - 1:
        raise InvalidM(f"canonical class index {m} outside 0..{d - 1}")
    return (_canonical_boundary if d <= WITNESS_MAX_DIM else _canonical_boundary.__wrapped__)(d, m)


@lru_cache(maxsize=None)
def _canonical_boundary(d: int, m: int) -> DecisionBoundary:
    weights = np.ones(d)
    weights[:m] = -1.0
    return enumerate_pieces(ReluLayer.canonical(d), OutputLayer(weights, -1.0))
