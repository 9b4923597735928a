"""Exception taxonomy for the library.

Every error that a CLI input can provoke derives from GeometryError and
carries the CLI's exit code for it as ``exit_code``: 2 for a schema or
argument error (the base class's code), 3 for degenerate geometry and 4
for a resource guard.  A few checks of library arguments that no CLI
input reaches (index sets in ``partition``, levels in ``network``, the
clip box in ``mesh``) raise ValueError instead.  Three GeometryError
classes are raised only by library calls, never by a CLI input, and keep
their codes for callers that map errors the CLI's way: InvalidM
(``canonical_boundary``), EmptyPiece (sampling a hand-built grade row
with no positive value) and NotContracting (``project_to_row_span``).
"""


class GeometryError(Exception):
    """Base class for the errors of this package; exit code 2 unless a subclass says otherwise."""

    exit_code = 2


class DimensionMismatch(GeometryError):
    """Operand dimensions are incompatible with the object's shape."""


class RankDeficient(GeometryError):
    """Matrix rows are dependent beyond tolerance; the dual basis is undefined."""

    exit_code = 3


class NotContracting(GeometryError):
    """A row-span projection was requested on a square (full-rank) frame."""

    exit_code = 3


class DegenerateBias(GeometryError):
    """Output layer bias is zero, so the kernel hyperplane passes through the origin."""

    exit_code = 3


class DegenerateDirection(GeometryError):
    """An output weight vanishes; the pulled-back hyperplane is parallel to a dual line."""

    exit_code = 3


class AllNegative(GeometryError):
    """Every intersection value is negative; the decision boundary is empty."""

    exit_code = 3


class InvalidM(GeometryError):
    """Requested canonical class index is outside 0..d-1."""


class EmptyPiece(GeometryError):
    """Sampling was requested on a boundary piece with no points."""


class EmptyIntersection(GeometryError):
    """No boundary samples fall inside the nonnegative orthant at this level."""

    exit_code = 3


class EnumerationLimit(GeometryError):
    """A resource guard refused the request: an index dimension or a sample draw exceeds its limit."""

    exit_code = 4


class SchemaError(GeometryError):
    """Input file or request does not conform to the documented schema."""
