"""Computable geometry of fully connected ReLU layers.

Dual bases and cone apexes from layer parameters, the induced sector
partition, cone projections and exact preimages, exact enumeration and
affine canonicalization of shallow-network decision boundaries, and a
sampled boundary recursion for deeper networks.  Every closed-form
result ships with a brute-force oracle (see :mod:`relugeom.verify`).

The package namespace holds the API of the README; everything else is
imported from its module (:mod:`relugeom.core`, :mod:`relugeom.partition`,
:mod:`relugeom.layer`, :mod:`relugeom.boundary`, :mod:`relugeom.network`).
"""

__version__ = "0.1.0"

from .boundary import (
    OutputLayer,
    canonical_boundary,
    enumerate_pieces,
    piece_count_oracle,
    sample_piece,
)
from .errors import (
    AllNegative,
    DegenerateBias,
    DegenerateDirection,
    DimensionMismatch,
    EmptyIntersection,
    EmptyPiece,
    EnumerationLimit,
    GeometryError,
    InvalidM,
    NotContracting,
    RankDeficient,
    SchemaError,
)
from .layer import ReluLayer, preimage_of_point
from .network import (
    BoundarySampleSet,
    ReluNetwork,
    canonical_structure,
    evaluate_canonical,
    evaluate_network,
    trace_boundary,
)
from .partition import classify, classify_many

__all__ = [
    "AllNegative",
    "BoundarySampleSet",
    "DegenerateBias",
    "DegenerateDirection",
    "DimensionMismatch",
    "EmptyIntersection",
    "EmptyPiece",
    "EnumerationLimit",
    "GeometryError",
    "InvalidM",
    "NotContracting",
    "OutputLayer",
    "RankDeficient",
    "ReluLayer",
    "ReluNetwork",
    "SchemaError",
    "canonical_boundary",
    "canonical_structure",
    "classify",
    "classify_many",
    "enumerate_pieces",
    "evaluate_canonical",
    "evaluate_network",
    "piece_count_oracle",
    "preimage_of_point",
    "sample_piece",
    "trace_boundary",
]
