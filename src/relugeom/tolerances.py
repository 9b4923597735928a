"""Shared numerical tolerances.

All checks are relative to the magnitude of the data they inspect, with an
absolute floor so that comparisons near zero stay meaningful.
"""

import numpy as np

DEFAULT_REL = 1e-9

# Absolute floor added to relative tolerances.
ABS_FLOOR = 1e-12

# Frames are rejected when the reciprocal condition estimate drops below this.
RCOND_MIN = 1e-12

# Codomain components within this band of zero count as exact zeros
# (ReLU outputs produce exact zeros, so an absolute band is appropriate).
ZERO_COMPONENT_TOL = 1e-9

# Output weights below this fraction of the largest weight are flagged as
# degenerate directions.
DEGENERATE_DIRECTION_REL = 1e-10

# A witness point counts as on the zero level of a readout with weights w
# and bias c when |level| <= this * (1 + |c|) + sum_j |w_j| r_j, with r_j
# the rounding band of rho_j (WITNESS_PATTERN_ULPS): a witness with a lead
# coefficient near 1e9 carries rounding near 1e-6 in every rho_j, which a
# band on |c| alone rejected.
WITNESS_LEVEL_REL = 1e-7

# A witness x of the piece-count oracle has active coordinate j when
# rho_j = (A x + b)_j exceeds this many eps * kappa times (|A| |x| + |b|)_j,
# the size of the terms summed into rho_j, with kappa the condition number
# of A.  Rounding in the dual frame and in the products leaves an inactive
# coordinate within about 10 eps * kappa of that size (measured for
# kappa = 1..1e8, square and contracting); a band on max_j |rho_j| instead
# swallowed small active coordinates next to a large one.
WITNESS_PATTERN_ULPS = 64

# Subset enumerations are refused above this index dimension (2^20 subsets).
MAX_ENUM_DIM = 20

# Sector enumerations are refused above this index dimension (3^12 sectors).
MAX_SECTOR_DIM = 12

# A sample draw is refused when the points it holds at once exceed this
# many floats (128 MiB): --samples times d for a preimage, times the piece
# count times d for a boundary.  The largest draw of the tests and the
# benchmark holds about 2e5.
MAX_SAMPLE_FLOATS = 2**24

# The witness oracle builds and checks one point per index subset, 2^d - 1
# rows of one array pass; it is refused above this dimension, where reports
# carry no oracle block.
WITNESS_MAX_DIM = 8


def scaled(rel: float, magnitude):
    """Tolerance proportional to ``magnitude`` with the absolute floor ABS_FLOOR;
    an array of magnitudes gives one tolerance per entry."""
    return np.maximum(rel * (1.0 + magnitude), ABS_FLOOR)
