"""The array formatter of the CSV writers against Python's ``'%.17g' %``.

``relugeom.io._g17_fields`` formats a whole float array in one pass and
must give exactly the text of ``'%.17g' % v`` for every value.  These
tests compare the two on every kind of value the formatter treats
differently, and check the float arithmetic its exactness argument
rests on.  ``pytest -m slow tests/test_io_g17.py`` runs the comparison
on 10^7 values.
"""

from __future__ import annotations

import functools
import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from relugeom.io import _EXACT_K_MIN, _G17_K_MAX, _G17_K_MIN, _G17_MAX, _G17_MIN, _g17_fields, _scaled

pytestmark = pytest.mark.skipif(sys.byteorder != "little", reason="the formatter runs on little-endian hosts only")


def g17(values: np.ndarray) -> list[str]:
    """The text ``_g17_fields`` writes for each value."""
    fields = _g17_fields(values).ravel()
    return fields[fields != 0].tobytes().decode().split(",")[1:]


def mismatches(values: np.ndarray) -> list[tuple[float, str, str]]:
    """(value, formatter text, ``%`` text) of the first values that differ."""
    got = g17(values)
    assert len(got) == len(values)
    want = ["%.17g" % v for v in values.tolist()]
    return [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w][:5]


def is_exact_tie(v: float) -> bool:
    """Rounding v to 17 significant digits is a tie: its exact decimal
    expansion has 18 significant digits, the last a 5."""
    digits = "".join(map(str, Decimal(v).as_tuple().digits)).strip("0")
    return len(digits) == 18 and digits[-1] == "5"


def exact_ties() -> np.ndarray:
    """Doubles whose 17-digit rounding is an exact tie, on both signs.

    m / 2^e with m odd has the significant digits of m * 5^e, which end
    in 5; there are 18 of them when 10^17 <= m * 5^e < 10^18, so e <= 25.
    e = 24, 25 reach k = -7, -8, where the scaling is not exact.
    """
    ties = [123456789012345.125, 2.0**-25]
    for e in range(1, 26):
        low, high = -(-(10**17) // 5**e), min((10**18 - 1) // 5**e, 2**53 - 1)
        odd = {m | 1 for m in np.linspace(low, high, 6).astype(np.int64).tolist()}
        ties += [m / 2**e for m in sorted(odd) if low <= m <= high]
    ties = np.array(ties)
    assert all(map(is_exact_tie, ties.tolist()))
    return np.concatenate([ties, -ties])


def near_ties() -> np.ndarray:
    """Doubles within 200 / 2^q of a 17-digit tie where the scaling is inexact.

    For p = 16 - k > 22 and x = m / 2^(q + p), x * 10^p = m * 5^p / 2^q;
    m = (2^(q - 1) + s) / 5^p mod 2^q puts its fraction at 1/2 + s / 2^q.
    (p, q) run over the pairs that leave room for a 53-bit m with
    10^16 <= x * 10^p < 10^17.
    """
    found = []
    for p in range(16 - _EXACT_K_MIN + 1, 16 - _G17_K_MIN + 1):
        low = math.floor(math.log2(2**52 * 5**p / 10**17))
        high = math.ceil(math.log2(2**53 * 5**p / 10**16))
        for q in range(low, high + 1):
            inverse = pow(5**p, -1, 2**q)
            for s in range(-200, 201):
                m = (2 ** (q - 1) + s) * inverse % 2**q
                if s and 2**52 <= m < 2**53 and 10**16 * 2**q <= m * 5**p < 10**17 * 2**q:
                    found.append(m / 2 ** (q + p))
    found = np.array(found)
    return np.concatenate([found, -found])


def neighbours(values: np.ndarray, steps: int = 2) -> np.ndarray:
    """``values`` and the doubles up to ``steps`` ulps on either side."""
    out, down, up = [values], values, values
    for _ in range(steps):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [down, up]
    return np.concatenate(out)


@functools.cache
def fixed_values() -> np.ndarray:
    """Powers of ten, the range ends, specials, subnormals, ties and near ties."""
    powers = np.array([float(f"1e{k}") for k in range(-100, 23)])
    ends = np.array([_G17_MIN, _G17_MAX, 2.0**53, 1e16, 1e17, 9.999999999999999e16])
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, sys.float_info.min,
                         1.7e308, -1.7e308, sys.float_info.max, 0.1, 1 / 3, 0.5, 1e-4, 1e-5])
    ties = exact_ties()
    return np.concatenate([neighbours(powers), -neighbours(powers), neighbours(ends), specials,
                           neighbours(ties, 1), near_ties()])


def hostile_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """6n random values of every magnitude and kind, with :func:`fixed_values`, shuffled."""
    parts = [
        rng.normal(size=n) * 10.0 ** rng.integers(_G17_K_MIN - 3, _G17_K_MAX + 3, size=n),
        rng.uniform(-1.0, 1.0, size=n) * 2.0 ** rng.integers(-1074, 1024, size=n).astype(float),
        rng.integers(-(10**17), 10**17, size=n).astype(float),
        np.array([2.0**53, 1e17])[rng.integers(0, 2, size=n)] + rng.integers(-4096, 4096, size=n) * 8.0,
        np.ldexp(rng.integers(1, 2**20, size=n).astype(float), rng.integers(-110, 60, size=n)),
        rng.integers(1, 10**6, size=n) / rng.integers(1, 10**6, size=n) * rng.choice([-1.0, 1.0], size=n),
    ]
    values = np.concatenate([*parts, fixed_values()])
    return values[rng.permutation(len(values))]


@pytest.mark.parametrize("seed", range(2))
def test_matches_percent_format(seed):
    values = hostile_values(np.random.default_rng(seed), 17_000)
    assert len(values) >= 100_000
    assert mismatches(values) == []


@pytest.mark.parametrize("values", [np.zeros(0), np.array([np.nan]), np.array([-0.0]), np.array([7.0])],
                         ids=["empty", "nan", "negative-zero", "one"])
def test_tiny_arrays(values):
    assert mismatches(values) == []


@pytest.mark.slow
@pytest.mark.parametrize("batch", range(10))
def test_matches_percent_format_on_ten_million_values(batch):
    for seed in range(10):
        values = hostile_values(np.random.default_rng(1000 + 10 * batch + seed), 16_667)
        assert mismatches(values) == []


def scaled_exactly(a: np.ndarray, ki: np.ndarray) -> list[Fraction]:
    """h + l - a * 10^(16 - k) for each pair, in exact arithmetic."""
    h, l = _scaled(a, ki)
    return [Fraction(hv) + Fraction(lv) - Fraction(av) * 10 ** (16 - k - _G17_K_MIN)
            for hv, lv, av, k in zip(h.tolist(), l.tolist(), a.tolist(), ki.tolist())]


def test_two_product_is_exact_where_the_power_is_a_double():
    # A platform whose float multiply is contracted or extended fails here,
    # and with it the argument that D = h + rint(l) is exact.
    rng = np.random.default_rng(17)
    ki = rng.integers(_EXACT_K_MIN - _G17_K_MIN, _G17_K_MAX - _G17_K_MIN + 1, size=10_000)
    a = rng.uniform(1.0, 10.0, size=10_000) * 10.0 ** (_G17_K_MIN + ki) * 2.0 ** rng.integers(-3, 4, size=10_000)
    assert all(error == 0 for error in scaled_exactly(a, ki))


def test_two_product_error_is_far_below_the_tie_guard_elsewhere():
    rng = np.random.default_rng(18)
    ki = rng.integers(0, _EXACT_K_MIN - _G17_K_MIN, size=10_000)
    a = rng.uniform(1.0, 10.0, size=10_000) * 10.0 ** (_G17_K_MIN + ki)
    assert max(map(abs, scaled_exactly(a, ki))) < 1e-14
