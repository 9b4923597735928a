"""Fuzz the CLI contract: every spec ends in a documented exit code.

Hypothesis draws layer and network specs whose entries are, about half
each, standard normal values and signed powers of ten 10^e with e from
-320 (subnormal) to 308, and runs the spec-reading commands in process,
each with one numeric flag set to a drawn value: valid, out of its
domain, or not a number at all (which argparse rejects).  Whatever
the geometry and the flags, a command returns 0, 2, 3 or 4, prints
exactly one JSON object, names the returned code in an error report, and
lets no exception escape ``main``.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relugeom.cli import main

GAUSS = st.integers(0, 2**32 - 1).map(lambda seed: float(np.random.default_rng(seed).normal()))
POWER = st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]), st.integers(-320, 308))
ENTRY = st.one_of(GAUSS, POWER)
WIDTH = st.integers(1, 3)

# Flag values: valid ones first, then ones the CLI rejects with exit 2.
COUNTS = ["0", "2", "-1", "x"]
SEEDS = ["0", "7", "-1"]
REALS = ["0", "1.5", "1e308", "inf", "-1", "nan"]
BOXES = ["-3,3", "5,-5", "nan,5", "0,inf"]
FLAGS = {
    "classify": {"tol": REALS},
    "preimage": {"samples": COUNTS, "seed": SEEDS, "radius": REALS, "tol": REALS},
    "boundary": {"samples": COUNTS, "seed": SEEDS, "radius": REALS, "box": BOXES},
    "deep-boundary": {"samples": COUNTS, "seed": SEEDS, "radius": REALS, "fibers": COUNTS,
                      "level-tol": REALS},
}


def flag(command):
    """One numeric flag of ``command`` set to a drawn value."""
    return st.sampled_from([f"--{name}={v}" for name, values in FLAGS[command].items() for v in values])


FUZZ = settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def vector(n):
    return st.lists(ENTRY, min_size=n, max_size=n)


@st.composite
def layer_spec(draw, d_in=None):
    d_in = draw(WIDTH) if d_in is None else d_in
    d_out = draw(WIDTH)  # d_out > d_in draws expanding layers too
    return {"matrix": draw(st.lists(vector(d_in), min_size=d_out, max_size=d_out)),
            "offset": draw(vector(d_out))}


@st.composite
def network_spec(draw, depth):
    layers = [draw(layer_spec())]
    for _ in range(depth - 1):
        layers.append(draw(layer_spec(d_in=len(layers[-1]["matrix"]))))
    d = len(layers[-1]["matrix"])
    return {"layers": layers, "output": {"weights": draw(vector(d)), "bias": draw(ENTRY)}}


def point(values) -> str:
    return "--point=" + ",".join(repr(v) for v in values)


def assert_contract(argv, spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(spec))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([argv[0], "--input", str(path), *argv[1:]])
    assert code in (0, 2, 3, 4), (argv, spec)
    text = out.getvalue()
    body, end = json.JSONDecoder().raw_decode(text)
    assert isinstance(body, dict) and not text[end:].strip(), (argv, spec)
    if code:
        assert body["exit_code"] == code, (argv, spec)


@FUZZ
@given(data=st.data(), spec=layer_spec())
def test_layer_commands_keep_the_contract(data, spec):
    d_out, d_in = len(spec["matrix"]), len(spec["matrix"][0])
    assert_contract(["analyze"], spec)
    assert_contract(["classify", point(data.draw(vector(d_in))), data.draw(flag("classify"))], spec)
    assert_contract(
        ["preimage", point(data.draw(vector(d_out))), "--samples", "3", data.draw(flag("preimage"))], spec
    )


@FUZZ
@given(data=st.data(), shallow=network_spec(1), deep=network_spec(2))
def test_network_commands_keep_the_contract(data, shallow, deep):
    assert_contract(["boundary", "--samples", "2", data.draw(flag("boundary"))], shallow)
    for spec in (shallow, deep):
        assert_contract(
            ["deep-boundary", "--samples", "2", "--fibers", "2", data.draw(flag("deep-boundary"))], spec
        )
