"""Input schemas, canonical JSON serialization, and CSV export.

Input files are JSON.  A layer spec is an object with a row-major
``matrix`` and an ``offset`` whose length equals the row count.  A
network spec chains layer specs and adds a scalar readout::

    {"layers": [{"matrix": [[...], ...], "offset": [...]}, ...],
     "output": {"weights": [...], "bias": -1.0},
     "seed": 0}

Reports are serialized with fixed 17-significant-digit float formatting
so identical inputs and seeds reproduce identical bytes (the wall-time
field is the one documented exception).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from typing import Any

import numpy as np

from .boundary import OutputLayer
from .core import AffineMap
from .errors import SchemaError


def _require(condition: bool, message: str):
    if not condition:
        raise SchemaError(message)


def _finite_float(v) -> float | None:
    """``v`` as a float if it is a finite JSON number, else None.

    ``json.loads`` accepts NaN and Infinity, and integer literals beyond
    the float range; none of them is a valid coefficient.
    """
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return None
    try:
        x = float(v)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def _as_number_list(values, what: str) -> list[float]:
    _require(isinstance(values, list) and len(values) > 0, f"{what} must be a nonempty array")
    out = [_finite_float(v) for v in values]
    _require(None not in out, f"{what} must contain finite numbers")
    return out


def parse_layer_spec(obj) -> tuple[AffineMap, str | None]:
    """Validate a layer spec object and build its affine map."""
    _require(isinstance(obj, dict), "layer spec must be a JSON object")
    _require("matrix" in obj, "layer spec missing 'matrix'")
    _require("offset" in obj, "layer spec missing 'offset'")
    rows = obj["matrix"]
    _require(isinstance(rows, list) and len(rows) > 0, "'matrix' must be a nonempty array of rows")
    parsed_rows = [_as_number_list(r, "'matrix' row") for r in rows]
    width = len(parsed_rows[0])
    _require(all(len(r) == width for r in parsed_rows), "'matrix' rows must all have the same length")
    offset = _as_number_list(obj["offset"], "'offset'")
    _require(len(offset) == len(parsed_rows), "'offset' length must equal the matrix row count")
    name = obj.get("name")
    _require(name is None or isinstance(name, str), "'name' must be a string")
    return AffineMap(np.array(parsed_rows), np.array(offset)), name


def parse_network_spec(obj) -> tuple[list[AffineMap], OutputLayer, int]:
    """Validate a network spec: chainable layers, readout, optional seed."""
    _require(isinstance(obj, dict), "network spec must be a JSON object")
    _require("layers" in obj, "network spec missing 'layers'")
    _require(isinstance(obj["layers"], list) and len(obj["layers"]) > 0, "'layers' must be a nonempty array")
    affines = [parse_layer_spec(entry)[0] for entry in obj["layers"]]
    for k in range(1, len(affines)):
        _require(
            affines[k].d_in == affines[k - 1].d_out,
            f"layer {k + 1} expects dimension {affines[k].d_in}, layer {k} outputs {affines[k - 1].d_out}",
        )
    _require("output" in obj and isinstance(obj["output"], dict), "network spec missing 'output' object")
    out = obj["output"]
    _require("weights" in out and "bias" in out, "'output' must contain 'weights' and 'bias'")
    weights = _as_number_list(out["weights"], "'output.weights'")
    bias = _finite_float(out["bias"])
    _require(bias is not None, "'output.bias' must be a finite number")
    _require(
        len(weights) == affines[-1].d_out,
        f"'output.weights' length {len(weights)} must equal the last layer's output dimension {affines[-1].d_out}",
    )
    seed = obj.get("seed", 0)
    _require(isinstance(seed, int) and not isinstance(seed, bool), "'seed' must be an integer")
    return affines, OutputLayer(np.array(weights), bias), seed


def load_json(path: str) -> Any:
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read().decode("utf-8"))
    except OSError as exc:
        raise SchemaError(f"cannot read input file: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"input is not valid JSON: {exc}") from exc


def input_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def _format_float(x: float) -> str:
    if np.isnan(x) or np.isinf(x):
        return "null"
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


def canonical_json(obj, indent: int = 0) -> str:
    """Serialize with deterministic float formatting (17 significant digits)."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return canonical_json(obj.tolist(), indent)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        pad = "  " * (indent + 1)
        items = ",\n".join(
            f"{pad}{json.dumps(str(k))}: {canonical_json(v, indent + 1)}" for k, v in obj.items()
        )
        return "{\n" + items + "\n" + "  " * indent + "}"
    if isinstance(obj, (list, tuple)):
        inner = [canonical_json(v, indent) for v in obj]
        flat = "[" + ", ".join(inner) + "]"
        if len(flat) <= 100 and "\n" not in flat:
            return flat
        pad = "  " * (indent + 1)
        return "[\n" + ",\n".join(pad + canonical_json(v, indent + 1) for v in obj) + "\n" + "  " * indent + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_point_csv(path: str, labels, points, extra_columns: dict | None = None):
    """CSV of labeled points; coordinate columns are named x1..xd."""
    points = np.asarray(points, dtype=float)
    d = points.shape[1]
    header = ["label"] + [f"x{i}" for i in range(1, d + 1)]
    extra = extra_columns or {}
    header += list(extra.keys())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row_idx, (label, point) in enumerate(zip(labels, points)):
            row = [label] + [f"{v:.17g}" for v in point]
            row += [f"{extra[k][row_idx]:.17g}" for k in extra]
            writer.writerow(row)


def write_level_csv(path: str, sample_set):
    """CSV of one level's boundary samples: level, coordinates, residual, fiber."""
    points = sample_set.points
    d = points.shape[1]
    header = ["level"] + [f"x{i}" for i in range(1, d + 1)] + ["residual", "fiber"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for point, residual, fiber in zip(points, sample_set.residuals, sample_set.fiber.tolist()):
            writer.writerow(
                [sample_set.level]
                + [f"{v:.17g}" for v in point]
                + [f"{residual:.17g}", fiber]
            )
