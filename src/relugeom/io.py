"""Input schemas, canonical JSON serialization, and CSV export.

Input files are JSON.  A layer spec is an object with a row-major
``matrix`` and an ``offset`` whose length equals the row count.  A
network spec chains layer specs and adds a scalar readout::

    {"layers": [{"matrix": [[...], ...], "offset": [...]}, ...],
     "output": {"weights": [...], "bias": -1.0},
     "seed": 0}

The optional ``seed`` must be an integer but is not used: sampling
commands take their seed from ``--seed``.

Reports are serialized with fixed 17-significant-digit float formatting
so identical inputs and seeds reproduce identical bytes (the wall-time
field is the one documented exception).

CSV files use one dialect: comma separators, CRLF line ends and no
quoting, with every float written as ``%.17g``.  No field ever needs
quotes: labels are piece index sets such as ``1-3-4``, or ``preimage``,
and the other fields are numbers.
"""

from __future__ import annotations

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


def parse_network_spec(obj) -> tuple[list[AffineMap], OutputLayer]:
    """Validate a network spec: chainable layers, readout, optional (unused) seed."""
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
    return affines, OutputLayer(np.array(weights), bias)


def load_json(path: str) -> tuple[Any, str]:
    """The parsed JSON file and the ``sha256:`` digest of the bytes parsed."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return json.loads(data.decode("utf-8")), "sha256:" + hashlib.sha256(data).hexdigest()
    except OSError as exc:
        raise SchemaError(f"cannot read input file: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"input is not valid JSON: {exc}") from exc


_NUMBERS = (int, float, np.integer, np.floating)


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


def _format_number(v) -> str:
    """Text of an int or a float, Python or numpy (bools excluded)."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return _format_float(float(v))


def canonical_json(obj, indent: int = 0) -> str:
    """Serialize with deterministic float formatting (17 significant digits).

    A list stays on one line when its items do and the line is at most 100
    characters; otherwise it puts one item per line.  An item's text
    depends on its indent only when it spans lines, so the items are
    serialized once, at the deeper indent, for both forms.
    """
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, _NUMBERS):
        return _format_number(obj)
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
        kinds = set(map(type, obj))
        numeric = all(issubclass(kind, _NUMBERS) and kind is not bool for kind in kinds)
        if kinds == {int}:
            items = list(map(str, obj))
        elif kinds == {float}:
            items = list(map(_format_float, obj))
        elif numeric:
            items = list(map(_format_number, obj))
        else:
            items = [canonical_json(v, indent + 1) for v in obj]
        if numeric or not any("\n" in item for item in items):
            flat = "[" + ", ".join(items) + "]"
            if len(flat) <= 100:
                return flat
        pad = "  " * (indent + 1)
        return "[\n" + pad + (",\n" + pad).join(items) + "\n" + "  " * indent + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


_CHUNK_ROWS = 1024  # CSV rows formatted per write


def _write_csv(path: str, header: list[str], row_format: str, columns: list):
    """Write ``header`` and one line per row of ``columns`` (equal-length
    lists or 1-D arrays), each line from the one ``%`` format ``row_format``.
    Rows go out ``_CHUNK_ROWS`` at a time, so no text the size of the file
    is ever built."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), _CHUNK_ROWS):
            chunk = [column[start : start + _CHUNK_ROWS] for column in columns]
            rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in chunk))
            fh.writelines(map(row_format.__mod__, rows))


def write_point_csv(path: str, labels, points, extra_columns: dict | None = None):
    """CSV of labeled points; coordinate columns are named x1..xd."""
    points = np.asarray(points, dtype=float)
    extra = extra_columns or {}
    header = ["label"] + [f"x{i}" for i in range(1, points.shape[1] + 1)] + list(extra)
    table = np.column_stack([points, *(np.asarray(column, dtype=float) for column in extra.values())])
    row_format = "%s," + ",".join(["%.17g"] * table.shape[1]) + "\r\n"
    _write_csv(path, header, row_format, [labels, *table.T])


def write_level_csv(path: str, sample_set):
    """CSV of one level's boundary samples: level, coordinates, residual, fiber."""
    points = sample_set.points
    header = ["level"] + [f"x{i}" for i in range(1, points.shape[1] + 1)] + ["residual", "fiber"]
    table = np.column_stack([points, sample_set.residuals])
    row_format = "%d," + ",".join(["%.17g"] * table.shape[1]) + ",%d\r\n"
    _write_csv(path, header, row_format, [[sample_set.level] * len(points), *table.T, sample_set.fiber])
