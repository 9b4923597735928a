"""Input schemas and every output format: JSON reports, CSV and OBJ files.

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
field is the one documented exception).  A boundary report lists one
``{"J", "bounded", "recession_indices"}`` object per piece, 1-based.

CSV files use one dialect: comma separators, CRLF line ends and no
quoting, with every float written as ``%.17g``.  No field ever needs
quotes: labels are piece index sets such as ``1-3-4``, or ``preimage``,
and the other fields are numbers.  The bytes are those of Python's
``'%.17g' % v``: an exact array formatter writes each chunk of a large
table in one pass, and ``%`` itself writes small tables and every value
the formatter cannot decide: non-finite values, nonzero magnitudes
outside [2^-320, 2^56) and the near ties of its inexact range.

``classify --format csv`` prints no header and one LF-terminated line
per point: its sector's plus and minus index sets, each joined by ``|``,
then its coordinates as ``%.17g``.  An OBJ mesh is one comment line,
then per clipped piece a group ``piece_<label>`` (the CSV label), its
vertices as ``v`` lines of ``%.17g`` coordinates and a fan of ``f``
triangles from its first vertex, numbered on across the groups.

``verify`` writes one stderr line per property, ``<suite>/<name>:
<checks> checks, worst <worst> (tol <tolerance>): pass`` or ``FAIL``,
with the worst residual as ``%.3e`` and the tolerance as ``%.1e``.

Piece text is written from the grade arrays, a bounded number of pieces
per pass, never from one Python object per piece.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from functools import lru_cache
from itertools import accumulate, compress
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
_quote = json.encoder.encode_basestring_ascii


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
    serialized once, at the deeper indent, for both forms.  Floats are
    ``%.17g``, integral ones below 1e16 ``%.1f`` and non-finite ones
    ``null``; a list of exact floats, all finite and none integral, is
    written by one ``%.17g`` template.

    Values of exact type ``float``, ``str`` and ``int`` are written at
    once, and exact ``dict``, ``list`` and ``tuple`` go straight to the
    container code; strings and keys are quoted by the C encoder that
    ``json.dumps`` uses for a ``str``.  Every other value (None, bools,
    numpy scalars and arrays, subclasses) goes through ``isinstance``
    conversions first.  The bytes are those of the two-pass
    ``reference_canonical_json`` of ``tests/test_io_reference.py``.

    A callable value stands for text that its owner writes itself: it is
    emitted as ``value(indent)``, which must return the value's
    serialization at that indent (see :func:`piece_records`).  The check
    comes last, so other values pay nothing for it.
    """
    cls = type(obj)
    if cls is float:
        return _format_float(obj)
    if cls is str:
        return _quote(obj)
    if cls is int:
        return str(obj)
    if cls is not dict and cls is not list and cls is not tuple:
        if isinstance(obj, np.ndarray):
            return canonical_json(obj.tolist(), indent)
        if obj is None:
            return "null"
        if isinstance(obj, (bool, np.bool_)):
            return "true" if obj else "false"
        if isinstance(obj, _NUMBERS):
            return _format_number(obj)
        if isinstance(obj, str):
            return _quote(obj)
        if not isinstance(obj, (dict, list, tuple)):
            if callable(obj):
                return obj(indent)
            raise TypeError(f"cannot serialize {type(obj).__name__}")
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        pad = "  " * (indent + 1)
        items = [f"{pad}{_quote(str(k))}: {canonical_json(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + "  " * indent + "}"
    kinds = set(map(type, obj))
    if kinds == {float} and all(map(math.isfinite, obj)) and not any(map(float.is_integer, obj)):
        return _list_text(", ".join(["%.17g"] * len(obj)) % tuple(obj), indent)
    if all(issubclass(kind, _NUMBERS) and kind is not bool for kind in kinds):
        return _list_text(", ".join(map(_format_number, obj)), indent)
    items = [canonical_json(v, indent + 1) for v in obj]
    if not any("\n" in item for item in items):
        flat = "[" + ", ".join(items) + "]"
        if len(flat) <= 100:
            return flat
    pad = "  " * (indent + 1)
    return "[\n" + pad + (",\n" + pad).join(items) + "\n" + "  " * indent + "]"


def _list_text(text: str, indent: int) -> str:
    """The :func:`canonical_json` text of a list of numbers joined by ``", "`` in ``text``."""
    if len(text) <= 98:
        return f"[{text}]"
    pad = "  " * (indent + 1)
    return "[\n" + pad + text.replace(", ", ",\n" + pad) + "\n" + "  " * indent + "]"


def _float_rows(tables, indent: int) -> list[list[str]]:
    """The :func:`canonical_json` text, at ``indent``, of each row of each
    2-D float array of ``tables`` (equal row counts): all as ``%.17g`` in one
    pass, then the rows holding an integral or non-finite value rewritten."""
    widths, table = [t.shape[1] for t in tables], np.column_stack(tables)
    starts = np.cumsum([0, *widths[:-1]])
    if table.size >= _ARRAY_MIN_FLOATS:
        fields = _g17_fields(table.ravel()).reshape(*table.shape, 32)
        fields[:, starts, 0] = ord("\n")  # each row of each table starts a line
        text = fields[fields != 0].tobytes().decode()
    else:
        template = "".join("\n" + ",".join(["%.17g"] * w) for w in widths)
        text = "".join(map(template.__mod__, map(tuple, table.tolist())))
    texts = [_list_text(row, indent) for row in text.replace(",", ", ").split("\n")[1:]]
    plain = np.logical_and.reduceat(np.isfinite(table) & (table != np.trunc(table)), starts, axis=1)
    for i in np.flatnonzero(~plain).tolist():
        texts[i] = canonical_json(tables[i % len(tables)][i // len(tables)].tolist(), indent)
    return [texts[k :: len(tables)] for k in range(len(tables))]


def point_records(points, coefficients, plus, minus, zero, indent: int) -> str:
    """The :func:`canonical_json` text, at ``indent``, of the classify report's
    ``{"point", "sector": {"plus", "minus"}, "dimension", "coefficients",
    "on_boundary_of"}`` object per point, each from one ``%`` template."""
    slot = lambda _: "%s"  # a callable value whose text is "%s"
    record = {"point": slot, "sector": {"plus": slot, "minus": slot}, "dimension": slot, "coefficients": slot}
    template = "  " * (indent + 1) + canonical_json({**record, "on_boundary_of": slot}, indent + 1)
    names = [str(i) for i in range(1, plus.shape[1] + 1)]

    def index_lists(masks, level):
        return [_list_text(", ".join(compress(names, mask)), indent + level) for mask in masks.tolist()]

    xs, lams = _float_rows([points, coefficients], indent + 2)
    dimensions = np.count_nonzero(plus | minus, axis=1).tolist()
    rows = zip(xs, index_lists(plus, 3), index_lists(minus, 3), dimensions, lams, index_lists(zero, 2))
    return "[\n" + ",\n".join(map(template.__mod__, rows)) + "\n" + "  " * indent + "]"


def sector_csv(points, plus, minus) -> str:
    """The ``classify --format csv`` lines of ``points`` and the plus and
    minus masks of their sectors."""
    names, row = [str(i) for i in range(1, plus.shape[1] + 1)], "%s,%s" + ",%.17g" * points.shape[1] + "\n"
    rows = zip(plus.tolist(), minus.tolist(), points.tolist())
    return "".join([row % ("|".join(compress(names, p)), "|".join(compress(names, m)), *x) for p, m, x in rows])


# Pieces per pass of the writers of piece text: the temporaries of one
# pass stay at a few MB at MAX_ENUM_DIM.
_TEXT_ROWS = 16384


@lru_cache(maxsize=None)
def _index_table(separator: bytes, digits: int) -> np.ndarray:
    """Row i holds ``separator`` and the decimal of i + 1 for i up to
    10^digits - 2, NUL-padded to a power of two; the last row is empty, so
    that index -1 writes nothing.  Read-only."""
    width = 1 << (len(separator) + digits - 1).bit_length()
    texts = [separator + b"%d" % v for v in range(1, 10**digits)] + [b""]
    table = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(len(texts), width)
    table.setflags(write=False)
    return table


def _index_text(index: np.ndarray, d: int, separator: bytes, lists: int = 1) -> np.ndarray:
    """The text of an integer array ``index`` of shape (rows, lists * k),
    values in -1..d - 1, as (rows, lists, k * w) NUL-padded bytes.

    Each row is ``lists`` lists of k 0-based indices, -1 where a list has
    no more entries.  Each index i is written as ``separator`` and the
    decimal of i + 1, in a slot of w bytes, and each list drops its first
    separator: ``[[0, 2, 3, -1]]`` and ``b"-"`` write ``1-3-4``.  One
    ``take`` from a table built once per separator and digit count.
    """
    table = _index_table(separator, len(str(d)))
    text = table.take(index, axis=0).reshape(len(index), lists, -1)
    text[:, :, : len(separator)] = 0
    return text


def _piece_rows(grades):
    """The pieces of ``grades`` in piece order, at most _TEXT_ROWS at a
    time: per pass a (rows, 2d) intp array, J in the first d columns and
    the recession indices in the last d, each padded with -1, and whether
    each piece is bounded.  d is the grades' output dimension."""
    d = max((grade.layer.d_out for grade in grades), default=0)
    starts = [0, *accumulate(grade.t.shape[0] for grade in grades)]
    bounded = np.concatenate([np.zeros(0, bool), *(grade.bounded for grade in grades)])
    for start in range(0, starts[-1], _TEXT_ROWS):
        stop = min(start + _TEXT_ROWS, starts[-1])
        index = np.full((stop - start, 2 * d), -1, np.intp)
        for grade, first, end in zip(grades, starts, starts[1:]):
            lo, hi = max(first, start), min(end, stop)
            if lo < hi:
                rows, own, g = slice(lo - start, hi - start), slice(lo - first, hi - first), grade.t.shape[1]
                index[rows, :g] = grade.indices[own]
                index[rows, d : 2 * d - g] = grade.recession[own]
        yield index, bounded[start:stop]


def label_bytes(grades) -> np.ndarray:
    """The label of every piece of ``grades`` in piece order, its 1-based
    index set joined by ``-`` such as ``1-3-4``, as (pieces, width)
    NUL-padded ASCII bytes."""
    parts = []
    for index, _ in _piece_rows(grades):
        d = index.shape[1] // 2
        parts.append(_index_text(index[:, :d], d, b"-")[:, 0])
    return np.concatenate(parts) if parts else np.zeros((0, 0), np.uint8)


def text_rows(text: np.ndarray) -> list[str]:
    """Each row of (rows, width) NUL-padded ASCII bytes as a str, NULs dropped."""
    return str(_joined_rows([text, _NEWLINE], len(text)), "ascii").split("\n")[:-1]


_TRUE, _FALSE = (np.frombuffer(text, np.uint8) for text in (b"true\0", b"false"))


def piece_records(grades, indent: int) -> str:
    """The :func:`canonical_json` text, at ``indent``, of the list of one
    ``{"J", "bounded", "recession_indices"}`` object per boundary piece,
    with 1-based indices, in piece order.

    The objects always span lines and their index lists never do: at
    MAX_ENUM_DIM = 20 the longest list has 71 characters, within the flat
    limit of 100.  So each record is ``",\n"`` and the object's text in
    one line of fixed slots, NUL where unused: the index lists come from
    :func:`_index_text` of the -1-padded rows of :func:`_piece_rows`,
    ``true`` or ``false`` is chosen by mask, and each pass of rows drops
    its NULs at once.
    """
    pad, inner = "  " * (indent + 1), "  " * (indent + 2)
    head, middle, tail, end = (
        np.frombuffer(text.encode(), np.uint8)
        for text in (f',\n{pad}{{\n{inner}"J": [', f'],\n{inner}"bounded": ',
                     f',\n{inner}"recession_indices": [', f']\n{pad}}}')
    )
    texts = ["[\n"]
    for index, bounded in _piece_rows(grades):
        lists = _index_text(index, index.shape[1] // 2, b", ", 2)
        flag = np.where(bounded[:, None], _TRUE, _FALSE)
        text = _joined_rows([head, lists[:, 0], middle, flag, tail, lists[:, 1], end], len(index))
        texts.append(str(text[2 if len(texts) == 1 else 0 :], "ascii"))  # the first record follows "[\n"
    texts.append("\n" + "  " * indent + "]")
    return "".join(texts)


def _joined_rows(fields, rows: int) -> np.ndarray:
    """The bytes of ``rows`` lines, each the concatenation of one row of
    every field with every NUL dropped.  A field is a (rows, width) uint8
    array, or a 1-D one that every line repeats."""
    widths = [field.shape[-1] for field in fields]
    block = np.empty((rows, sum(widths)), np.uint8)
    start = 0
    for field, width in zip(fields, widths):
        block[:, start : start + width] = field
        start += width
    return block[block != 0]


# CSV floats formatted per write: the arrays of a larger chunk leave the
# allocator's reused memory and page-fault on every write.
_CHUNK_FLOATS = 4096
# A chunk with fewer floats is formatted row by row with ``%``, whose
# per-call cost is lower; at or above it the array formatter is faster.
# The formatter lays its words out little-endian, so elsewhere every
# chunk takes ``%``.
_ARRAY_MIN_FLOATS = 256 if sys.byteorder == "little" else math.inf

# The array formatter for ``%.17g``.  A finite |x| in [2^-320, 2^56) has a
# decimal exponent k in [-97, 16], and its 17 significant digits are the
# integer D nearest to v = |x| * 10^(16 - k), ties to even as in Python's
# dtoa.  v is formed as h + l by Dekker's two-product of |x| with the
# double-double 10^p = hi + lo, p = 16 - k.  For p <= 22, 10^p is a double
# (lo = 0), so h + l = v exactly; h is then an even integer (v > 2^53), so
# D = h + rint(l) and rint's ties to even fix D's parity.  For larger p,
# h + l is within 1e-14 of v, which decides D unless v's fraction lies
# within 2^-30 of 1/2.  Such near ties, and every value outside the range
# except zero, are formatted by ``%``.
_G17_K_MIN, _G17_K_MAX = -97, 16
_G17_MIN, _G17_MAX = 2.0**-320, 2.0**56  # 10^-97 < 2^-320, 2^56 < 10^17
_EXACT_K_MIN = 16 - 22  # 10^22 is the largest power of ten that is a double
_CODE_K_MIN = -5  # every smaller k is written like k = -5, in scientific notation
_SPLITTER = 2.0**27 + 1.0  # Veltkamp's split into two 26-bit halves


def _split(a):
    c = a * _SPLITTER
    high = c - (c - a)
    return high, a - high


def _g17_powers():
    """(hi, hi's split halves, lo) of 10^(16 - k), indexed by k - K_MIN."""
    powers = [10 ** (16 - k) for k in range(_G17_K_MIN, _G17_K_MAX + 1)]
    high = np.array([float(p) for p in powers])
    low = np.array([float(p - int(h)) for p, h in zip(powers, high.tolist())])
    return (high, *_split(high), low)


_POW10 = _g17_powers()


def _scaled(a, ki):
    """(h, l) with h = fl(v), v = a * 10^(16 - k) and ki = k - K_MIN:
    h + l = v exactly for k >= _EXACT_K_MIN, within 1e-14 below."""
    high, hh, hl, low = (np.take(table, ki) for table in _POW10)
    h = a * high
    ah, al = _split(a)
    # l = ((ah hh - h) + ah hl + al hh) + al hl + a low, left to right
    l = np.multiply(ah, hh, high)
    l -= h
    l += np.multiply(ah, hl, ah)
    l += np.multiply(al, hh, hh)
    l += np.multiply(al, hl, hl)
    l += np.multiply(a, low, low)
    return h, l


def _out_of_decade(h, l):
    """h + l outside [1e16, 1e17): the exponent k is off by one."""
    return (h < 1e16) | ((h == 1e16) & (l < 0)) | (h > 1e17) | ((h == 1e17) & (l >= 0))


def _g17_tables():
    """Lookup tables of the array formatter; see :func:`_g17_fields`.

    ``chunk[t]`` holds the four ASCII digits of t in the low 32 bits of a
    little-endian word, ``chunk_high[t]`` in the high 32.  ``last[t]`` is
    twice the position of t's last nonzero digit (1..4), -24 for t = 0.
    ``fields`` holds the two digit masks and the fixed text of each code
    (k clipped to _CODE_K_MIN..16, significant digits, sign), then of +0,
    -0 and the ``%`` fallback.  ``exponent[k - K_MIN]`` holds "e-XX" in bytes
    1..4 of the field's last word for k < -4.
    """
    t = np.arange(10000, dtype=np.int16)
    digits = (t[:, None] // np.array([1000, 100, 10, 1], np.int16) % 10 + ord("0")).astype(np.uint8)
    chunk = digits.view("<u4")[:, 0].astype(np.uint64)
    nonzero = digits != ord("0")
    last = np.where(t > 0, 2 * (4 - np.argmax(nonzero[:, ::-1], axis=1)), -24).astype(np.int8)

    grid = np.meshgrid(np.arange(_CODE_K_MIN, _G17_K_MAX + 1), np.arange(1, 18), [0, 1], indexing="ij")
    # then three more codes: +0, -0 and the fallback
    k, n, neg = (np.append(v.ravel(), extra) for v, extra in zip(grid, ([0, 0, 0], [1, 1, 1], [0, 1, 0])))
    regular = np.arange(len(k)) < len(k) - 3
    shown = np.where(k >= 0, np.maximum(n, k + 1), n) * regular  # digits written
    point = np.where(k >= 0, k + 1, np.where(k >= -4, 17, 1))  # digits before the point
    has_point = point < shown
    lead = np.where((k < 0) & (k >= -4), 1 - k, 0)  # length of "0.000"
    slot = np.arange(32)
    before = (slot >= 7) & (slot < 7 + np.minimum(point, shown)[:, None])
    after = has_point[:, None] & (slot >= 8 + point[:, None]) & (slot < 8 + shown[:, None])
    text = np.zeros((len(k), 32), np.uint8)
    text[:, 0] = ord(",")
    text[:, 1] = neg * ord("-")
    text[(slot >= 7 - lead[:, None]) & (slot < 7)] = ord("0")
    text[(slot == 8 - lead[:, None]) & (lead[:, None] > 0)] = ord(".")
    text[has_point[:, None] & (slot == 7 + point[:, None])] = ord(".")
    text[~regular, 7] = [ord("0"), ord("0"), 0]
    fields = tuple((m * np.uint8(255)).view(np.uint64) for m in (before, after))

    e = -np.arange(_G17_K_MIN, _G17_K_MAX + 1)  # minus the exponent
    scientific = e > 4
    exponent = np.zeros((len(e), 8), np.uint8)
    exponent[scientific, 1] = ord("e")
    exponent[scientific, 2] = ord("-")
    exponent[scientific, 3] = e[scientific] // 10 + ord("0")
    exponent[scientific, 4] = e[scientific] % 10 + ord("0")
    return chunk, chunk << np.uint64(32), last, (*fields, text.view(np.uint64)), exponent.view(np.uint64)[:, 0]


_CHUNK, _CHUNK_HIGH, _LAST, _FIELDS, _EXPONENT = _g17_tables()
_ZERO_CODE = len(_FIELDS[0]) - 3
_FALLBACK_CODE = _ZERO_CODE + 2
# added to 2 x the last nonzero digit of t1, t3 and t2, t4 (digits 1-4, 9-12, 5-8, 13-16)
_LAST_OFFSETS = np.array([[0], [16]], np.int8), np.array([[8], [24]], np.int8)


def _g17_fields(x: np.ndarray) -> np.ndarray:
    """``',' + '%.17g' % v`` for each v of the 1-D float array ``x``, as
    (n, 32) bytes with NUL in every unused slot.

    Slots: 0 the comma, 1 the sign, 2..6 the "0." and zeros of
    1e-4 <= |v| < 1, 7..24 the digits with the point inserted, 25..28
    the exponent.  S1 holds D's digit j at byte 7 + j and S2 one byte
    on, so (S1 & before) | (S2 & after) | text writes the digits around
    the point; the three come from ``_FIELDS`` by the code of
    (k, significant digits, sign), the exponent from ``_EXPONENT`` by k.
    S1 and S2 are built word-major, one contiguous row per 8-byte word,
    so that their word operations and the one-byte shift run on long
    rows; the fields combine them through a transposed view.
    """
    n = len(x)
    a = np.abs(x)
    fast = (a >= _G17_MIN) & (a < _G17_MAX)
    a = np.where(fast, a, 1.0)
    ki = np.floor(np.log10(a)).astype(np.intp) - _G17_K_MIN
    h, l = _scaled(a, ki)
    edge = ((h <= 1e16) | (h >= 1e17)).nonzero()[0]
    if len(edge):  # log10 rounded across a power of ten, or v is near one
        edge = edge[_out_of_decade(h[edge], l[edge])]
        ki[edge] = np.clip(ki[edge] + np.where(h[edge] > 1e16, 1, -1), 0, _G17_K_MAX - _G17_K_MIN)
        h[edge], l[edge] = _scaled(a[edge], ki[edge])
        fast[edge[_out_of_decade(h[edge], l[edge])]] = False
    r = np.rint(l)
    l -= r
    near = np.abs(l, l) >= 0.5 - 2.0**-30
    if near.any():
        fast[near & (ki < _EXACT_K_MIN - _G17_K_MIN)] = False
    d = h.astype(np.int64)
    d += r.astype(np.int64)
    carry = d == 10**17  # 9.99...95 x 10^k rounds up to 10^(k + 1)
    if carry.any():
        d[carry] = 10**16
        ki += carry
    # D's digits in chunks: t0 (one digit), then (t1, t3) and (t2, t4); a
    # remainder is a floor divide by a scalar and a multiply-subtract
    upper = d // 10**8
    t0 = upper // 10**8
    halves = np.empty((2, n), np.int64)  # digits 1-8 and 9-16
    np.subtract(upper, t0 * 10**8, out=halves[0])
    np.subtract(d, upper * 10**8, out=halves[1])
    high = halves // 10**4
    halves -= high * 10**4
    low = halves
    # in-range indices: "clip" writes straight into out, "raise" buffers it
    s1 = np.empty((4, n), np.uint64)
    np.take(_CHUNK_HIGH, t0, out=s1[0], mode="clip")
    np.take(_CHUNK, high, out=s1[1:3], mode="clip")
    s1[1:3] |= np.take(_CHUNK_HIGH, low)
    s1[3] = 0
    last = np.take(_LAST, high)
    last += _LAST_OFFSETS[0]
    last_low = np.take(_LAST, low)
    last_low += _LAST_OFFSETS[1]
    np.maximum(last, last_low, out=last)
    # 34 codes per k: 17 counts of significant digits, two signs
    code = ki - (_CODE_K_MIN - _G17_K_MIN)
    np.maximum(code, 0, out=code)
    code *= 34
    code += np.maximum(last[0], last[1])
    code += np.signbit(x)
    rest = (~fast).nonzero()[0]
    code[rest] = np.where(x[rest] == 0, _ZERO_CODE + np.signbit(x[rest]), _FALLBACK_CODE)
    s2 = s1 << np.uint64(8)
    s2[1:] |= s1[:-1] >> np.uint64(56)
    before, after, text = (np.take(table, code, axis=0) for table in _FIELDS)
    before &= s1.T
    after &= s2.T
    text |= before
    text |= after
    text[:, 3] |= np.take(_EXPONENT, ki)
    fields = text.view(np.uint8)
    rest = rest[x[rest] != 0]
    if len(rest):
        slow = np.array([("%.17g" % v).encode() for v in x[rest].tolist()], dtype="S31")
        fields[rest, 1:] = slow.view(np.uint8).reshape(len(rest), 31)
    return fields


def _text_bytes(column) -> np.ndarray:
    """(rows, width) bytes of a column of str or int, NUL-padded."""
    text = np.array(column, dtype=bytes)
    return text.view(np.uint8).reshape(len(text), text.itemsize)


def _is_text_block(labels) -> bool:
    """Whether labels are (rows, width) uint8 bytes rather than str or int."""
    return isinstance(labels, np.ndarray) and labels.dtype == np.uint8 and labels.ndim == 2


_COMMA, _CRLF, _NEWLINE = (np.frombuffer(text, np.uint8) for text in (b",", b"\r\n", b"\n"))


def _csv_rows(labels, table: np.ndarray, last) -> np.ndarray:
    """The CSV lines of one chunk, every float from :func:`_g17_fields`.

    Each line is laid out in fixed slots, NUL where unused, in one
    preallocated block, and the NULs are dropped in one pass: no field
    ever holds a NUL.
    """
    rows, cols = table.shape
    fields = [labels if _is_text_block(labels) else _text_bytes(labels)]
    fields.append(_g17_fields(table.ravel()).reshape(rows, 32 * cols))
    if last is not None:
        fields += [_COMMA, _text_bytes(last)]
    return _joined_rows([*fields, _CRLF], rows)


def _write_csv(path: str, header: list[str], labels, table: np.ndarray, last=None):
    """Write ``header``, then per row ``labels[i]``, the floats of
    ``table[i]`` as ``%.17g`` and, if given, ``last[i]``.

    Rows go out about ``_CHUNK_FLOATS`` floats at a time, so no text the
    size of the file is ever built.  ``last`` is ASCII str or int, and so
    are the labels, or they are (rows, width) NUL-padded ASCII bytes, as
    :func:`label_bytes` writes them.  Array chunks take label
    bytes as they are; ``%`` chunks take str labels as they are.
    """
    row_format = "%s" + ",%.17g" * table.shape[1] + ("" if last is None else ",%s") + "\r\n"
    step = max(1, _CHUNK_FLOATS // table.shape[1])
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, len(table), step):
            rows = slice(start, start + step)
            chunk, chunk_last = table[rows], None if last is None else last[rows]
            if chunk.size >= _ARRAY_MIN_FLOATS:
                fh.write(_csv_rows(labels[rows], chunk, chunk_last))
                continue
            chunk_labels = labels[rows]
            if _is_text_block(chunk_labels):
                chunk_labels = text_rows(chunk_labels)
            columns = [chunk_labels, *chunk.T.tolist()]
            if chunk_last is not None:
                columns.append(np.asarray(chunk_last).tolist())
            fh.write("".join(map(row_format.__mod__, zip(*columns))).encode())


def write_point_csv(path: str, labels, points, extra_columns: dict | None = None):
    """CSV of labeled points; coordinate columns are named x1..xd.  Labels
    are str, or (rows, width) NUL-padded ASCII bytes such as
    :func:`label_bytes` writes."""
    points = np.asarray(points, dtype=float)
    extra = extra_columns or {}
    header = ["label"] + [f"x{i}" for i in range(1, points.shape[1] + 1)] + list(extra)
    table = np.column_stack([points, *(np.asarray(column, dtype=float) for column in extra.values())])
    _write_csv(path, header, labels, table)


def write_level_csv(path: str, sample_set):
    """CSV of one level's boundary samples: level, coordinates, residual, fiber."""
    points = sample_set.points
    header = ["level"] + [f"x{i}" for i in range(1, points.shape[1] + 1)] + ["residual", "fiber"]
    table = np.column_stack([points, sample_set.residuals])
    _write_csv(path, header, [sample_set.level] * len(points), table, sample_set.fiber)


def verify_lines(suite) -> str:
    """The ``verify`` stderr text of a suite result, one line per property."""
    return "".join(
        f"{suite.suite}/{prop.name}: {prop.checks} checks, worst {prop.worst:.3e} "
        f"(tol {prop.tolerance:.1e}): {'pass' if prop.passed else 'FAIL'}\n"
        for prop in suite.properties
    )


def write_obj(path: str, polygons: list[tuple[str, np.ndarray]]):
    """Write labeled convex polygons as OBJ groups, one triangle fan each."""
    with open(path, "w") as fh:
        fh.write("# decision boundary pieces clipped to a box\n")
        offset = 1
        for label, poly in polygons:
            fh.write(f"g piece_{label}\n")
            for vertex in poly:
                fh.write("v " + " ".join(f"{c:.17g}" for c in vertex) + "\n")
            n = poly.shape[0]
            for i in range(1, n - 1):
                fh.write(f"f {offset} {offset + i} {offset + i + 1}\n")
            offset += n
