"""The array-speed writers of ``relugeom.io`` against their reference versions.

``reference_canonical_json`` (a list serialized twice, once flat and once
one item per line), the ``csv.writer`` versions of both CSV writers, the
boundary report's piece list as one dict per piece and as one ``%``
record per piece, the piece labels as ``"-".join`` and the classify
report as one dict per point are the earlier implementations, kept here
as the definition of the bytes the library must reproduce.
"""

from __future__ import annotations

import csv
import functools
import json
import operator
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relugeom.cli as cli
import relugeom.io as rio
from relugeom.boundary import BoundaryGrade, BoundaryPiece
from relugeom.cli import main
from relugeom.core import ReluLayer
from relugeom.io import (
    _ARRAY_MIN_FLOATS,
    _CHUNK_FLOATS,
    _TEXT_ROWS,
    _index_text,
    canonical_json,
    label_bytes,
    piece_records,
    text_rows,
    write_level_csv,
    write_point_csv,
)
from relugeom.network import BoundarySampleSet
from relugeom.partition import SectorIndex, classify
from relugeom.tolerances import MAX_ENUM_DIM
from relugeom.verify import random_layer


def reference_format_float(x: float) -> str:
    if np.isnan(x) or np.isinf(x):
        return "null"
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


def reference_canonical_json(obj, indent: int = 0) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return reference_format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return reference_canonical_json(obj.tolist(), indent)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        pad = "  " * (indent + 1)
        items = ",\n".join(
            f"{pad}{json.dumps(str(k))}: {reference_canonical_json(v, indent + 1)}" for k, v in obj.items()
        )
        return "{\n" + items + "\n" + "  " * indent + "}"
    if isinstance(obj, (list, tuple)):
        inner = [reference_canonical_json(v, indent) for v in obj]
        flat = "[" + ", ".join(inner) + "]"
        if len(flat) <= 100 and "\n" not in flat:
            return flat
        pad = "  " * (indent + 1)
        return "[\n" + ",\n".join(pad + reference_canonical_json(v, indent + 1) for v in obj) + "\n" + "  " * indent + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_write_point_csv(path, labels, points, extra_columns=None):
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


def reference_write_level_csv(path, sample_set):
    points = sample_set.points
    d = points.shape[1]
    header = ["level"] + [f"x{i}" for i in range(1, d + 1)] + ["residual", "fiber"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for point, residual, fiber in zip(points, sample_set.residuals, sample_set.fiber.tolist()):
            writer.writerow([sample_set.level] + [f"{v:.17g}" for v in point] + [f"{residual:.17g}", fiber])


SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 2.0, -3.0, 1e16, 1e15, 0.1, 1 / 3,
                  np.nan, np.inf, -np.inf]


def hostile_table(rng, rows, cols):
    """Random floats of every magnitude with the special values planted."""
    table = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-320, 308, size=(rows, cols))
    integral = rng.random(size=table.shape) < 0.15
    table[integral] = rng.integers(-(10**6), 10**6, size=int(integral.sum()))
    special = rng.random(size=table.shape) < 0.3
    table[special] = rng.choice(SPECIAL_VALUES, size=int(special.sum()))
    return table


class TestCsvWritersMatchCsvModule:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("with_extra", [False, True])
    def test_point_csv(self, seed, with_extra, tmp_path):
        rng = np.random.default_rng(seed)
        # 2600 rows cross the writer's chunk boundaries
        rows, d = [0, 1, 7, 2600, 40, 1025][seed], int(rng.integers(1, 9))
        points = hostile_table(rng, rows, d)
        labels = ["-".join(map(str, sorted(rng.choice(12, size=3, replace=False) + 1))) for _ in range(rows)]
        extra = {"residual": hostile_table(rng, rows, 1)[:, 0], "other": np.arange(rows)} if with_extra else None
        write_point_csv(tmp_path / "got.csv", labels, points, extra)
        reference_write_point_csv(tmp_path / "want.csv", labels, points, extra)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_point_csv_integral_floats(self, tmp_path):
        points = np.array([[1.0, -2.0, 0.0], [1e16, -0.0, 3e20]])
        write_point_csv(tmp_path / "got.csv", ["preimage"] * 2, points)
        reference_write_point_csv(tmp_path / "want.csv", ["preimage"] * 2, points)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_level_csv(self, seed, tmp_path):
        rng = np.random.default_rng(100 + seed)
        rows, d = [0, 3, 1500, 64][seed], int(rng.integers(1, 7))
        sample_set = BoundarySampleSet(
            level=int(rng.integers(1, 5)),
            points=hostile_table(rng, rows, d),
            residuals=np.abs(hostile_table(rng, rows, 1)[:, 0]),
            parent=np.zeros(rows, dtype=int),
            fiber=rng.integers(0, 16, size=rows),
        )
        write_level_csv(tmp_path / "got.csv", sample_set)
        reference_write_level_csv(tmp_path / "want.csv", sample_set)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


LABEL = re.compile(r"^[0-9]+(-[0-9]+)*$|^preimage$")


def csv_labels(path: Path) -> list[str]:
    with open(path, newline="") as fh:
        return [row[0] for row in list(csv.reader(fh))[1:]]


@pytest.mark.parametrize(
    "argv, spec",
    [
        (["boundary", "--samples", "2", "--csv", "out.csv"],
         {"layers": [{"matrix": np.eye(11).tolist(), "offset": [0.0] * 11}],
          "output": {"weights": [1.0] * 6 + [-1.0] * 5, "bias": -1.0}}),
        (["boundary", "--samples", "3", "--csv", "out.csv"],
         {"layers": [{"matrix": [[1, 0.2, 0.5], [0.1, 1, -0.3]], "offset": [0.3, -0.2]}],
          "output": {"weights": [1, -1], "bias": 0.5}}),
        (["preimage", "--point", "0.5,0,1", "--samples", "5", "--csv", "out.csv"],
         {"matrix": np.eye(3).tolist(), "offset": [0.0, 0.0, 0.0]}),
    ],
    ids=["boundary-d11", "boundary-contracting", "preimage"],
)
def test_csv_labels_never_need_quoting(argv, spec, tmp_path, monkeypatch, capsys):
    # csv.writer quoted nothing because no label holds a comma, a quote or a line break
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert main([argv[0], "--input", "spec.json", *argv[1:]]) == 0
    capsys.readouterr()
    labels = csv_labels(tmp_path / "out.csv")
    assert labels and all(LABEL.match(label) for label in labels)


# Subclasses of types that canonical_json dispatches on by exact type
class Str(str):
    pass


class Int(int):
    pass


class Dict(dict):
    pass


class List(list):
    pass


floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e15 + 0.5, 2.0, -7.0]),
    st.integers(-(10**17), 10**17).map(float),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    floats,
    floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**62), 2**62).map(np.int64),
    st.integers(-100, 100).map(np.int32),
    st.booleans().map(np.bool_),
    st.text(alphabet=st.characters(codec="utf-8"), max_size=12),
    st.sampled_from(['say "hi"', "naïve", "∂x/∂y", "back\\slash", "new\nline"]),
    st.text(max_size=6).map(Str),
    st.integers(-(10**20), 10**20).map(Int),
)


def exact_width_list(width: int):
    """A list of ints or floats whose flat form has exactly ``width``
    characters, completed by a number or a string of the missing length."""

    def flat(items):
        return "[" + ", ".join(map(reference_canonical_json, items)) + "]"

    def complete(head, as_string):
        missing = width - len(flat(head)) - (2 if head else 0)
        out = [*head, "x" * (missing - 2) if as_string else int("9" * missing)]
        assert len(flat(out)) == width
        return out

    head = st.lists(st.one_of(st.integers(-999, 999), st.floats(-1e3, 1e3)), max_size=3)
    return st.builds(complete, head, st.booleans())


arrays = st.one_of(
    st.lists(floats, max_size=12).map(np.array),
    st.lists(st.booleans(), max_size=12).map(np.array),
    st.tuples(st.integers(0, 4), st.integers(0, 5)).flatmap(
        lambda shape: st.lists(floats, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]).map(
            lambda values: np.array(values, dtype=float).reshape(shape)
        )
    ),
    st.lists(st.integers(-1000, 1000), max_size=10).map(lambda v: np.array(v, dtype=np.int64)),
)
keys = st.one_of(st.text(max_size=6), st.text(max_size=6).map(Str), st.integers(-5, 5), st.floats(), st.booleans(),
                st.none())
documents = st.recursive(
    st.one_of(scalars, arrays, exact_width_list(100), exact_width_list(101)),
    lambda children: st.one_of(
        st.lists(children, max_size=8),
        st.lists(children, max_size=8).map(tuple),
        st.lists(children, max_size=8).map(List),
        st.dictionaries(keys, children, max_size=6),
        st.dictionaries(keys, children, max_size=6).map(Dict),
    ),
    max_leaves=30,
)


class TestCanonicalJsonMatchesTwoPassReference:
    @settings(max_examples=400, deadline=None)
    @given(documents)
    def test_bytes(self, obj):
        assert canonical_json(obj) == reference_canonical_json(obj)

    @pytest.mark.parametrize("width", [99, 100, 101, 102])
    @pytest.mark.parametrize("indent", [0, 3])
    def test_flat_form_at_the_width_limit(self, width, indent):
        # "[1, 1, ..., 1, 2...2]" of exactly ``width`` characters, alone and nested
        head = [1] * 30
        tail = int("2" * (width - 2 - 3 * len(head)))
        for obj in ([*head, tail], [*map(float, head[:10]), "x" * (width - 2 - 5 * 10 - 2)]):
            flat = json.dumps(obj)
            assert len(flat) == width
            for doc in (obj, {"k": obj}, [obj, [obj]], (obj,)):
                assert canonical_json(doc, indent) == reference_canonical_json(doc, indent)

    @pytest.mark.parametrize("width", [99, 100, 101, 102])
    @pytest.mark.parametrize("indent", [0, 3])
    def test_float_lists_at_the_width_limit(self, width, indent):
        for n in (5, 6, 8):
            obj = floats_of_width(n, width)
            assert len("[" + ", ".join(map(reference_format_float, obj)) + "]") == width
            for doc in (obj, {"k": obj}, [obj, [obj]], (obj,), np.array(obj)):
                assert canonical_json(doc, indent) == reference_canonical_json(doc, indent)

    @pytest.mark.parametrize("indent", [0, 3])
    def test_float_lists_with_values_off_the_template(self, indent):
        rng = np.random.default_rng(7)
        specials = [2.0, -7.0, 0.0, -0.0, 1e16, -1e16, 3e17, 1e15 + 0.5, np.inf, -np.inf, np.nan]
        for n in (1, 2, 5, 9):
            for special in specials:
                obj = (rng.normal(size=n) * 10.0 ** rng.integers(-5, 5, size=n)).tolist()
                obj[int(rng.integers(n))] = special
                for doc in (obj, {"k": obj}, [obj, [obj]]):
                    assert canonical_json(doc, indent) == reference_canonical_json(doc, indent)

    def test_non_integral_lists_never_reach_format_float(self, monkeypatch):
        obj = floats_of_width(6, 101)
        expected = canonical_json([obj, {"k": obj}])
        monkeypatch.setattr(rio, "_format_float", refuse_format_float)
        assert canonical_json([obj, {"k": obj}]) == expected == reference_canonical_json([obj, {"k": obj}])


def floats_of_width(n: int, width: int) -> list[float]:
    """n finite, non-integral floats whose flat list text has exactly
    ``width`` characters: items of 3 to 18 characters are 1 + 2^-k, whose
    ``%.17g`` text has k + 2, and of 19 and 20 are 1/3 and -1/3."""
    total = width - 2 - 2 * (n - 1)
    lengths = [total // n + (k < total % n) for k in range(n)]
    assert 3 <= min(lengths) and max(lengths) <= 20
    return [{19: 1 / 3, 20: -1 / 3}.get(length, 1 + 0.5 ** (length - 2)) for length in lengths]


def refuse_format_float(x):
    raise AssertionError(f"_format_float called for {x!r}")


MIXED_LABELS = ["1", "12", "1-2-3", "1-2-3-4-5-6-7-8-9-10-11-12", "preimage", "3-11"]


def rows_around_chunks(cols: int) -> list[int]:
    """Row counts on either side of the array-formatter cutover and of the
    first chunk boundaries for ``cols`` float columns, and 1023..2049."""
    cut = -(-_ARRAY_MIN_FLOATS // cols)  # fewest rows formatted by the array path
    step = _CHUNK_FLOATS // cols  # rows per chunk
    return sorted({1, cut - 1, cut, cut + 1, step - 1, step, step + 1, 2 * step + 1, 1023, 1024, 1025, 2049} - {0})


class TestCsvChunksAndCutover:
    @pytest.mark.parametrize("d, extra, labels", [(1, False, "mixed"), (3, True, "preimage"), (12, True, "mixed")])
    def test_point_csv(self, d, extra, labels, tmp_path):
        rng = np.random.default_rng(d)
        for rows in rows_around_chunks(d + extra):
            points = hostile_table(rng, rows, d)
            names = ["preimage"] * rows if labels == "preimage" else [MIXED_LABELS[i % 6] for i in range(rows)]
            columns = {"residual": np.abs(hostile_table(rng, rows, 1)[:, 0])} if extra else None
            write_point_csv(tmp_path / "got.csv", names, points, columns)
            reference_write_point_csv(tmp_path / "want.csv", names, points, columns)
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes(), rows

    @pytest.mark.parametrize("d", [1, 4, 12])
    def test_point_csv_with_label_bytes(self, d, tmp_path):
        # labels as io.label_bytes writes them, -1-padded index sets of 1..3
        # indices, through the array chunks as they are and the % chunks decoded
        rng = np.random.default_rng(70 + d)
        for rows in rows_around_chunks(d + 1):
            index = np.sort(np.argsort(rng.random((rows, 12)), axis=1)[:, :3], axis=1)
            index[np.arange(3) >= rng.integers(1, 4, size=(rows, 1))] = -1
            names = ["-".join(str(i + 1) for i in row if i >= 0) for row in index.tolist()]
            points, columns = hostile_table(rng, rows, d), {"residual": np.abs(hostile_table(rng, rows, 1)[:, 0])}
            write_point_csv(tmp_path / "got.csv", _index_text(index, 12, b"-")[:, 0], points, columns)
            reference_write_point_csv(tmp_path / "want.csv", names, points, columns)
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes(), rows

    @pytest.mark.parametrize("d", [2, 11])
    def test_level_csv(self, d, tmp_path):
        rng = np.random.default_rng(50 + d)
        for rows in rows_around_chunks(d + 1):
            sample_set = BoundarySampleSet(
                level=d % 4 + 1,
                points=hostile_table(rng, rows, d),
                residuals=np.abs(hostile_table(rng, rows, 1)[:, 0]),
                parent=np.zeros(rows, dtype=int),
                fiber=rng.integers(0, 10 ** rng.integers(1, 7, size=rows)),
            )
            write_level_csv(tmp_path / "got.csv", sample_set)
            reference_write_level_csv(tmp_path / "want.csv", sample_set)
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes(), rows


def reference_piece_dicts(t) -> list[dict]:
    """The report's piece list as the per-piece path built it: one dict per
    index set J meeting P = {i : t_i > 0}, subsets by size, then by bitmask."""
    d = len(t)
    pieces = []
    for mask in sorted(range(1, 1 << d), key=lambda mask: bin(mask).count("1")):
        inside = [i + 1 for i in range(d) if mask >> i & 1]
        if any(t[i - 1] > 0.0 for i in inside):
            outside = [i + 1 for i in range(d) if not mask >> i & 1]
            pieces.append({"J": inside, "bounded": all(t[i - 1] > 0.0 for i in inside), "recession_indices": outside})
    return pieces


def reference_label(indices) -> str:
    return "-".join(str(i) for i in indices)


def reference_piece_records(grades, indent: int) -> str:
    """The piece list as one ``%`` record per piece, each grade's records
    from one template applied to its rows."""
    pad, inner = "  " * (indent + 1), "  " * (indent + 2)
    records = []
    for grade in grades:
        g, h = grade.indices.shape[1], grade.recession.shape[1]
        head = f'{pad}{{\n{inner}"J": [{", ".join(["%d"] * g)}],\n{inner}"bounded": '
        tail = f',\n{inner}"recession_indices": [{", ".join(["%d"] * h)}]\n{pad}}}'
        templates = (head + "false" + tail, head + "true" + tail)
        rows = (np.column_stack([grade.indices, grade.recession]) + 1).tolist()
        records += map(operator.mod, map(templates.__getitem__, grade.bounded.tolist()), map(tuple, rows))
    return "[\n" + ",\n".join(records) + "\n" + "  " * indent + "]"


def boundary_spec(d_in, d_out, m, seed):
    """A layer d_in -> d_out and a readout with exactly m negative intersection values."""
    rng = np.random.default_rng(seed)
    matrix = np.eye(d_out, d_in) + 0.3 * rng.normal(size=(d_out, d_in))
    weights = rng.uniform(0.5, 2.0, d_out) * np.where(rng.permutation(d_out) < m, -1.0, 1.0)
    return {
        "layers": [{"matrix": matrix.tolist(), "offset": rng.normal(size=d_out).tolist()}],
        "output": {"weights": weights.tolist(), "bias": -1.0},
    }


def run_boundary(spec, argv, tmp_path, monkeypatch, capsys):
    """The stdout of ``boundary`` on ``spec``, the report it serialized and the boundary."""
    seen = {}
    enumerate_pieces, emit = cli.enumerate_pieces, cli._emit
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    with monkeypatch.context() as patch:
        patch.setattr(cli, "enumerate_pieces", lambda *a: seen.setdefault("boundary", enumerate_pieces(*a)))
        patch.setattr(cli, "_emit", lambda report: emit(seen.setdefault("report", report)))
        assert main(["boundary", "--input", str(path), *argv]) == 0
    return capsys.readouterr().out, seen["report"], seen["boundary"]


def assert_report_matches_piece_dicts(spec, tmp_path, monkeypatch, capsys):
    out, report, boundary = run_boundary(spec, [], tmp_path, monkeypatch, capsys)
    assert callable(report["results"]["pieces"])  # the records are written from the grades
    m = int(np.count_nonzero(boundary.t < 0.0))
    reference = {**report, "results": {**report["results"], "pieces": reference_piece_dicts(boundary.t.tolist())}}
    assert len(reference["results"]["pieces"]) == 2**boundary.d - 2**m == boundary.piece_count
    assert out.encode() == (reference_canonical_json(reference) + "\n").encode()


class TestBoundaryReportMatchesPieceDicts:
    @pytest.mark.parametrize("d", range(1, 13))
    def test_square_layers_every_m(self, d, tmp_path, monkeypatch, capsys):
        for m in range(d):
            assert_report_matches_piece_dicts(boundary_spec(d, d, m, 700 + d), tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("d_in, d_out", [(3, 2), (5, 3), (8, 6)])
    def test_contracting_layers_every_m(self, d_in, d_out, tmp_path, monkeypatch, capsys):
        for m in range(d_out):
            spec = boundary_spec(d_in, d_out, m, 800 + d_in)
            assert_report_matches_piece_dicts(spec, tmp_path, monkeypatch, capsys)

    @pytest.mark.slow
    def test_d16(self, tmp_path, monkeypatch, capsys):
        assert_report_matches_piece_dicts(boundary_spec(16, 16, 5, 716), tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("indent", [0, 1, 4])
    def test_index_lists_stay_flat_at_the_enumeration_limit(self, indent):
        # the longest index list, 1..MAX_ENUM_DIM, fits the flat form, so no
        # record of an enumerable boundary ever puts its indices one per line
        longest = list(range(1, MAX_ENUM_DIM + 1))
        assert len(json.dumps(longest)) <= 100
        d, layer = MAX_ENUM_DIM, ReluLayer.canonical(MAX_ENUM_DIM)
        full, everything = np.arange(d)[None], np.ones((1, d))
        grades = [
            BoundaryGrade(np.array([[0], [d - 1]]), np.array([range(1, d), range(d - 1)]), np.array([[1.0], [-1.0]]), layer),
            BoundaryGrade(full[:, : d // 2], full[:, d // 2 :], everything[:, : d // 2], layer),
            BoundaryGrade(full, full[:, :0], -everything, layer),
        ]
        dicts = [
            {"J": (j + 1).tolist(), "bounded": bool((t > 0.0).all()), "recession_indices": (r + 1).tolist()}
            for grade in grades
            for j, r, t in zip(grade.indices, grade.recession, grade.t)
        ]
        assert piece_records(grades, indent) == reference_canonical_json(dicts, indent)
        assert any(piece["J"] == longest for piece in dicts)


def random_grade(rng, layer, rows: int, g: int) -> BoundaryGrade:
    """``rows`` random index sets of size g (repeats allowed) with t of mixed signs."""
    d = layer.d_out
    order = np.argsort(rng.random((rows, d)), axis=1)
    inside, outside = np.sort(order[:, :g], axis=1), np.sort(order[:, g:], axis=1)
    t = rng.choice([-2.0, 0.5, 3.0], size=(rows, g), p=[0.1, 0.45, 0.45])
    return BoundaryGrade(inside, outside, t, layer)


def hand_built_grade_lists():
    """Grade lists off the enumeration's path: indices 10-19 only, g = d
    (no recession indices), one-row grades, and grades that a pass of
    _TEXT_ROWS pieces splits, alone and across a grade boundary."""
    rng = np.random.default_rng(2024)
    d, small = MAX_ENUM_DIM, ReluLayer.canonical(4)
    layer = ReluLayer.canonical(d)
    two_digit = np.arange(9, 19)  # written as 10..19
    sets = [two_digit[:7], two_digit[3:]]
    teens = BoundaryGrade(
        sets,
        [np.setdiff1d(np.arange(d), j) for j in sets],
        [[1.0] * 7, [1.0, -1.0, 2.0, 3.0, 4.0, 5.0, 6.0]],
        layer,
    )
    full = BoundaryGrade(np.arange(d)[None], np.zeros((1, 0)), -np.ones((1, d)), layer)
    return {
        "teens": [teens],
        "g equals d": [full, teens, full],
        "one-row grades": [random_grade(rng, layer, 1, g) for g in (1, 5, d - 1)],
        "d = 4": [random_grade(rng, small, 1, 2), BoundaryGrade([[0, 1, 2, 3]], np.zeros((1, 0)), [[1.0] * 4], small)],
        "longer than a pass": [random_grade(rng, layer, _TEXT_ROWS + 5, 10)],
        "split across grades": [random_grade(rng, layer, _TEXT_ROWS - 3, 3), random_grade(rng, layer, 9, 17), full],
    }


HAND_BUILT = hand_built_grade_lists()


class TestPieceRecordsMatchTemplateReference:
    @pytest.mark.parametrize("case", sorted(HAND_BUILT))
    @pytest.mark.parametrize("indent", range(4))
    def test_hand_built_grades(self, case, indent):
        grades = HAND_BUILT[case]
        assert piece_records(grades, indent) == reference_piece_records(grades, indent)

    @pytest.mark.parametrize("case", sorted(HAND_BUILT))
    def test_hand_built_labels(self, case):
        grades = HAND_BUILT[case]
        want = [reference_label(row) for grade in grades for row in (grade.indices + 1).tolist()]
        text = label_bytes(grades)
        assert [bytes(row).replace(b"\0", b"").decode() for row in text] == want
        assert text_rows(text) == want

    @pytest.mark.parametrize("d, m", [(1, 0), (3, 1), (6, 0), (9, 4), (12, 11)])
    @pytest.mark.parametrize("indent", range(4))
    def test_enumerated_grades(self, d, m, indent, tmp_path, monkeypatch, capsys):
        _, _, boundary = run_boundary(boundary_spec(d, d, m, 600 + d), [], tmp_path, monkeypatch, capsys)
        assert piece_records(boundary.grades, indent) == reference_piece_records(boundary.grades, indent)

    def test_no_grades(self):
        assert piece_records([], 2) == reference_piece_records([], 2)

    def test_index_text_drops_the_first_separator_of_each_list(self):
        text = _index_text(np.array([[0, 2, 3, -1, 11, -1, -1, -1], [-1] * 8]), 12, b", ", 2)
        assert [[bytes(part).replace(b"\0", b"") for part in row] for row in text] == [
            [b"1, 3, 4", b"12"],
            [b"", b""],
        ]

    @pytest.mark.slow
    def test_d18_report(self, tmp_path, monkeypatch, capsys):
        out, report, boundary = run_boundary(boundary_spec(18, 18, 7, 718), [], tmp_path, monkeypatch, capsys)
        assert boundary.piece_count == 2**18 - 2**7
        results = {**report["results"], "pieces": functools.partial(reference_piece_records, boundary.grades)}
        assert out == canonical_json({**report, "results": results}) + "\n"


class TestBoundaryExportBuildsNoObjectPerPiece:
    """The report and the CSV are written from the grade arrays, as the
    witness oracle is kept from the enumeration (test_oracle_independence)."""

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("one Python object per piece")

    def test_csv_export(self, tmp_path, monkeypatch, capsys):
        grade = BoundaryGrade([[0]], [[1]], [[1.0]], ReluLayer.canonical(2))
        with monkeypatch.context() as patch:
            patch.setattr(BoundaryPiece, "__init__", self.refuse)
            patch.setattr(BoundaryGrade, "_rows", property(self.refuse))
            for built in (grade.pieces, lambda: grade._rows):
                with pytest.raises(AssertionError, match="one Python object per piece"):
                    built()
            csv_path = tmp_path / "out.csv"
            argv = ["--samples", "2", "--csv", str(csv_path)]
            out, _, boundary = run_boundary(boundary_spec(8, 8, 3, 908), argv, tmp_path, monkeypatch, capsys)
        assert json.loads(out)["results"]["piece_count"] == boundary.piece_count == 2**8 - 2**3
        labels = csv_labels(csv_path)
        assert labels == [reference_label(row) for grade in boundary.grades for row in (grade.indices + 1).tolist() for _ in range(2)]


class TestCsvLabelsArePieceLabels:
    @pytest.mark.parametrize("d", range(2, 13))
    def test_every_row(self, d, tmp_path, monkeypatch, capsys):
        for m in sorted({0, d // 2, d - 1}):
            csv_path = tmp_path / "out.csv"
            argv = ["--samples", "2", "--csv", str(csv_path)]
            _, _, boundary = run_boundary(boundary_spec(d, d, m, 900 + d), argv, tmp_path, monkeypatch, capsys)
            labels = [reference_label(piece.indices) for piece in boundary.pieces for _ in range(2)]
            assert csv_labels(csv_path) == labels


def reference_split_by_zero_band(lam, zero_tol):
    """The sector of one point's coefficients and the 1-based indices in the zero band, one coefficient at a time."""
    if zero_tol is None:
        zero_tol = 1e-9 * (1.0 + float(np.max(np.abs(lam), initial=0.0)))
    plus_mask = minus_mask = 0
    near_zero = []
    for i, value in enumerate(lam):
        if value > zero_tol:
            plus_mask |= 1 << i
        elif value < -zero_tol:
            minus_mask |= 1 << i
        if abs(value) <= zero_tol:
            near_zero.append(i + 1)
    return SectorIndex(len(lam), plus_mask, minus_mask), near_zero


def reference_classify_rows(layer, points, zero_tol):
    rows = []
    for x in points:
        lam = layer.affine(x)
        sector, near_zero = reference_split_by_zero_band(lam, zero_tol)
        rows.append(
            {"point": x, "sector": sector.to_json(), "dimension": sector.dimension(), "coefficients": lam,
             "on_boundary_of": near_zero}
        )
    return rows


def face_points(layer, rng, n=16):
    """Points near the apex, every fourth moved onto sector faces by zeroing some of its coefficients."""
    a = layer.affine.matrix
    x = layer.apex + rng.normal(scale=2.0, size=(n, layer.d_in))
    faces = (rng.random((n, layer.d_out)) < 0.4) & (np.arange(n) % 4 == 0)[:, None]
    return x - np.where(faces, layer.affine(x), 0.0) @ np.linalg.pinv(a).T


def band_points(layer, rng, n=8):
    """Points of a layer whose coefficients A x (no offset, A a scaled permutation, zero-padded) are exact,
    each with coefficients at exactly plus and minus its default zero band."""
    lam = rng.normal(size=(n, layer.d_out))
    band = 1e-9 * (1.0 + np.max(np.abs(lam), axis=1, keepdims=True))
    on_band = (rng.random(lam.shape) < 0.5) & (np.abs(lam) < np.max(np.abs(lam), axis=1, keepdims=True))
    lam = np.where(on_band, np.sign(lam) * band, lam)
    x = np.zeros((n, layer.d_in))
    x[:, : layer.d_out] = lam @ np.linalg.inv(layer.affine.matrix[:, : layer.d_out]).T
    assert (layer.affine(x) == lam).all()
    return x


def run_classify(layer, points, argv, tmp_path, monkeypatch, capsys):
    """The stdout of ``classify`` on ``layer`` and ``points``, and the report it serialized."""
    seen = {}
    emit = cli._emit
    path = tmp_path / "layer.json"
    path.write_text(json.dumps({"matrix": layer.affine.matrix.tolist(), "offset": layer.affine.offset.tolist()}))
    point_flags = ["--point=" + ",".join(map(repr, x)) for x in points.tolist()]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_emit", lambda report: emit(seen.setdefault("report", report)))
        assert main(["classify", "--input", str(path), *point_flags, *argv]) == 0
    return capsys.readouterr().out, seen.get("report")


def assert_classify_matches_point_loop(layer, points, tmp_path, monkeypatch, capsys):
    """``classify`` JSON and CSV against the per-point loop, with the default band, --tol 0 and a --tol equal
    to a coefficient's magnitude, which puts that coefficient exactly on the band."""
    lam = np.array([layer.affine(x) for x in points])
    for tol in (None, 0.0, float(np.abs(lam[len(points) // 2, 0]))):
        rows = reference_classify_rows(layer, points, tol)
        assert [classify(layer, x, tol).to_json() for x in points] == [row["sector"] for row in rows]
        argv = [] if tol is None else ["--tol", repr(tol)]
        out, report = run_classify(layer, points, argv, tmp_path, monkeypatch, capsys)
        reference = {**report, "results": {"points": rows, "zero_tolerance": "relative 1e-9" if tol is None else tol}}
        assert out.encode() == (reference_canonical_json(reference) + "\n").encode()
        out, _ = run_classify(layer, points, ["--format", "csv", *argv], tmp_path, monkeypatch, capsys)
        lines = [
            ",".join(["|".join(map(str, row["sector"]["plus"])), "|".join(map(str, row["sector"]["minus"]))]
                     + [f"{v:.17g}" for v in row["point"]]) + "\n"
            for row in rows
        ]
        assert out == "".join(lines)


CLASSIFY_SHAPES = [(d, d) for d in range(1, 13)] + [(2, 4), (3, 6), (5, 8)]  # (d_out, d_in)


def binary_layer(rng, d_out, d_in):
    """A layer A x with A a permutation scaled by powers of two, zero-padded:
    its coefficients of integral points are integral and keep -0.0."""
    matrix = np.zeros((d_out, d_in))
    matrix[np.arange(d_out), rng.permutation(d_out)] = 2.0 ** rng.integers(-1, 2, size=d_out)
    return ReluLayer.build(matrix, np.zeros(d_out))


def off_template_points(rng, d_in):
    """Points with integral coordinates (5, 0, -1), -0.0 and magnitudes of 1e16 and more, beside ordinary ones."""
    x = rng.normal(size=(10, d_in))
    x[0] = np.resize([5.0, 0.0, -1.0], d_in)
    x[1] = -0.0
    x[2, 0] = -0.0
    x[3] = np.resize([1e16, -2e16, 3.5e17, 1e20], d_in)
    x[4, -1] = -4.5e18
    x[5, 0] = 7.0
    return x


class TestClassifyReportMatchesPointLoop:
    @pytest.mark.parametrize("d_out, d_in", CLASSIFY_SHAPES)
    def test_face_points(self, d_out, d_in, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(1000 + 16 * d_out + d_in)
        layer = random_layer(rng, d_out, d_in)
        points = face_points(layer, rng)
        assert_classify_matches_point_loop(layer, points, tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("d_out, d_in", [shape for shape in CLASSIFY_SHAPES if shape[0] > 1])
    def test_points_on_the_band(self, d_out, d_in, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(1100 + 16 * d_out + d_in)
        layer = binary_layer(rng, d_out, d_in)
        points = band_points(layer, rng)
        assert_classify_matches_point_loop(layer, points, tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("d_out, d_in", [(1, 1), (3, 3), (2, 4), (8, 8), (12, 12), (30, 30)])
    def test_integral_signed_zero_and_huge_points(self, d_out, d_in, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(1200 + 16 * d_out + d_in)
        for layer in (random_layer(rng, d_out, d_in), binary_layer(rng, d_out, d_in)):
            points = off_template_points(rng, d_in)
            assert_classify_matches_point_loop(layer, points, tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("d_out", [2, 5])
    def test_point_lists_at_the_flat_limit(self, d_out, tmp_path, monkeypatch, capsys):
        """Points whose flat lists have 99 to 102 characters, in reports below and above the array cutover."""
        rng = np.random.default_rng(1300 + d_out)
        layer = random_layer(rng, d_out, 5)
        rows = [floats_of_width(5, width) for width in (99, 100, 101, 102)]
        for count in (1, 1 + _ARRAY_MIN_FLOATS // 7):  # 5 + d_out >= 7 floats per point
            points = np.array([rows[k % 4] for k in range(count)])
            assert_classify_matches_point_loop(layer, points, tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("d", [2, 8])
    def test_floats_take_the_template(self, d, tmp_path, monkeypatch, capsys):
        """With ``_format_float`` refused, a report of non-integral points still serializes, below the array
        cutover (d = 2) and above it (d = 8): its float lists never reach ``_format_float``."""
        rng = np.random.default_rng(1400 + d)
        layer = random_layer(rng, d, d)
        points = rng.normal(size=(16, d))
        assert (points.size + len(points) * d >= _ARRAY_MIN_FLOATS) == (d == 8)
        out, report = run_classify(layer, points, [], tmp_path, monkeypatch, capsys)
        monkeypatch.setattr(rio, "_format_float", refuse_format_float)
        text = canonical_json(report["results"], 1)
        assert '  "results": ' + text in out
