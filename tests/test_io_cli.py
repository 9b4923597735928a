import builtins
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relugeom.cli as cli
import relugeom.errors as errors_module
from relugeom import GeometryError, SchemaError, canonical_boundary, sample_piece
from relugeom.cli import main
from relugeom.core import AffineMap
from relugeom.io import canonical_json, parse_layer_spec, parse_network_spec

GOLDEN_NET3 = Path(__file__).resolve().parent / "golden" / "net3.json"
GOLDEN_LAYER3 = GOLDEN_NET3.with_name("layer3.json")
README = Path(__file__).resolve().parents[1] / "README.md"

PUBLISHED_DUAL_COLUMNS = np.array(
    [
        [0.25, 1.0, 0.0],
        [-1.0, 0.0, -0.5],
        [0.1, 0.25, 1.0],
    ]
)


def write_spec(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def identity_layer_spec(d=3):
    return {"matrix": np.eye(d).tolist(), "offset": [0.0] * d}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestSchemas:
    def test_layer_spec_round_trip(self):
        affine, name = parse_layer_spec({"matrix": [[1, 2], [3, 4]], "offset": [5, 6], "name": "a"})
        np.testing.assert_allclose(affine.matrix, [[1, 2], [3, 4]])
        np.testing.assert_allclose(affine.offset, [5, 6])
        assert name == "a"

    @pytest.mark.parametrize(
        "bad",
        [
            {"matrix": [[1, 2], [3]], "offset": [0, 0]},
            {"matrix": [[1, 2]], "offset": [0, 0]},
            {"matrix": [[1, "x"]], "offset": [0]},
            {"matrix": [[1, 2], [3, 4]], "offset": [0, 0], "name": 7},
            {"offset": [0, 0]},
            [],
        ],
    )
    def test_bad_layer_specs(self, bad):
        with pytest.raises(SchemaError):
            parse_layer_spec(bad)

    def test_network_chain_validation(self):
        spec = {
            "layers": [
                {"matrix": [[1, 0], [0, 1]], "offset": [0, 0]},
                {"matrix": [[1, 0, 0]], "offset": [0]},
            ],
            "output": {"weights": [1], "bias": -1},
        }
        with pytest.raises(SchemaError):
            parse_network_spec(spec)

    def test_network_output_length(self):
        spec = {
            "layers": [{"matrix": [[1, 0], [0, 1]], "offset": [0, 0]}],
            "output": {"weights": [1], "bias": -1},
        }
        with pytest.raises(SchemaError):
            parse_network_spec(spec)


class TestCanonicalJson:
    def test_float_formatting(self):
        text = canonical_json({"v": 1 / 3})
        assert "0.33333333333333331" in text
        assert json.loads(text)["v"] == 1 / 3

    def test_integral_floats_keep_a_point(self):
        assert canonical_json(2.0) == "2.0"
        assert canonical_json(2) == "2"

    def test_non_finite_becomes_null(self):
        assert canonical_json(float("nan")) == "null"

    def test_arrays_and_nesting(self):
        text = canonical_json({"a": np.array([1.0, 0.5]), "b": [True, None]})
        assert json.loads(text) == {"a": [1.0, 0.5], "b": [True, None]}


def readme_exit_classes() -> list[tuple[str, int]]:
    """(error class, exit code) for every class named in the third column
    of the README's exit-code table."""
    section = README.read_text().split("### Exit codes", 1)[1].split("\n## ", 1)[0]
    pairs = []
    for line in section.splitlines():
        cells = re.split(r"(?<!\\)\|", line)
        if len(cells) == 5 and cells[1].strip().isdigit():
            pairs += [(name, int(cells[1])) for name in re.findall(r"`(\w+)`", cells[3])]
    return pairs


class TestExitCodes:
    def test_taxonomy_is_total(self):
        classes = {
            name: obj
            for name, obj in vars(errors_module).items()
            if isinstance(obj, type) and issubclass(obj, GeometryError)
        }
        documented = readme_exit_classes()
        assert len(classes) > 1
        assert sorted(name for name, _ in documented) == sorted(classes)
        for name, code in documented:
            assert classes[name].exit_code == code, name

    def test_missing_input_is_schema_error(self, capsys):
        code, body = run(capsys, ["analyze", "--input", "/nonexistent/path.json"])
        assert code == 2
        assert body["error"] == "SchemaError"

    @pytest.mark.parametrize(
        "command, spec, extra, option",
        [
            ("boundary", GOLDEN_NET3, ["--samples=2", "--csv"], "--csv"),
            ("boundary", GOLDEN_NET3, ["--obj"], "--obj"),
            ("preimage", GOLDEN_LAYER3, ["--point=1,1,1", "--samples=2", "--csv"], "--csv"),
            ("deep-boundary", GOLDEN_NET3.with_name("deep.json"), ["--csv"], "--csv"),
        ],
    )
    @pytest.mark.parametrize("target", ["missing directory", "directory"])
    def test_unwritable_output_path_is_schema_error(self, command, spec, extra, option, target, tmp_path, capsys):
        path = str(tmp_path / "missing" / "out")
        if target == "directory":
            path = str(tmp_path / "out")
            # deep-boundary writes <prefix>_level<k>.csv, one per level
            for name in ("out", *(f"out_level{k}.csv" for k in range(3))):
                (tmp_path / name).mkdir()
        code = main([command, "--input", str(spec), *extra, path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        body = json.loads(captured.out)  # exactly one JSON object
        assert body == {"error": "SchemaError", "message": body["message"], "exit_code": 2}
        assert body["message"].startswith(f"cannot write {option} file: ")
        assert path in body["message"]

    @pytest.mark.parametrize(
        "command, spec, extra",
        [
            ("boundary", GOLDEN_NET3, []),
            ("boundary", GOLDEN_NET3, ["--samples=0"]),
            ("preimage", GOLDEN_LAYER3, ["--point=1,1,1"]),
            ("preimage", GOLDEN_LAYER3, ["--point=1,1,1", "--samples=0"]),
        ],
    )
    @pytest.mark.parametrize("directory", ["present", "missing"])
    def test_csv_without_samples_is_schema_error(self, command, spec, extra, directory, tmp_path, capsys, monkeypatch):
        # refused before the input is read, whether or not the path could be written
        monkeypatch.setattr(cli, "load_json", lambda path: pytest.fail("input read"))
        path = tmp_path / ("missing" if directory == "missing" else "") / "out.csv"
        code = main([command, "--input", str(spec), *extra, "--csv", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        body = json.loads(captured.out)
        assert body["error"] == "SchemaError"
        assert "--csv" in body["message"] and "--samples" in body["message"]
        assert not path.exists()

    @pytest.mark.parametrize(
        "command, spec, extra, option",
        [
            ("boundary", GOLDEN_NET3, ["--samples=2"], "--csv"),
            ("boundary", GOLDEN_NET3, ["--samples=2"], "--obj"),
            ("preimage", GOLDEN_LAYER3, ["--point=1,1,1", "--samples=2"], "--csv"),
            ("deep-boundary", GOLDEN_NET3.with_name("deep.json"), ["--samples=2"], "--csv"),
        ],
    )
    def test_empty_output_path_is_schema_error(self, command, spec, extra, option, tmp_path, capsys, monkeypatch):
        # refused before the input is read, so nothing is written and nothing is reported
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "load_json", lambda path: pytest.fail("input read"))
        code = main([command, "--input", str(spec), *extra, option, ""])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        body = json.loads(captured.out)
        assert body == {"error": "SchemaError", "message": f"{option} needs a nonempty path", "exit_code": 2}
        assert list(tmp_path.iterdir()) == []

    def test_singular_matrix_exits_3(self, tmp_path, capsys):
        path = write_spec(tmp_path / "s.json", {"matrix": [[1, 2], [2, 4]], "offset": [0, 0]})
        code, body = run(capsys, ["analyze", "--input", path])
        assert code == 3
        assert body["error"] == "RankDeficient"

    def test_expanding_layer_exits_3(self, tmp_path, capsys):
        # more rows than columns: the rows cannot be independent
        spec = {"matrix": [[1, 0], [0, 1], [1, 1]], "offset": [0, 0, 0]}
        code, body = run(capsys, ["analyze", "--input", write_spec(tmp_path / "e.json", spec)])
        assert code == 3
        assert body["error"] == "RankDeficient"
        assert body["message"] == "expanding layer (3 rows, 2 columns) has no dual frame"

    def test_enumeration_guard_exits_4(self, tmp_path, capsys):
        d = 21
        spec = {
            "layers": [identity_layer_spec(d)],
            "output": {"weights": [1.0] * d, "bias": -1.0},
        }
        path = write_spec(tmp_path / "big.json", spec)
        code, body = run(capsys, ["boundary", "--input", path])
        assert code == 4
        assert body["error"] == "EnumerationLimit"

    def test_witness_oracle_left_out_above_its_limit(self, tmp_path, capsys):
        spec = {"layers": [identity_layer_spec(9)], "output": {"weights": [1.0] * 9, "bias": -1.0}}
        code, body = run(capsys, ["boundary", "--input", write_spec(tmp_path / "d9.json", spec)])
        assert code == 0
        assert body["results"]["piece_count"] == 2**9 - 1
        assert "oracle" not in body["results"]


class TestInputReadOnce:
    @pytest.mark.parametrize("command", ["analyze", "classify", "preimage", "boundary", "deep-boundary"])
    def test_each_command_opens_its_input_once(self, command, tmp_path, capsys, monkeypatch):
        layer = identity_layer_spec(2)
        spec = layer if command in ("analyze", "classify", "preimage") else shallow_spec([1, -1], -1, d=2)
        path = write_spec(tmp_path / "spec.json", spec)
        extra = {"classify": ["--point=1,0"], "preimage": ["--point=1,0", "--samples=2"],
                 "boundary": ["--samples=2"], "deep-boundary": ["--samples=2"]}.get(command, [])
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        code, body = run(capsys, [command, "--input", path, *extra])
        assert code == 0
        assert opened.count(path) == 1
        assert body["input_digest"].startswith("sha256:")


# 10**400 is an integer literal beyond the float range.
NON_FINITE = [float("nan"), float("inf"), float("-inf"), 10**400]


def with_value(spec, where, value):
    """Copy of ``spec`` with ``value`` placed in the named field."""
    spec = json.loads(json.dumps(spec))
    layer = spec["layers"][0] if "layers" in spec else spec
    if where == "matrix":
        layer["matrix"][1][0] = value
    elif where == "offset":
        layer["offset"][0] = value
    elif where == "weights":
        spec["output"]["weights"][1] = value
    else:
        spec["output"]["bias"] = value
    return spec


class TestNonFiniteSpecs:
    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf", "huge-int"])
    @pytest.mark.parametrize(
        "command, where",
        [
            ("analyze", "matrix"),
            ("analyze", "offset"),
            ("boundary", "matrix"),
            ("boundary", "offset"),
            ("boundary", "weights"),
            ("boundary", "bias"),
        ],
    )
    def test_rejected_as_schema_error(self, command, where, value, tmp_path, capsys):
        base = identity_layer_spec() if command == "analyze" else shallow_spec([1, 1, 1], -1)
        path = tmp_path / "spec.json"
        # json.dumps writes NaN and Infinity literals, which json.loads accepts.
        path.write_text(json.dumps(with_value(base, where, value)))
        code = main([command, "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        body = json.loads(captured.out)
        assert body["error"] == "SchemaError"
        assert "finite" in body["message"]


class TestNonFinitePoints:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("command", ["classify", "preimage"])
    def test_rejected_as_schema_error(self, command, value, tmp_path, capsys):
        path = write_spec(tmp_path / "id.json", identity_layer_spec())
        argv = [command, "--input", path, f"--point={value},0,1"]
        if command == "preimage":
            argv += ["--samples", "2"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        body = json.loads(captured.out)
        assert body["error"] == "SchemaError"
        assert "finite" in body["message"]


def reference_parse_points(values, d):
    """The per-point loop ``cli._parse_points`` replaced: the first failing point, parse before count before finiteness."""
    points = []
    for text in values:
        try:
            coords = [float(v) for v in text.split(",")]
        except ValueError as exc:
            raise SchemaError(f"cannot parse point {text!r}: {exc}") from exc
        if len(coords) != d:
            raise SchemaError(f"point {text!r} has {len(coords)} coordinates, expected {d}")
        if not all(map(math.isfinite, coords)):
            raise SchemaError(f"point {text!r} has a coordinate that is not a finite number")
        points.append(coords)
    return np.asarray(points)


def parsed(parse, values, d):
    try:
        points = parse(values, d)
    except SchemaError as exc:
        return "error", str(exc)
    return points.dtype, points.shape, points.tobytes()


# Good points beside a wrong count, unparsable and non-finite texts, and a
# point with one comma too many next to one with one too few, so that the
# total coordinate count matches.
POINT_TEXTS = [
    "1,2,3", "-0.0,1e-300,2", " 2,1,1", "1_0,2,3", "1,2", "1,2,3,4", "x,1,2", "1,,2", "",
    "nan,1,2", "1e400,0,0", "1,-inf,0",
]


class TestParsePointsKeepsItsMessages:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(values=st.lists(st.sampled_from(POINT_TEXTS), min_size=1, max_size=6))
    def test_matches_the_per_point_loop(self, values):
        assert parsed(cli._parse_points, values, 3) == parsed(reference_parse_points, values, 3)

    @pytest.mark.parametrize(
        "values",
        [
            ["1,2,3", "1,2", "x,1,2"],
            ["1,2,3,4", "1,2"],
            ["1,2", "1,2,3,4"],
            ["nan,1,2", "1,2"],
            ["1e400,0,0", "x,1,2"],
            ["", "1,2,3"],
            [" 2,1,1", "1_0,2,3"],
        ],
    )
    def test_mixed_lists(self, values):
        assert parsed(cli._parse_points, values, 3) == parsed(reference_parse_points, values, 3)


class TestHugeSampleCount:
    """A --samples draw too large to hold is refused before anything is allocated."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["preimage", "--input", str(GOLDEN_LAYER3), "--point=1,0,0.5"],
            ["boundary", "--input", str(GOLDEN_NET3)],
            ["deep-boundary", "--input", str(GOLDEN_NET3.with_name("deep.json"))],
        ],
        ids=lambda argv: argv[0],
    )
    def test_refused_with_exit_4(self, argv, capsys):
        code = main([*argv, "--samples", "1000000000000"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.err == ""
        body, end = json.JSONDecoder().raw_decode(captured.out)
        assert not captured.out[end:].strip()
        assert body == {"error": "EnumerationLimit", "message": body["message"], "exit_code": 4}
        assert body["message"].startswith("--samples 1000000000000 ")


# One flag value outside its domain each: (command, extra arguments).
# "boundary-obj" exports a mesh of tests/golden/net3.json.
BAD_ARGUMENTS = {
    "boundary-samples": ("boundary", ["--samples=-1"]),
    "preimage-samples": ("preimage", ["--samples=-1"]),
    "deep-boundary-samples": ("deep-boundary", ["--samples=-1"]),
    "boundary-seed": ("boundary", ["--samples=2", "--seed=-1"]),
    "preimage-seed": ("preimage", ["--samples=2", "--seed=-1"]),
    "deep-boundary-seed": ("deep-boundary", ["--seed=-1"]),
    "verify-seed": ("verify", ["--seed=-1"]),
    "boundary-radius": ("boundary", ["--samples=2", "--radius=-1"]),
    "preimage-radius": ("preimage", ["--samples=2", "--radius=-1"]),
    "deep-boundary-radius": ("deep-boundary", ["--radius=-1"]),
    "box-reversed": ("boundary-obj", ["--box=5,-5"]),
    "box-nan": ("boundary-obj", ["--box=nan,5"]),
    "fibers": ("deep-boundary", ["--fibers=-1"]),
    "classify-tol-negative": ("classify", ["--tol=-1"]),
    "classify-tol-nan": ("classify", ["--tol=nan"]),
    "preimage-tol-negative": ("preimage", ["--tol=-1"]),
    "preimage-tol-nan": ("preimage", ["--tol=nan"]),
    "level-tol-negative": ("deep-boundary", ["--level-tol=-1e-9"]),
    "level-tol-nan": ("deep-boundary", ["--level-tol=nan"]),
}


class TestArgumentValues:
    @pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
    def test_rejected_as_schema_error(self, case, tmp_path, capsys):
        command, extra = BAD_ARGUMENTS[case]
        layer = write_spec(tmp_path / "layer.json", identity_layer_spec())
        net = write_spec(tmp_path / "net.json", shallow_spec([1, -1, 1], -1))
        argv = {
            "classify": ["classify", "--input", layer, "--point=1,0,1"],
            "preimage": ["preimage", "--input", layer, "--point=1,0,1"],
            "boundary": ["boundary", "--input", net],
            "deep-boundary": ["deep-boundary", "--input", net],
            "verify": ["verify", "--suite", "image"],
            "boundary-obj": ["boundary", "--input", str(GOLDEN_NET3), "--obj", str(tmp_path / "m.obj")],
        }[command]
        code = main(argv + extra)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        body = json.loads(captured.out)
        assert body["error"] == "SchemaError"
        assert body["message"].startswith(extra[-1].split("=")[0])


class TestOverflowingPoints:
    @pytest.mark.parametrize(
        "scale, argv",
        [
            (10.0, ["classify", "--point=1e308,1"]),
            (10.0, ["classify", "--point=1e308,1", "--format", "csv"]),
            (0.1, ["preimage", "--point=1e308,1e308", "--samples", "2"]),
        ],
    )
    def test_rejected_as_schema_error(self, scale, argv, tmp_path, capsys):
        path = write_spec(tmp_path / "layer.json", {"matrix": (scale * np.eye(2)).tolist(), "offset": [0, 0]})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([argv[0], "--input", path, *argv[1:]])
        captured = capsys.readouterr()
        assert code == 2
        body = json.loads(captured.out)
        assert body["error"] == "SchemaError"
        assert "float range" in body["message"]


class TestOverflowingRadius:
    @pytest.mark.parametrize("command", ["preimage", "boundary", "deep-boundary"])
    def test_rejected_as_schema_error(self, command, tmp_path, capsys):
        identity = identity_layer_spec(2)
        output = {"weights": [0.5, -0.25], "bias": -1.0}
        spec, extra = {
            "preimage": ({"matrix": (0.1 * np.eye(2)).tolist(), "offset": [0, 0]}, ["--point=0,0", "--samples=3"]),
            "boundary": ({"layers": [identity], "output": output}, ["--samples=3"]),
            "deep-boundary": ({"layers": [identity, identity], "output": output}, []),
        }[command]
        code = main([command, "--input", write_spec(tmp_path / "spec.json", spec), "--radius=1e308", *extra])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        body = json.loads(captured.out)
        assert body["error"] == "SchemaError"
        assert body["message"].startswith("--radius")


GENERAL_LAYER = {"matrix": [[1, 0.2], [0.1, 1]], "offset": [0.3, -0.2]}

RADIUS_READOUT = {"weights": [1, -1], "bias": -1}
RADII = ["1", "1e3", "1e5", "1e7", "1e9", "1e12", "1e200"]


def radius_argv(command, layer, radius, tmp_path):
    """A four-sample run of ``command`` at ``radius``: the preimage of (1, 0)
    under ``layer``, or the boundary of the readout RADIUS_READOUT behind one
    copy of ``layer`` (two for deep-boundary)."""
    spec, extra = {
        "preimage": (layer, ["--point=1,0"]),
        "boundary": ({"layers": [layer], "output": RADIUS_READOUT}, []),
        "deep-boundary": ({"layers": [layer, layer], "output": RADIUS_READOUT}, []),
    }[command]
    path = write_spec(tmp_path / "spec.json", spec)
    return [command, "--input", path, "--samples", "4", "--radius", radius, *extra]


def stated_residuals(command, results):
    """The (max_residual, tolerance) pairs that a report states."""
    if command == "deep-boundary":
        return [(level["max_residual"], level["tolerance"]) for level in results["levels"]]
    return [(results["samples"]["max_residual"], results["samples"]["tolerance"])]


def assert_rounding_refusal(radius, capsys):
    captured = capsys.readouterr()
    assert captured.err == ""
    body = json.loads(captured.out)
    assert body["error"] == "SchemaError"
    assert body["message"].startswith(f"--radius {float(radius):g}")
    assert "tolerance" in body["message"]


class TestRadiusBeyondRounding:
    """Finite samples at a radius where rounding alone exceeds the stated
    tolerance: the report could not keep its claim, so the command refuses."""

    @pytest.mark.parametrize("layer", [identity_layer_spec(2), GENERAL_LAYER], ids=["identity", "general"])
    def test_rejected_as_schema_error(self, layer, tmp_path, capsys):
        spec = {"layers": [layer], "output": RADIUS_READOUT}
        path = write_spec(tmp_path / "net.json", spec)
        assert main(["boundary", "--input", path, "--samples", "2", "--radius", "1e308"]) == 2
        assert_rounding_refusal("1e308", capsys)

    @pytest.mark.parametrize("command", ["preimage", "deep-boundary"])
    def test_finite_samples_past_the_tolerance_rejected(self, command, tmp_path, capsys):
        # At radius 1e200 the samples stay finite, but the preimage residual
        # was 1.0 against 2e-08 and the level-2 residual 3.4e+184 against 1e-07.
        assert main(radius_argv(command, GENERAL_LAYER, "1e200", tmp_path)) == 2
        assert_rounding_refusal("1e200", capsys)

    @pytest.mark.parametrize("radius", ["0", "1"])
    def test_level_tol_below_rounding_names_level_tol(self, radius, capsys):
        # The seed level is drawn unfiltered; its residuals round to about
        # 1e-16, so no radius meets --level-tol 0 and the refusal says so.
        path = str(GOLDEN_NET3.parent / "deep.json")
        code, body = run(capsys, ["deep-boundary", "--input", path, "--radius", radius, "--level-tol", "0"])
        assert code == 2
        assert body["error"] == "SchemaError"
        assert body["message"].startswith(f"--radius {radius} with --level-tol 0: ")
        assert "beyond the stated tolerance 0" in body["message"]

    @pytest.mark.parametrize("layer", [identity_layer_spec(2), GENERAL_LAYER], ids=["identity", "general"])
    @pytest.mark.parametrize("radius", RADII)
    def test_stated_tolerance_met_whenever_accepted(self, layer, radius, tmp_path, capsys):
        self.check_radius("boundary", layer, radius, tmp_path, capsys)

    @pytest.mark.parametrize("layer", [identity_layer_spec(2), GENERAL_LAYER], ids=["identity", "general"])
    @pytest.mark.parametrize("radius", RADII)
    @pytest.mark.parametrize("command", ["preimage", "deep-boundary"])
    def test_stated_tolerances_met_whenever_accepted(self, command, layer, radius, tmp_path, capsys):
        self.check_radius(command, layer, radius, tmp_path, capsys)

    @staticmethod
    def check_radius(command, layer, radius, tmp_path, capsys):
        code, body = run(capsys, radius_argv(command, layer, radius, tmp_path))
        if code == 0:
            for residual, tolerance in stated_residuals(command, body["results"]):
                assert residual <= tolerance
        else:
            assert code == 2 and body["message"].startswith("--radius")
        if float(radius) <= 1e5:
            assert code == 0


def conditioned_specs(kappa, d=4, n=10):
    """``n`` one-layer network specs drawn by ``default_rng(0)``: the square
    layer U diag(logspace(0, -log10 kappa, d)) V^T, U and V from the QR of
    standard normal matrices, a standard normal offset and standard normal
    readout weights with bias -1."""
    rng, specs = np.random.default_rng(0), []
    for _ in range(n):
        u, v = (np.linalg.qr(rng.standard_normal((d, d)))[0] for _ in range(2))
        matrix = u @ np.diag(np.logspace(0, -np.log10(kappa), d)) @ v.T
        layer = {"matrix": matrix.tolist(), "offset": rng.standard_normal(d).tolist()}
        specs.append({"layers": [layer], "output": {"weights": rng.standard_normal(d).tolist(), "bias": -1.0}})
    return specs


def vertex_rounding(spec):
    """The rounding bound of a ``boundary`` sample at the vertices apex +
    t_j a_j*, t_j > 0, from the spec by plain numpy: where a draw at radius
    0 puts it highest."""
    layer, output = spec["layers"][0], spec["output"]
    a, b, w = np.array(layer["matrix"]), np.array(layer["offset"]), np.array(output["weights"])
    t = 1.0 / w  # -bias / w with bias -1
    vertices = np.linalg.solve(a, -b) + t[t > 0, None] * np.linalg.inv(a).T[t > 0]
    size = (np.abs(vertices) @ np.abs(a).T + np.abs(b)) @ np.abs(w / 2.0) + 0.5
    return (a.shape[1] + 2) * np.finfo(float).eps * size.max()


class TestIllConditionedFrame:
    """A refusal that no radius can lift is blamed on the frame's
    conditioning (exit 3), not on ``--radius`` (exit 2)."""

    def codes(self, kappa, radius, tmp_path, capsys):
        bodies = []
        for spec in conditioned_specs(kappa):
            path = write_spec(tmp_path / "net.json", spec)
            code, body = run(capsys, ["boundary", "--input", path, "--samples", "4", "--radius", radius])
            bodies.append((code, body.get("error"), body.get("message", ""), spec))
        return bodies

    @pytest.mark.parametrize("radius", ["1e-9", "2"])
    def test_kappa_1e8_refusals_name_conditioning(self, radius, tmp_path, capsys):
        bodies = self.codes(1e8, radius, tmp_path, capsys)
        assert [error for _, error, _, _ in bodies].count("AllNegative") == 1
        refused = [(code, message, spec) for code, error, message, spec in bodies if error == "RankDeficient"]
        assert len(refused) == 9
        for code, message, spec in refused:
            assert code == 3 and message.startswith("conditioning: ")
            assert message.endswith("beyond the stated tolerance 1e-08")
            assert vertex_rounding(spec) > 1e-8

    def test_kappa_1e6_refusals_stay_radius_errors(self, tmp_path, capsys):
        bodies = self.codes(1e6, "2", tmp_path, capsys)
        assert sorted(code for code, _, _, _ in bodies) == [0] * 5 + [2] * 4 + [3]
        for code, error, message, spec in bodies:
            if code == 2:
                assert message.startswith("--radius 2: ") and vertex_rounding(spec) < 1e-8
            if code == 3:
                assert error == "AllNegative"

    def test_preimage_refusal_at_the_base_point_names_conditioning(self, tmp_path, capsys):
        layers = [spec["layers"][0] for spec in conditioned_specs(1e8)]
        argv = ["--point=1,0.5,0,2", "--samples", "4", "--radius"]
        path = write_spec(tmp_path / "a.json", layers[0])
        code, body = run(capsys, ["preimage", "--input", path, *argv, "1e-9"])
        assert (code, body["error"]) == (3, "RankDeficient") and body["message"].startswith("conditioning: ")
        # here the base point meets the tolerance, so only the radius is refused
        path = write_spec(tmp_path / "b.json", layers[3])
        assert run(capsys, ["preimage", "--input", path, *argv, "1e-9"])[0] == 0
        code, body = run(capsys, ["preimage", "--input", path, *argv, "2"])
        assert (code, body["error"]) == (2, "SchemaError") and body["message"].startswith("--radius 2: ")


# Layers that pass the condition gate but whose dual frame has no float
# representation: subnormal rows (duals overflow), an apex beyond 1e308,
# and contracting rows whose Gram matrix underflows to a singular one or
# overflows (the solve would return zero duals).
UNREPRESENTABLE_FRAMES = {
    "subnormal-rows": {"matrix": [[1e-320, 0], [0, 1e-320]], "offset": [1, 1]},
    "apex-overflow": {"matrix": [[1e-10, 0], [0, 1e-10]], "offset": [1e300, 1]},
    "singular-gram": {"matrix": [[1e-200, 0, 0], [0, 1e-200, 0]], "offset": [1, 1]},
    "gram-overflow": {"matrix": [[0.1257302210933933, -1e155]], "offset": [0.1257302210933933]},
}

# Readouts whose intersection values t = -bias / weight or canonical map
# leave the float range, the map overflowing or underflowing to zero:
# (layer, weights, bias, error).
UNREPRESENTABLE_READOUTS = {
    "t-overflow": (GENERAL_LAYER, [1e-300, 2e-300], -1e300, "DegenerateDirection"),
    "t-underflow": (GENERAL_LAYER, [1e300, 2e300], -1e-300, "DegenerateBias"),
    "canonical-overflow": ({"matrix": [[1e-200, 0], [0, 1e-200]], "offset": [1, 1]}, [1, 1], -1e200,
                           "RankDeficient"),
    "canonical-underflow": ({"matrix": [[1e200, 0], [0, 1e200]], "offset": [1, 1]}, [1, 1], -1e-200,
                            "RankDeficient"),
}


def network_argv(command, path):
    """A sampling run of the boundary or deep-boundary command."""
    return [command, "--input", path, "--samples", "2"]


def assert_degenerate(argv, error, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == ""
    body = json.loads(captured.out)
    assert body["error"] == error
    assert body["exit_code"] == 3


class TestUnrepresentableGeometry:
    @pytest.mark.parametrize("command", ["analyze", "classify", "preimage", "boundary", "deep-boundary"])
    @pytest.mark.parametrize("name", sorted(UNREPRESENTABLE_FRAMES))
    def test_frame_exits_3(self, name, command, tmp_path, capsys):
        layer = UNREPRESENTABLE_FRAMES[name]
        d_out, d_in = len(layer["matrix"]), len(layer["matrix"][0])
        if command in ("analyze", "classify", "preimage"):
            path = write_spec(tmp_path / "layer.json", layer)
            argv = [command, "--input", path]
            if command == "classify":
                argv.append("--point=" + ",".join(["1"] * d_in))
            elif command == "preimage":
                argv += ["--point=" + ",".join(["1"] * d_out), "--samples", "2"]
        else:
            # deep-boundary gets a second layer, so the frame is pulled back through
            layers = [layer] if command == "boundary" else [layer, identity_layer_spec(d_out)]
            spec = {"layers": layers, "output": {"weights": [1.0] * d_out, "bias": -1.0}}
            argv = network_argv(command, write_spec(tmp_path / "net.json", spec))
        assert_degenerate(argv, "RankDeficient", capsys)

    @pytest.mark.parametrize("command", ["boundary", "deep-boundary"])
    @pytest.mark.parametrize("name", sorted(UNREPRESENTABLE_READOUTS))
    def test_readout_exits_3(self, name, command, tmp_path, capsys):
        layer, weights, bias, error = UNREPRESENTABLE_READOUTS[name]
        layers = [layer] if command == "boundary" else [GENERAL_LAYER, layer]
        spec = {"layers": layers, "output": {"weights": weights, "bias": bias}}
        assert_degenerate(network_argv(command, write_spec(tmp_path / "net.json", spec)), error, capsys)


class TestAnalyze:
    def test_identity_report(self, tmp_path, capsys):
        path = write_spec(tmp_path / "id.json", identity_layer_spec())
        code, body = run(capsys, ["analyze", "--input", path])
        assert code == 0
        results = body["results"]
        assert results["apex"] == [-0.0, 0.0, 0.0]
        assert results["duals"] == np.eye(3).tolist()
        counts = {row["k"]: row["count"] for row in results["sector_counts"]["by_dimension"]}
        assert counts == {0: 1, 1: 6, 2: 12, 3: 8}
        assert results["sector_counts"]["total"] == 27

    def test_published_duals_echoed(self, tmp_path, capsys):
        a = np.linalg.inv(PUBLISHED_DUAL_COLUMNS)
        spec = {"matrix": a.tolist(), "offset": (-a @ np.ones(3)).tolist()}
        path = write_spec(tmp_path / "pub.json", spec)
        code, body = run(capsys, ["analyze", "--input", path])
        assert code == 0
        got = np.array(body["results"]["duals"])
        np.testing.assert_allclose(got.T, PUBLISHED_DUAL_COLUMNS, atol=1e-12)
        np.testing.assert_allclose(body["results"]["apex"], np.ones(3), atol=1e-12)

    def test_contracting_report(self, tmp_path, capsys):
        spec = {"matrix": [[1.0, 0.0, 1.0], [0.0, 2.0, -1.0]], "offset": [0.5, -0.25]}
        path = write_spec(tmp_path / "c.json", spec)
        code, body = run(capsys, ["analyze", "--input", path])
        assert code == 0
        assert body["results"]["contracting"] is True
        assert len(body["results"]["complement_basis"]) == 1


class TestClassify:
    def test_points_classified(self, tmp_path, capsys):
        path = write_spec(tmp_path / "id.json", identity_layer_spec())
        code, body = run(
            capsys,
            ["classify", "--input", path, "--point", "5,0,-1", "--point", "1,1,1"],
        )
        assert code == 0
        rows = body["results"]["points"]
        assert rows[0]["sector"] == {"plus": [1], "minus": [3]}
        assert rows[0]["on_boundary_of"] == [2]
        assert rows[1]["sector"] == {"plus": [1, 2, 3], "minus": []}

    def test_bad_point_is_schema_error(self, tmp_path, capsys):
        path = write_spec(tmp_path / "id.json", identity_layer_spec())
        code, body = run(capsys, ["classify", "--input", path, "--point", "1,2"])
        assert code == 2


class TestPreimage:
    def test_report_and_samples(self, tmp_path, capsys):
        path = write_spec(tmp_path / "id.json", identity_layer_spec())
        csv_path = tmp_path / "pre.csv"
        code, body = run(
            capsys,
            [
                "preimage", "--input", path, "--point", "1,0,2",
                "--samples", "25", "--csv", str(csv_path),
            ],
        )
        assert code == 0
        results = body["results"]
        assert results["generator_indices"] == [2]
        assert results["dimension"] == 1
        assert results["source_sector"] == {"plus": [1, 3], "minus": []}
        assert results["samples"]["max_residual"] < 1e-9
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "label,x1,x2,x3"
        assert len(lines) == 26

    @pytest.mark.parametrize("samples", [[], ["--samples", "4"]])
    def test_tol_sweeping_a_positive_component_refused(self, samples, capsys):
        # --tol 0.5 would make the component 0.3 a sweep direction while the
        # target keeps it: the samples would miss the stated 2.5e-8 by 0.3.
        argv = ["preimage", "--input", str(GOLDEN_LAYER3), "--point=1.5,0.3,-0.2", "--tol", "0.5"]
        code, body = run(capsys, argv + samples)
        assert code == 2
        assert body["error"] == "SchemaError"
        assert body["message"].startswith("--tol 0.5 sweeps target components [2] as zeros")

    def test_wide_tol_without_positive_in_band_component(self, capsys):
        argv = ["preimage", "--input", str(GOLDEN_LAYER3), "--point=1.5,0.7,-0.2", "--tol", "0.5"]
        code, body = run(capsys, argv + ["--samples", "4"])
        assert code == 0
        samples = body["results"]["samples"]
        assert samples["max_residual"] <= samples["tolerance"]

    def test_empty_preimage(self, tmp_path, capsys):
        path = write_spec(tmp_path / "id.json", identity_layer_spec())
        code, body = run(capsys, ["preimage", "--input", path, "--point", "1,-2,0"])
        assert code == 0
        assert body["results"]["empty"] is True


def shallow_spec(weights, bias, d=3):
    return {
        "layers": [identity_layer_spec(d)],
        "output": {"weights": list(weights), "bias": bias},
    }


class TestBoundaryCommand:
    def test_m0_report(self, tmp_path, capsys):
        path = write_spec(tmp_path / "m0.json", shallow_spec([1, 1, 1], -1))
        code, body = run(capsys, ["boundary", "--input", path])
        assert code == 0
        results = body["results"]
        assert results["piece_count"] == 7
        assert results["m"] == 0
        assert results["curvature"] == "convex"
        assert results["oracle"]["agrees"] is True
        assert results["canonical"]["sigma"] == [1, 2, 3]

    def test_m2_report(self, tmp_path, capsys):
        path = write_spec(tmp_path / "m2.json", shallow_spec([-1, -1, 1], -1))
        code, body = run(capsys, ["boundary", "--input", path])
        assert code == 0
        assert body["results"]["piece_count"] == 4
        assert body["results"]["m"] == 2

    def test_zero_bias_exits_3(self, tmp_path, capsys):
        path = write_spec(tmp_path / "z.json", shallow_spec([1, 1, 1], 0))
        code, body = run(capsys, ["boundary", "--input", path])
        assert code == 3
        assert body["error"] == "DegenerateBias"

    def test_contracting_layer(self, tmp_path, capsys):
        a = np.array([[1.0, 0.5, -0.3], [0.2, -1.0, 0.8]])
        b = np.array([0.4, -0.2])
        weights, bias = np.array([-1.2, 0.7]), 0.9
        spec = {
            "layers": [{"matrix": a.tolist(), "offset": b.tolist()}],
            "output": {"weights": weights.tolist(), "bias": bias},
        }
        path = write_spec(tmp_path / "c.json", spec)
        code, body = run(capsys, ["boundary", "--input", path, "--samples", "20"])
        assert code == 0
        results = body["results"]
        assert results["m"] == 1 and results["piece_count"] == 2
        assert results["oracle"]["agrees"] is True
        assert results["samples"]["max_residual"] <= results["samples"]["tolerance"]

        canonical = results["canonical"]
        to_actual = AffineMap(canonical["matrix"], canonical["offset"])
        assert (to_actual.d_in, to_actual.d_out) == (2, 3)
        normal = np.cross(a[0], a[1])  # spans the complement of the row span
        rng = np.random.default_rng(1)
        for piece in canonical_boundary(2, canonical["m"]).pieces:
            xs = to_actual(sample_piece(piece, 30, radius=1.5, rng=rng))
            level = np.maximum(xs @ a.T + b, 0.0) @ weights + bias
            assert np.abs(level).max() < 1e-9 * (1.0 + abs(bias))
            # the map lands in the row-span slice through the apex
            assert np.abs((xs - to_actual.offset) @ normal).max() < 1e-9

    def test_deep_spec_rejected(self, tmp_path, capsys):
        spec = {
            "layers": [identity_layer_spec(), identity_layer_spec()],
            "output": {"weights": [1, 1, 1], "bias": -1},
        }
        path = write_spec(tmp_path / "deep.json", spec)
        code, body = run(capsys, ["boundary", "--input", path])
        assert code == 2

    def test_samples_and_obj_export(self, tmp_path, capsys):
        path = write_spec(tmp_path / "m0.json", shallow_spec([1.0, 2.0, 0.5], -1))
        csv_path = tmp_path / "samples.csv"
        obj_path = tmp_path / "mesh.obj"
        code, body = run(
            capsys,
            [
                "boundary", "--input", path, "--samples", "10",
                "--csv", str(csv_path), "--obj", str(obj_path), "--box=-4,4",
            ],
        )
        assert code == 0
        assert body["results"]["samples"]["max_residual"] < 1e-8
        header = csv_path.read_text().splitlines()[0]
        assert header == "label,x1,x2,x3,residual"

        vertices = []
        for line in obj_path.read_text().splitlines():
            if line.startswith("v "):
                vertices.append([float(v) for v in line.split()[1:]])
        vertices = np.array(vertices)
        assert vertices.size > 0
        assert vertices.min() >= -4 - 1e-9 and vertices.max() <= 4 + 1e-9
        # every mesh vertex lies on the zero level of the network
        level = np.maximum(vertices, 0.0) @ np.array([1.0, 2.0, 0.5]) - 1.0
        assert np.abs(level).max() < 1e-9

    def test_determinism_modulo_wall_time(self, tmp_path, capsys):
        path = write_spec(tmp_path / "m0.json", shallow_spec([1, 1, 1], -1))
        argv = ["boundary", "--input", path, "--samples", "20", "--seed", "11"]
        code1 = main(argv)
        first = capsys.readouterr().out
        code2 = main(argv)
        second = capsys.readouterr().out
        assert code1 == code2 == 0

        def strip(text):
            return "\n".join(
                line for line in text.splitlines() if '"wall_time_ms"' not in line
            )

        assert strip(first) == strip(second)


class TestParserErrors:
    """A command line argparse rejects exits 2 with a JSON body (an unknown
    suite: TestVerifyCommand)."""

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["boundary", "--input", str(GOLDEN_NET3), "--samples", "x"], "invalid int value: 'x'"),
            (["analyze"], "the following arguments are required: --input"),
        ],
    )
    def test_rejected_as_schema_error(self, argv, fragment, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        body = json.loads(captured.out)
        assert body == {"error": "SchemaError", "message": body["message"], "exit_code": 2}
        assert body["message"].startswith(f"relugeom {argv[0]}: ")
        assert fragment in body["message"]

    @pytest.mark.parametrize("argv", [["--version"], ["--help"], ["analyze", "--help"]])
    def test_help_and_version_still_exit_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out


def without_wall_time(text: str) -> str:
    return re.sub(r'"wall_time_ms": [^\n]*', "", text)


class TestParserReuse:
    """The parser is built once per process; each command still runs alone."""

    ARGVS = [
        ["boundary", "--input", str(GOLDEN_NET3), "--samples", "2"],
        ["boundary", "--input", str(GOLDEN_NET3), "--samples", "x"],
        ["classify", "--input", str(GOLDEN_LAYER3), "--point=1,0,-1", "--point=0.5,2,3"],
    ]

    def test_commands_in_one_process_match_fresh_processes(self, capsys):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH", "")])
        for argv in self.ARGVS:
            code = main(argv)
            out = capsys.readouterr().out
            fresh = subprocess.run(
                [sys.executable, "-m", "relugeom.cli", *argv], capture_output=True, text=True, env=env
            )
            assert (code, without_wall_time(out)) == (fresh.returncode, without_wall_time(fresh.stdout))
        assert json.loads(out)["command"] == "classify"
        code, body = run(capsys, self.ARGVS[1])
        assert code == 2
        assert body["error"] == "SchemaError" and "invalid int value: 'x'" in body["message"]

    def test_parser_built_once(self, capsys, monkeypatch):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        for argv in self.ARGVS:
            main(argv)
        capsys.readouterr()
        assert builds == [1]

    def test_command_looked_up_at_call_time(self, capsys, monkeypatch):
        main(self.ARGVS[0])
        capsys.readouterr()
        calls = []
        monkeypatch.setattr(cli, "cmd_boundary", lambda args: calls.append(args.samples) or 7)
        assert main(self.ARGVS[0]) == 7
        assert calls == [2]


class TestDeepBoundaryCommand:
    @pytest.mark.parametrize("spec", ["deep.json", "net3.json"])
    def test_zero_samples_rejected(self, spec, capsys):
        path = str(GOLDEN_NET3.parent / spec)
        code, body = run(capsys, ["deep-boundary", "--input", path, "--samples", "0"])
        assert code == 2
        assert body["error"] == "SchemaError"
        assert body["message"].startswith("--samples 0 ")

    def test_two_canonical_layers(self, tmp_path, capsys):
        spec = {
            "layers": [identity_layer_spec(2), identity_layer_spec(2)],
            "output": {"weights": [1.0, 1.0], "bias": -1.0},
        }
        path = write_spec(tmp_path / "deep.json", spec)
        code, body = run(
            capsys,
            ["deep-boundary", "--input", path, "--samples", "15", "--csv", str(tmp_path / "lv")],
        )
        assert code == 0
        levels = body["results"]["levels"]
        assert [entry["level"] for entry in levels] == [2, 1]
        for entry in levels:
            assert entry["max_residual"] < 1e-7
            header = (tmp_path / f"lv_level{entry['level']}.csv").read_text().splitlines()[0]
            assert header == "level,x1,x2,residual,fiber"

    def test_depth_one_matches_boundary_sampling(self, tmp_path, capsys):
        spec = shallow_spec([1.0, 0.5, 2.0], -1.0)
        path = write_spec(tmp_path / "n1.json", spec)
        code, deep_body = run(
            capsys,
            [
                "deep-boundary", "--input", path, "--samples", "12",
                "--radius", "1.5", "--seed", "5",
            ],
        )
        assert code == 0
        code, shallow_body = run(
            capsys,
            ["boundary", "--input", path, "--samples", "12", "--radius", "1.5", "--seed", "5"],
        )
        assert code == 0
        deep_res = deep_body["results"]["levels"][0]["max_residual"]
        shallow_res = shallow_body["results"]["samples"]["max_residual"]
        assert deep_res == pytest.approx(shallow_res, abs=1e-12)


class TestVerifyCommand:
    def test_passing_suite(self, capsys):
        code, body = run(capsys, ["verify", "--suite", "image", "--seed", "3"])
        assert code == 0
        assert body["results"]["passed"] is True
        names = {p["property"] for p in body["results"]["properties"]}
        assert "image_forgets_minus_set" in names

    def test_stderr_lines_match_the_report(self, capsys):
        # one stderr line per property of the same run's JSON report, in its order
        assert main(["verify", "--suite", "image", "--seed", "0"]) == 0
        captured = capsys.readouterr()
        properties = json.loads(captured.out)["results"]["properties"]

        def lines(worst_format):
            return "".join(
                f"image/{p['property']}: {p['checks']} checks, worst {p['worst_residual']:{worst_format}} "
                f"(tol {p['tolerance']:.1e}): {'pass' if p['passed'] else 'FAIL'}\n"
                for p in properties
            )

        assert len(properties) == 2
        assert captured.err == lines(".3e")
        assert captured.err != lines(".3E")  # not vacuous: the exponent's format is pinned

    def test_failing_suite_exits_1_with_counterexample(self, capsys, monkeypatch):
        from relugeom.verify import SuiteResult

        def broken(seed):
            suite = SuiteResult("image", seed)
            suite.declare("forced_failure", 1.0).see(2.0, {"witness": [1, 2, 3]})
            return suite

        import relugeom.cli as cli_module

        monkeypatch.setitem(cli_module.SUITES, "image", broken)
        code = main(["verify", "--suite", "image"])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["first_counterexample"] == {"witness": [1, 2, 3]}
        assert captured.err == "image/forced_failure: 1 checks, worst 2.000e+00 (tol 1.0e+00): FAIL\n"

    def test_unknown_suite_rejected(self, capsys):
        code = main(["verify", "--suite", "nope"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        body = json.loads(captured.out)
        assert body["error"] == "SchemaError"
        assert body["message"].startswith("relugeom verify: argument --suite: invalid choice: 'nope'")
