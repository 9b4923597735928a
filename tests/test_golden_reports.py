"""Golden CLI reports: fixed specs and seeds reproduce stored bytes.

Each case runs one CLI command in an empty working directory and
compares its stdout and every file it writes with the copies under
``tests/golden/<case>/``.  Two fields are exempt from byte equality:
``wall_time_ms`` (it measures the run) and the canonical map of
``boundary`` reports, ``results.canonical.matrix``, which is compared
with a relative tolerance of 1e-13 because its entries are products of
dual vectors and intersection values whose last bits depend on how the
duals were solved.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from relugeom.cli import main
from relugeom.io import canonical_json

GOLDEN = Path(__file__).resolve().parent / "golden"

# A point on layer3's first hyperplane, on two hyperplanes, on the first
# and third, inside the relative zero band of the first, and two generic
# points.
FACE_POINTS = ["0,-1,0", "0,-1,-3", "-0.5,0,0", "1e-12,-1,0", "1,2,3", "-4,0.5,1"]

CASES = {
    "analyze_square": ["analyze", "--input", "layer3.json"],
    "analyze_contracting": ["analyze", "--input", "layer_contracting.json"],
    "classify_square": ["classify", "--input", "layer3.json"] + [f"--point={p}" for p in FACE_POINTS],
    "classify_tol": ["classify", "--input", "layer3.json", "--tol", "0.6", "--point=0.2,-1.1,0.1"],
    "classify_csv": ["classify", "--input", "layer3.json", "--format", "csv"]
    + [f"--point={p}" for p in FACE_POINTS],
    "classify_contracting": ["classify", "--input", "layer_contracting.json",
                             "--point=1,0,-1,2", "--point=0,0,0,0", "--point=-3,1,0.5,0"],
    "preimage_square": ["preimage", "--input", "layer3.json", "--point=1.5,0,2",
                        "--samples", "30", "--csv", "pre.csv", "--seed", "3"],
    "preimage_contracting": ["preimage", "--input", "layer_contracting.json", "--point=0.4,0",
                             "--samples", "20", "--radius", "2", "--csv", "pre.csv", "--seed", "9"],
    "preimage_empty": ["preimage", "--input", "layer3.json", "--point=1,-2,0"],
    # --tol 0.5 admits the target's -0.2 as a zero component; without it the preimage is empty.
    "preimage_tol": ["preimage", "--input", "layer3.json", "--point=1.5,0,-0.2", "--tol", "0.5",
                     "--samples", "4", "--csv", "pre.csv", "--seed", "6"],
    "boundary_d4": ["boundary", "--input", "net4.json", "--samples", "15", "--csv", "pts.csv", "--seed", "7"],
    "boundary_d3_obj": ["boundary", "--input", "net3.json", "--samples", "10", "--csv", "pts.csv",
                        "--obj", "mesh.obj", "--box=-3,3", "--seed", "2"],
    "boundary_contracting": ["boundary", "--input", "net_contracting.json", "--samples", "5", "--csv", "pts.csv",
                             "--seed", "1"],
    "boundary_d8": ["boundary", "--input", "net8.json", "--samples", "5", "--csv", "pts.csv", "--seed", "8"],
    "deep_boundary": ["deep-boundary", "--input", "deep.json", "--samples", "12", "--fibers", "6",
                      "--csv", "lv", "--seed", "4"],
    "deep_boundary_contracting": ["deep-boundary", "--input", "deep_contracting.json", "--samples", "10",
                                  "--fibers", "8", "--csv", "lv", "--seed", "5"],
}
# Seed-0 reports of the five verify suites that take about 2 s together.
CASES.update(
    {f"verify_{suite}": ["verify", "--suite", suite, "--seed", "0"]
     for suite in ("partition", "image", "decomposition", "canonical", "deep")}
)


def run_case(name: str) -> dict[str, bytes]:
    """Run one case in the current directory; return stdout and written files."""
    argv = list(CASES[name])
    if "--input" in argv:
        spec = argv.index("--input") + 1
        argv[spec] = str(GOLDEN / argv[spec])
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    assert code == 0, stdout.getvalue()
    files = {path.name: path.read_bytes() for path in sorted(Path.cwd().iterdir())}
    files["stdout"] = stdout.getvalue().encode()
    return files


def assert_report_matches(actual: str, expected: str):
    got, want = json.loads(actual), json.loads(expected)
    # Re-serializing must give the report back, so the comparison of the
    # re-serialized object below covers every byte of it.
    assert canonical_json(got) + "\n" == actual
    got["wall_time_ms"] = want["wall_time_ms"]
    if got["command"] == "boundary":
        matrix = got["results"]["canonical"]["matrix"]
        want_matrix = want["results"]["canonical"]["matrix"]
        np.testing.assert_allclose(matrix, want_matrix, rtol=1e-13, atol=0.0)
        got["results"]["canonical"]["matrix"] = want_matrix
    assert canonical_json(got) + "\n" == expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    files = run_case(name)
    stored = GOLDEN / name
    assert sorted(files) == sorted(p.name for p in stored.iterdir())
    for file_name, data in files.items():
        expected = (stored / file_name).read_bytes()
        if file_name == "stdout" and data.startswith(b"{"):
            assert_report_matches(data.decode(), expected.decode())
        else:
            assert data == expected, file_name
