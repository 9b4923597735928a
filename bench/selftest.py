"""Self-test of the benchmark: its judges must not be vacuous.

Each planted fault makes the library return a wrong answer for one op
(a piece count off by one, a flipped sector sign, a sample moved off the
boundary, ...) and asserts that the op is counted as failed.  Documented
refusals must count as refused, not failed.  Every workload also runs
one pass at its normal size, and the command itself runs end to end.

Run from the repository root::

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.import_library()
import numpy as np  # noqa: E402

import relugeom  # noqa: E402
import relugeom.cli  # noqa: E402
import workloads  # noqa: E402
from relugeom.errors import EmptyIntersection, RankDeficient, SchemaError  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


@pytest.fixture
def workdir():
    scratch = run.ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="selftest-", dir=scratch)
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(cwd)
        shutil.rmtree(path, ignore_errors=True)


def first_op(name: str, kind: str | None = None, where=lambda op: True):
    workload = workloads.WORKLOADS[name]
    ops = next(workload.passes(0))
    return workload, next(op for op in ops if (kind is None or op.kind == kind) and where(op))


def outcome(workload, op) -> workloads.Verdict:
    verdict, _ = run.attempt(workload, op)
    return verdict


def shifted(fn, delta):
    return lambda *args, **kwargs: fn(*args, **kwargs) + delta


def raise_(exc):
    def raising(*args, **kwargs):
        raise exc

    return raising


def count_plus_one(fn):
    def wrong(*args):
        boundary = fn(*args)
        return dataclasses.replace(boundary, piece_count=boundary.piece_count + 1)

    return wrong


def other_class(fn):
    return lambda d, m: fn(d, (m + 1) % d)


def extra_pattern(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs) | {()}


def flipped_sign(fn):
    def wrong(*args, **kwargs):
        sector = fn(*args, **kwargs)
        return type(sector)(sector.d, sector.minus_mask, sector.plus_mask)

    return wrong


def moved_points(fn):
    return lambda path, labels, points, *rest: fn(path, labels, np.asarray(points) + 1e-3, *rest)


def moved_apex(fn):
    def wrong(affine):
        frame = fn(affine)
        return dataclasses.replace(frame, apex=frame.apex + 1.0)

    return wrong


def dropped_row(fn):
    return lambda path, labels, points, extra: fn(
        path, labels[:-1], points[:-1], {key: column[:-1] for key, column in extra.items()}
    )


def moved_levels(fn):
    def wrong(*args, **kwargs):
        levels = fn(*args, **kwargs)
        return {k: dataclasses.replace(s, points=s.points + 1e-3) for k, s in levels.items()}

    return wrong


def ok_trace(op):
    return outcome(workloads.WORKLOADS["deep-trace"], op).status == "ok"


def nonempty_target(op):
    return bool(np.all(op.data["target"] >= 0.0))


# fault: (workload, op kind or None, op filter or None, owner, attribute, wrong version)
PLANTED = {
    "piece count off by one": ("shallow-census", None, None, relugeom, "enumerate_pieces", count_plus_one),
    "witness count off by one": ("shallow-census", None, None, relugeom, "piece_count_oracle",
                                 lambda fn: shifted(fn, 1)),
    "piece sample off the boundary": ("shallow-census", None, None, relugeom, "sample_piece",
                                      lambda fn: shifted(fn, 1e-3)),
    "canonical boundary of another class": ("shallow-census", None, None, relugeom, "canonical_boundary",
                                            other_class),
    "sampled pattern that is no piece": ("shallow-census", None, lambda op: op.data["d"] == 3,
                                         relugeom.boundary, "sample_boundary_patterns", extra_pattern),
    "flipped sector sign": ("point-queries", "classify", None, relugeom.cli, "classify", flipped_sign),
    "preimage sample off the target": ("point-queries", "preimage", nonempty_target, relugeom.cli,
                                       "write_point_csv", moved_points),
    "apex moved": ("point-queries", "analyze", None, relugeom.cli, "build_dual_frame", moved_apex),
    "exit 2 on a valid spec": ("point-queries", "analyze", None, relugeom.cli, "parse_layer_spec",
                               lambda fn: raise_(SchemaError("planted"))),
    "traceback": ("point-queries", "analyze", None, relugeom.cli, "sector_counts",
                  lambda fn: raise_(ZeroDivisionError("planted"))),
    "CSV row missing": ("boundary-export", "csv", None, relugeom.cli, "write_point_csv", dropped_row),
    "empty OBJ": ("boundary-export", "obj", None, relugeom.cli, "write_obj",
                  lambda fn: lambda path, polygons: fn(path, [])),
    "rewrite residual": ("deep-trace", None, ok_trace, relugeom, "evaluate_canonical",
                         lambda fn: shifted(fn, 1.0)),
    "trace point off the boundary": ("deep-trace", None, ok_trace, relugeom, "trace_boundary", moved_levels),
}


@pytest.mark.parametrize("fault", sorted(PLANTED))
def test_planted_fault_counts_as_failed(fault, workdir, monkeypatch):
    name, kind, where, owner, attr, make = PLANTED[fault]
    workload, op = first_op(name, kind, where or (lambda op: True))
    assert outcome(workload, op).status == "ok", "the op must pass before the fault is planted"
    monkeypatch.setattr(owner, attr, make(getattr(owner, attr)))
    verdict = outcome(workload, op)
    assert verdict.status == "failed", verdict


@pytest.mark.parametrize(
    "name, owner, attr, exc",
    [
        ("deep-trace", relugeom, "trace_boundary", EmptyIntersection("planted")),
        ("deep-trace", relugeom, "canonical_structure", RankDeficient("planted")),
        ("boundary-export", relugeom.cli, "enumerate_pieces", RankDeficient("planted")),
    ],
)
def test_documented_refusal_counts_as_refused(name, owner, attr, exc, workdir, monkeypatch):
    workload, op = first_op(name)
    monkeypatch.setattr(owner, attr, raise_(exc))
    assert outcome(workload, op).status == "refused"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_of_every_workload(name, workdir):
    workload = workloads.WORKLOADS[name]
    ops = next(workload.passes(0))
    verdicts = [outcome(workload, op) for op in ops]
    failed = [v.problems for v in verdicts if v.status == "failed"]
    assert not failed
    assert any(v.status == "ok" for v in verdicts)


def test_tracer_attributes_calls_and_restores(workdir):
    workload, op = first_op("shallow-census", where=lambda op: op.data["d"] == 3)
    original = relugeom.enumerate_pieces
    tracer = Tracer()
    tracer.install()
    try:
        assert relugeom.enumerate_pieces is not original
        tracer.op_id = 0
        verdict, elapsed = run.attempt(workload, op)
    finally:
        tracer.uninstall()
    assert relugeom.enumerate_pieces is original
    assert verdict.status == "ok"
    stats = self_times(tracer.arrays())
    assert stats["boundary.enumerate_pieces"][0] == 2  # the network and its canonical boundary
    assert stats["core.build_dual_frame"][0] >= 2
    assert stats["boundary.piece_count_oracle"][0] == 1
    total_self = sum(own for _, own in stats.values())
    assert 0.0 < total_self <= elapsed


def test_times_are_divided_by_the_host_factor_around_each_op():
    import speed

    phase = run.Phase(n_pool=0)
    nominal = speed.NOMINAL_S
    phase.reference = [nominal] * speed.AROUND  # a host at the nominal speed ...
    phase.add(0, workloads.Verdict("ok"), 0.010)
    phase.reference += [2.0 * nominal] * (3 * speed.AROUND)  # ... then 2x slower, for long
    phase.add(1, workloads.Verdict("ok"), 0.030)
    phase.add(2, workloads.Verdict("ok"), 0.020)
    assert phase.scaled()[1:] == pytest.approx([0.015, 0.010])
    assert phase.p50(scaled=False) == pytest.approx(0.020)
    assert phase.ops_per_s(scaled=False) == pytest.approx(3 / 0.060)
    assert phase.tail(90.0, scaled=False) == (pytest.approx(0.030), 0)
    assert phase.host_factor() == pytest.approx((6 + 26 * 2.0) / 32)  # fastest and slowest tenth left out


def run_command(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_command_prints_result_line():
    proc = run_command(run.ROOT, "--workload", "shallow-census", "--seed", "3", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_command_refuses_without_library(workdir):
    shutil.copytree(run.ROOT / "bench", Path(workdir) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", workdir)
    proc = run_command(workdir, "--workload", "deep-trace", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
