"""The benchmark's four workloads.

Each workload makes its inputs from a seed (``setup``), runs one op on
them (``run``; this is the timed part and the only part that calls the
library), and judges the op's output (``judge``).  The judges never call
the library: every expected value is recomputed here with plain numpy
from the op's inputs, so a wrong answer from the library cannot also be
the reference it is checked against.

Library functions are always looked up through their module at call
time (``rg.enumerate_pieces``, ``rg.cli.main``), never bound at import,
so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

import relugeom as rg
import relugeom.boundary
import relugeom.cli

# Tolerances the library states for its own outputs.
SAMPLE_TOL = 1e-8  # boundary command: max |N(x)| / (1 + |bias|) over samples
LEVEL_TOL = 1e-7  # trace_boundary default: |suffix network value| at each level
ZERO_REL = 1e-9  # classify: relative zero band on the expansion coefficients
ZERO_COMPONENT = 1e-9  # preimage_of_point: absolute zero band on target components
# Conditioning floor of the library's own random instances.
RCOND_FLOOR = 1e-3
# Relative tolerance for recomputed linear algebra (apex, duals, rewrite).
ALGEBRA_REL = 1e-8


@dataclass
class Verdict:
    """Outcome of one op: status, the checks that failed, and its output facts."""

    status: str  # "ok", "refused" or "failed"
    problems: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    digest: bytes = b""


def _fail(problems, counts=None, digest=b"") -> Verdict:
    return Verdict("failed" if problems else "ok", problems, counts or {}, digest)


# --------------------------------------------------------------------------
# Input generation and the benchmark's own arithmetic.


def random_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Gaussian matrix redrawn until its rows meet the conditioning floor."""
    while True:
        a = rng.normal(size=(rows, cols))
        s = np.linalg.svd(a, compute_uv=False)
        if s[-1] / s[0] >= RCOND_FLOOR:
            return a


def readout_weights(rng: np.random.Generator, d: int, m: int) -> np.ndarray:
    """Weights with magnitudes in [0.5, 2] and exactly m negative entries.

    With a negative bias, t_i = -bias / w_i is negative exactly where w_i
    is, so the boundary has class index m.
    """
    w = rng.uniform(0.5, 2.0, size=d)
    w[rng.permutation(d)[:m]] *= -1.0
    return w


def normalized(w: np.ndarray, c: float) -> tuple[np.ndarray, float]:
    return (-w, -c) if c > 0 else (w, c)


def expected_piece_masks(w: np.ndarray, c: float) -> tuple[int, set[int]]:
    """Class index m and the index-set bitmasks of the boundary's pieces.

    Recounted from t = -bias / w: a piece is a nonempty index set J with
    at least one positive t_j.
    """
    w, c = normalized(w, c)
    t = -c / w
    m = int(np.sum(t < 0.0))
    d = w.shape[0]
    positive = sum(1 << i for i in range(d) if t[i] > 0.0)
    masks = np.arange(1, 1 << d)
    return m, set(masks[(masks & positive) != 0].tolist())


def mask_of(indices) -> int:
    return sum(1 << (int(i) - 1) for i in indices)


def shallow_residual(a, b, w, c, x) -> np.ndarray:
    """|N(x)| / (1 + |bias|) for the network relu(a x + b) . w + c."""
    x = np.asarray(x, dtype=float)
    return np.abs(np.maximum(x @ a.T + b, 0.0) @ w + c) / (1.0 + abs(c))


def forward(layers, w, c, x, start: int = 0) -> np.ndarray:
    """Readout of the layer chain from layer ``start`` (0-based) on."""
    h = np.asarray(x, dtype=float)
    for a, b in layers[start:]:
        h = np.maximum(h @ a.T + b, 0.0)
    return h @ w + c


def array_bytes(x) -> bytes:
    return np.ascontiguousarray(np.asarray(x, dtype=float)).tobytes()


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """In-process ``relugeom.cli.main`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = rg.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def report_bytes(stdout: str) -> bytes:
    """The report text without its one nondeterministic line, wall_time_ms."""
    lines = [ln for ln in stdout.splitlines() if not ln.lstrip().startswith('"wall_time_ms"')]
    return "\n".join(lines).encode()


def judge_exit(code: int, stdout: str, stderr: str) -> Verdict | None:
    """Verdict for a CLI run that did not exit 0, or None when it did."""
    if code == 0:
        return None
    if code in (3, 4):
        return Verdict("refused", counts={"exit": code}, digest=report_bytes(stdout))
    return Verdict("failed", [f"exit {code} on a valid spec: {(stdout + stderr).strip()[-300:]}"])


def read_point_csv(path: str) -> tuple[list[str], list[str], np.ndarray]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    labels = [r[0] for r in rows]
    values = np.array([r[1:] for r in rows], dtype=float).reshape(len(rows), len(header) - 1)
    return header, labels, values


def file_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


def fmt_point(x) -> str:
    return ",".join(repr(float(v)) for v in x)


@dataclass
class Op:
    kind: str
    data: dict


class Workload:
    """One seeded, closed-loop workload (one client, one process).

    A run is a sequence of passes; every pass has the same op mix.  Library
    workloads (``fresh``) draw new random instances for every pass, so one
    run samples hundreds of instances and its figures do not hinge on the
    few a seed happens to draw.  CLI workloads repeat the spec files they
    write at set-up.
    """

    name = ""
    tail_pct = 90.0  # the highest decade percentile with >= 10 samples beyond at baseline size
    fresh = False

    def draw(self, rng: np.random.Generator) -> list[Op]:
        """The ops of one pass."""
        raise NotImplementedError

    def passes(self, seed: int):
        """Pass 0, 1, 2, ... of a run with ``seed``."""
        first = self.draw(np.random.default_rng([seed, 0]))
        yield first
        k = 1
        while True:
            yield self.draw(np.random.default_rng([seed, k])) if self.fresh else first
            k += 1

    def run(self, op: Op):
        raise NotImplementedError

    def judge(self, op: Op, out) -> Verdict:
        raise NotImplementedError


# --------------------------------------------------------------------------


class ShallowCensus(Workload):
    """Library pipeline on random shallow networks, d in 2..8, every m in 0..d-1.

    One op is the pipeline on one network; a pass holds one network for
    every (d, m), 35 ops whose sizes spread from under a millisecond to
    the d = 8 networks, so the median and the tail fall among many ops of
    similar size rather than between two far-apart op sizes.
    """

    name = "shallow-census"
    tail_pct = 98.0
    fresh = True
    samples = 4  # samples per piece, actual and canonical
    pattern_max_d = 3

    def draw(self, rng):
        ops = []
        for d in range(2, 9):
            for m in range(d):
                a = random_matrix(rng, d, d)
                b = rng.normal(size=d)
                w = readout_weights(rng, d, m)
                c = -float(rng.uniform(0.5, 2.0))
                if rng.random() < 0.5:  # a positive bias exercises normalization
                    w, c = -w, -c
                ops.append(Op("census", dict(d=d, m=m, a=a, b=b, w=w, c=c, seed=int(rng.integers(2**31)))))
        return ops

    def run(self, op):
        p = op.data
        rng = np.random.default_rng(p["seed"])
        layer = rg.ReluLayer.build(p["a"], p["b"])
        output = rg.OutputLayer(p["w"], p["c"])
        boundary = rg.enumerate_pieces(layer, output)
        witnesses = rg.piece_count_oracle(layer, output)
        samples = [rg.sample_piece(piece, self.samples, rng=rng) for piece in boundary.pieces]
        canonical = rg.canonical_boundary(p["d"], p["m"])
        mapped = [
            boundary.canonical.to_actual(rg.sample_piece(piece, self.samples, rng=rng))
            for piece in canonical.pieces
        ]
        patterns = None
        if p["d"] <= self.pattern_max_d:
            patterns = rg.boundary.sample_boundary_patterns(layer, output, rng)
        return dict(boundary=boundary, witnesses=witnesses, samples=samples, mapped=mapped, patterns=patterns)

    def judge(self, op, out):
        digest = []
        counts = dict(pieces=0, samples=0, patterns=0, pattern_base=0)
        problems = [f"m={op.data['m']}: {problem}" for problem in self._judge_one(op.data, out, counts, digest)]
        return _fail(problems, counts, b"|".join(digest))

    def _judge_one(self, p, out, counts, digest):
        a, b, w, c = p["a"], p["b"], p["w"], p["c"]
        m, masks = expected_piece_masks(w, c)
        expected = len(masks)
        boundary = out["boundary"]
        problems = []
        if expected != 2 ** p["d"] - 2**m:
            problems.append(f"recount gives {expected} pieces, 2^d - 2^m is {2 ** p['d'] - 2**m}")
        if boundary.m != m:
            problems.append(f"m = {boundary.m}, recounted {m}")
        if boundary.piece_count != expected or len(boundary.pieces) != expected:
            problems.append(f"piece count {boundary.piece_count} ({len(boundary.pieces)} listed), expected {expected}")
        if {mask_of(piece.indices) for piece in boundary.pieces} != masks:
            problems.append("enumerated index sets differ from the recounted ones")
        if out["witnesses"] != expected:
            problems.append(f"witness count {out['witnesses']}, expected {expected}")
        for what, groups in (("sample", out["samples"]), ("canonical sample", out["mapped"])):
            points = np.vstack(groups) if groups else np.empty((0, p["d"]))
            if points.shape[0] != self.samples * expected:
                problems.append(f"{points.shape[0]} {what}s, expected {self.samples * expected}")
            worst = float(np.max(shallow_residual(a, b, w, c, points), initial=0.0))
            if not worst <= SAMPLE_TOL:
                problems.append(f"{what} residual {worst:.3e} > {SAMPLE_TOL:.0e}")
        if out["patterns"] is not None:
            found = {mask_of(pattern) for pattern in out["patterns"]}
            counts["patterns"] += len(found)
            counts["pattern_base"] += expected
            if not found <= masks:
                problems.append(f"sampled patterns {sorted(found - masks)} are not pieces")
        counts["pieces"] += expected
        counts["samples"] += len(out["samples"]) * self.samples
        digest.append(json.dumps([p["d"], m, out["witnesses"], sorted(masks), sorted(out["patterns"] or [])]).encode())
        digest += [array_bytes(x) for x in out["samples"] + out["mapped"]]
        return problems


# --------------------------------------------------------------------------


class PointQueries(Workload):
    """CLI classify / preimage / analyze on square (d = 2..10) and contracting layers."""

    name = "point-queries"
    tail_pct = 99.0
    points_per_classify = 32
    preimage_samples = 16
    shapes = [(d, d) for d in range(2, 11)] + [(2, 4), (3, 6), (5, 8)]  # (d_out, d_in)

    def draw(self, rng):
        os.makedirs("specs", exist_ok=True)
        ops = []
        for i, (d_out, d_in) in enumerate(self.shapes):
            a = random_matrix(rng, d_out, d_in)
            b = rng.normal(size=d_out)
            spec = f"specs/layer_{i}.json"
            write_json(spec, {"matrix": a.tolist(), "offset": b.tolist()})
            layer = dict(a=a, b=b, spec=spec)

            # Points near the apex; every fourth is moved onto sector faces
            # by zeroing some expansion coefficients.
            x = -np.linalg.pinv(a) @ b + rng.normal(scale=2.0, size=(self.points_per_classify, d_in))
            lam = x @ a.T + b
            faces = rng.random(lam.shape) < 0.4
            faces[np.arange(len(x)) % 4 != 0] = False
            x = x - (np.where(faces, lam, 0.0)) @ np.linalg.pinv(a).T
            argv = ["classify", "--input", spec] + [f"--point={fmt_point(row)}" for row in x]
            ops.append(Op("classify", dict(layer, points=x, argv=argv)))

            y = rng.uniform(0.1, 2.0, size=d_out)
            y[rng.random(d_out) < 0.4] = 0.0
            if i % 4 == 3:  # a target with a negative component has an empty preimage
                y[int(rng.integers(d_out))] = -0.5
            argv = [
                "preimage", "--input", spec, f"--point={fmt_point(y)}", "--seed", str(int(rng.integers(2**31))),
                "--samples", str(self.preimage_samples), "--csv", "preimage.csv",
            ]
            ops.append(Op("preimage", dict(layer, target=y, argv=argv)))
            ops.append(Op("analyze", dict(layer, argv=["analyze", "--input", spec])))
        return ops

    def run(self, op):
        return run_cli(op.data["argv"])

    def judge(self, op, out):
        code, stdout, stderr = out
        verdict = judge_exit(code, stdout, stderr)
        if verdict is not None:
            return verdict
        report = json.loads(stdout)
        digest = [report_bytes(stdout)]
        counts = {"bytes_out": len(digest[0])}
        problems = getattr(self, f"_judge_{op.kind}")(op.data, report["results"], counts, digest)
        return _fail(problems, counts, b"|".join(digest))

    def _judge_classify(self, p, results, counts, digest):
        a, b, x = p["a"], p["b"], p["points"]
        rows = results["points"]
        if len(rows) != len(x):
            return [f"{len(rows)} classified points, expected {len(x)}"]
        problems = []
        lam = x @ a.T + b
        for k, row in enumerate(rows):
            band = ZERO_REL * (1.0 + float(np.max(np.abs(lam[k]))))
            plus = [i + 1 for i in range(lam.shape[1]) if lam[k, i] > band]
            minus = [i + 1 for i in range(lam.shape[1]) if lam[k, i] < -band]
            zeros = [i + 1 for i in range(lam.shape[1]) if abs(lam[k, i]) <= band]
            if row["sector"] != {"plus": plus, "minus": minus} or row["dimension"] != len(plus) + len(minus):
                problems.append(f"point {k}: sector {row['sector']}, sign pattern gives plus={plus} minus={minus}")
            if row["on_boundary_of"] != zeros:
                problems.append(f"point {k}: on_boundary_of {row['on_boundary_of']}, expected {zeros}")
            if not np.allclose(row["coefficients"], lam[k], rtol=0.0, atol=band):
                problems.append(f"point {k}: coefficients differ from A x + b")
        counts["points"] = len(rows)
        return problems

    def _judge_preimage(self, p, results, counts, digest):
        a, b, y = p["a"], p["b"], p["target"]
        empty = bool(np.any(y < -ZERO_COMPONENT))
        if results["empty"] != empty:
            return [f"empty = {results['empty']}, expected {empty}"]
        if empty:
            return []
        problems = []
        zeros = [i + 1 for i in range(len(y)) if y[i] <= ZERO_COMPONENT]
        if results["generator_indices"] != zeros:
            problems.append(f"generators {results['generator_indices']}, zero components {zeros}")
        stated = results["samples"]["tolerance"]
        if not results["samples"]["max_residual"] <= stated:
            problems.append(f"reported residual {results['samples']['max_residual']:.3e} > {stated:.3e}")
        _, labels, x = read_point_csv("preimage.csv")
        if len(labels) != self.preimage_samples:
            problems.append(f"CSV has {len(labels)} rows, expected {self.preimage_samples}")
        worst = float(np.max(np.abs(np.maximum(x @ a.T + b, 0.0) - y), initial=0.0))
        if not worst <= stated:
            problems.append(f"preimage sample maps {worst:.3e} away from the target (tolerance {stated:.3e})")
        counts["bytes_out"] += os.path.getsize("preimage.csv")
        digest.append(file_bytes("preimage.csv"))
        return problems

    def _judge_analyze(self, p, results, counts, digest):
        a, b = p["a"], p["b"]
        apex = np.asarray(results["apex"], dtype=float)
        duals = np.asarray(results["duals"], dtype=float).reshape(a.shape)
        scale = 1.0 + float(np.max(np.abs(a))) * (float(np.max(np.abs(apex))) + float(np.max(np.abs(duals))))
        problems = []
        if results["d_in"] != a.shape[1] or results["d_out"] != a.shape[0]:
            problems.append("dimensions differ from the spec")
        if not float(np.max(np.abs(a @ apex + b))) <= ALGEBRA_REL * scale:
            problems.append("apex does not solve A x + b = 0")
        if not float(np.max(np.abs(a @ duals.T - np.eye(a.shape[0])))) <= ALGEBRA_REL * scale:
            problems.append("duals violate a_j . a_i* = delta_ij")
        if results["sector_counts"]["total"] != 3 ** a.shape[0]:
            problems.append(f"sector total {results['sector_counts']['total']}, expected {3 ** a.shape[0]}")
        return problems


# --------------------------------------------------------------------------


class BoundaryExport(Workload):
    """CLI boundary export: CSV samples at d in {6, 8, 10, 12}, OBJ mesh at d = 3."""

    name = "boundary-export"
    tail_pct = 90.0
    samples = 4
    # One pass: (kind, d, m) of 9 mesh and 15 CSV exports.  m is fixed per
    # slot, so the piece counts 2^d - 2^m (and the work) do not depend on
    # the seed, and spread within each d: the median falls in the middle of
    # the six d = 6 exports (32..63 pieces) and the p90 among the d = 10
    # exports (512..1022 pieces), each among ops of neighbouring sizes.
    # Meshes use m = 0: with every readout weight positive the boundary
    # leaves the apex's negative region inside the box, so the mesh is not
    # empty.  With m >= 1 the readout can be negative on the whole box, and
    # an empty mesh would then be the right output.
    slots = ([("obj", 3, 0)] * 9 + [("csv", 6, m) for m in range(6)]
             + [("csv", 8, m) for m in (1, 3, 5, 7)] + [("csv", 10, m) for m in (1, 4, 7, 9)] + [("csv", 12, 11)])
    box = (-5.0, 5.0)

    def draw(self, rng):
        os.makedirs("specs", exist_ok=True)
        ops = []
        for i, (kind, d, m) in enumerate(self.slots):
            a = random_matrix(rng, d, d)
            apex = rng.uniform(-1.0, 1.0, size=d)  # inside the mesh box
            b = -a @ apex
            w = readout_weights(rng, d, m)
            c = -float(rng.uniform(0.5, 2.0))
            spec = f"specs/net_{i}.json"
            write_json(spec, {"layers": [{"matrix": a.tolist(), "offset": b.tolist()}],
                              "output": {"weights": w.tolist(), "bias": c}})
            if kind == "obj":
                argv = ["boundary", "--input", spec, "--obj", "mesh.obj"]
            else:
                argv = ["boundary", "--input", spec, "--seed", str(int(rng.integers(2**31))),
                        "--samples", str(self.samples), "--csv", "samples.csv"]
            ops.append(Op(kind, dict(d=d, a=a, b=b, w=w, c=c, argv=argv)))
        # Every 7th slot in turn (7 is prime to 24): sizes interleave, so no
        # stretch of the pass is all large exports.
        return [ops[k * 7 % len(ops)] for k in range(len(ops))]

    def run(self, op):
        return run_cli(op.data["argv"])

    def judge(self, op, out):
        code, stdout, stderr = out
        verdict = judge_exit(code, stdout, stderr)
        if verdict is not None:
            return verdict
        p = op.data
        a, b, w, c = p["a"], p["b"], p["w"], p["c"]
        results = json.loads(stdout)["results"]
        m, masks = expected_piece_masks(w, c)
        expected = len(masks)
        problems = []
        if results["m"] != m or results["piece_count"] != expected:
            problems.append(f"m = {results['m']}, {results['piece_count']} pieces; recount gives m = {m}, {expected}")
        labels = {piece_label(piece["J"]) for piece in results["pieces"]}
        if {mask_of(piece["J"]) for piece in results["pieces"]} != masks or len(labels) != expected:
            problems.append("listed index sets differ from the recounted ones")
        if "oracle" in results and results["oracle"]["witness_count"] != expected:
            problems.append(f"witness count {results['oracle']['witness_count']}, expected {expected}")
        digest = [report_bytes(stdout)]
        counts = {"pieces": expected, "bytes_out": len(digest[0])}
        path = "mesh.obj" if op.kind == "obj" else "samples.csv"
        counts["bytes_out"] += os.path.getsize(path)
        digest.append(file_bytes(path))
        if op.kind == "obj":
            problems += self._judge_obj(p, results, path, counts)
        else:
            problems += self._judge_csv(p, results, path, labels, expected, counts)
        return _fail(problems, counts, b"|".join(digest))

    def _judge_csv(self, p, results, path, labels, expected, counts):
        problems = []
        stated = results["samples"]["tolerance"]
        header, row_labels, values = read_point_csv(path)
        rows = len(row_labels)
        if rows != expected * self.samples:
            problems.append(f"CSV has {rows} rows, expected {expected} pieces x {self.samples} samples")
        if set(row_labels) != labels:
            problems.append("CSV labels differ from the reported pieces")
        if header[-1] != "residual":
            return problems + ["CSV has no residual column"]
        worst = float(np.max(shallow_residual(p["a"], p["b"], p["w"], p["c"], values[:, :-1]), initial=0.0))
        if not worst <= stated or not float(np.max(values[:, -1], initial=0.0)) <= stated:
            problems.append(f"sample residual {worst:.3e} > stated {stated:.0e}")
        counts["rows"] = rows
        return problems

    def _judge_obj(self, p, results, path, counts):
        fans, vertices, faces = [], [], 0  # fans: vertex count of each group
        with open(path) as fh:
            for line in fh:
                if line.startswith("g "):
                    fans.append(0)
                elif line.startswith("v "):
                    vertices.append([float(v) for v in line.split()[1:]])
                    fans[-1] += 1
                elif line.startswith("f "):
                    faces += 1
        groups = len(fans)
        problems = ["a mesh group has fewer than 3 vertices"] if any(n < 3 for n in fans) else []
        in_box = results["obj"]["pieces_in_box"]
        if in_box < 1:
            problems.append("mesh is empty")
        if groups != in_box:
            problems.append(f"OBJ has {groups} groups, report says {in_box} pieces in the box")
        v = np.asarray(vertices, dtype=float).reshape(-1, 3)
        if faces != len(v) - 2 * groups:
            problems.append(f"OBJ has {faces} faces for {len(v)} vertices in {groups} fans")
        lo, hi = self.box
        if np.any(v < lo - 1e-9) or np.any(v > hi + 1e-9):
            problems.append("mesh vertex outside the box")
        worst = float(np.max(shallow_residual(p["a"], p["b"], p["w"], p["c"], v), initial=0.0))
        if not worst <= SAMPLE_TOL:
            problems.append(f"mesh vertex residual {worst:.3e} > {SAMPLE_TOL:.0e}")
        counts["faces"] = faces
        return problems


def piece_label(indices) -> str:
    return "-".join(str(i) for i in indices)


# --------------------------------------------------------------------------


class DeepTrace(Workload):
    """Library rewrite and boundary trace on deep networks, depth 2..4, width 3..6."""

    name = "deep-trace"
    tail_pct = 99.0
    fresh = True
    batch = 64
    samples_per_piece = 50
    repeats = 3  # instances per (depth, width) in one pass

    def draw(self, rng):
        ops = []
        for _ in range(self.repeats):
            for depth in (2, 3, 4):
                for width in (3, 4, 5, 6):
                    layers = []
                    for _ in range(depth):
                        a = random_matrix(rng, width, width)
                        apex = rng.uniform(0.2, 1.5, size=width)  # inside the positive orthant
                        layers.append((a, -a @ apex))
                    w = readout_weights(rng, width, width // 3)
                    c = -float(rng.uniform(0.5, 2.0))
                    x = rng.normal(loc=0.5, size=(self.batch, width))
                    ops.append(Op("trace", dict(layers=layers, w=w, c=c, x=x, seed=int(rng.integers(2**31)))))
        return ops

    def run(self, op):
        p = op.data
        net = rg.ReluNetwork.from_arrays([a for a, _ in p["layers"]], [b for _, b in p["layers"]], p["w"], p["c"])
        structure = rg.canonical_structure(net)
        rewritten = rg.evaluate_canonical(structure, p["x"])
        direct = rg.evaluate_network(net, p["x"])
        out = dict(rewritten=rewritten, direct=direct, levels=None, refusal=None)
        try:
            out["levels"] = rg.trace_boundary(
                net, samples_per_piece=self.samples_per_piece, rng=np.random.default_rng(p["seed"])
            )
        except rg.GeometryError as exc:  # documented refusal, e.g. EmptyIntersection
            out["refusal"] = type(exc).__name__
        return out

    def judge(self, op, out):
        p = op.data
        layers, w, c = p["layers"], p["w"], p["c"]
        depth = len(layers)
        own = forward(layers, w, c, p["x"])
        tol = ALGEBRA_REL * (1.0 + float(np.max(np.abs(own))))
        problems = []
        for what, value in (("rewritten", out["rewritten"]), ("direct", out["direct"])):
            if not float(np.max(np.abs(np.asarray(value) - own))) <= tol:
                problems.append(f"{what} evaluation differs from the forward pass")
        if not float(np.max(np.abs(np.asarray(out["rewritten"]) - np.asarray(out["direct"])))) <= tol:
            problems.append("rewrite residual above tolerance")
        digest = [array_bytes(out["rewritten"]), array_bytes(out["direct"])]
        counts = {"traces": 1, "reached": 0, "level_points": []}
        if out["refusal"] is not None:
            digest.append(out["refusal"].encode())
            return Verdict("failed" if problems else "refused", problems, counts, b"|".join(digest))
        levels = out["levels"]
        if sorted(levels) != list(range(1, depth + 1)):
            return _fail(problems + [f"levels {sorted(levels)}, expected 1..{depth}"], counts)
        _, masks = expected_piece_masks(w, c)
        if len(levels[depth]) != len(masks) * self.samples_per_piece:
            problems.append(f"top level has {len(levels[depth])} points, expected {len(masks)} x {self.samples_per_piece}")
        for k in range(depth, 0, -1):
            points = levels[k].points
            worst = float(np.max(np.abs(forward(layers, w, c, points, start=k - 1)), initial=0.0))
            if not worst <= LEVEL_TOL:
                problems.append(f"level {k} point off the boundary by {worst:.3e}")
            digest.append(array_bytes(points))
        counts["level_points"] = [len(levels[k]) for k in range(1, depth + 1)]
        counts["reached"] = int(len(levels[1]) > 0)
        return _fail(problems, counts, b"|".join(digest))


WORKLOADS = {wl.name: wl for wl in (ShallowCensus(), PointQueries(), BoundaryExport(), DeepTrace())}


def digest_of(parts: list[bytes]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return "sha256:" + h.hexdigest()
