"""Command-line interface.

Commands: analyze, classify, preimage, boundary, deep-boundary, verify.
Every command reads a JSON spec, writes a JSON run report to stdout, and
exits with a fixed code; each error class carries its code as
``exit_code``:

    0  success
    1  verification failure (a suite found a counterexample)
    2  schema or argument error
    3  degenerate geometry (rank, conditioning, bias, direction, empty boundary)
    4  resource guard (enumeration dimension or sample size limit)

Randomized commands take --seed (default 0); identical input and seed
reproduce identical reports byte for byte, except for the wall_time_ms
field.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time

import numpy as np

from . import __version__
from .boundary import enumerate_pieces, piece_count_oracle
from .core import ReluLayer, build_dual_frame
from .errors import GeometryError, RankDeficient, SchemaError
from .io import (
    canonical_json,
    label_bytes,
    load_json,
    parse_layer_spec,
    parse_network_spec,
    piece_records,
    point_records,
    sector_csv,
    verify_lines,
    write_level_csv,
    write_obj,
    write_point_csv,
)
from .layer import evaluate, preimage_of_point
from .mesh import piece_polygons
from .network import ReluNetwork, sample_shallow_boundary, trace_boundary
from .partition import classify_many, sector_counts
from .tolerances import RCOND_MIN, WITNESS_MAX_DIM, ZERO_COMPONENT_TOL
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY = 1


def _emit(report: dict):
    sys.stdout.write(canonical_json(report) + "\n")


def _report(args, digest: str, results: dict, started: float) -> dict:
    """The report envelope; it carries the seed exactly when the command takes ``--seed``."""
    out = {
        "command": args.command,
        "input_digest": digest,
        "version": __version__,
    }
    if "seed" in args:
        out["seed"] = args.seed
    out["results"] = results
    out["wall_time_ms"] = (time.monotonic() - started) * 1000.0
    return out


def _parse_points(values, d: int) -> np.ndarray:
    """The points of comma-separated texts as an (n, d) array.

    Every coordinate is converted in one pass; when that fails, the
    per-point loop names the first bad point, with a parse error before a
    count error before a finiteness error.
    """
    try:
        coords = list(map(float, ",".join(values).split(",")))
    except ValueError:
        coords = None
    if coords is not None and all(text.count(",") == d - 1 for text in values):
        points = np.array(coords).reshape(len(values), d)
        if np.isfinite(points).all():
            return points
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


def _write(option: str, writer, path: str, *payload):
    """``writer(path, *payload)``; an unwritable path is a schema error naming the option."""
    try:
        writer(path, *payload)
    except OSError as exc:
        raise SchemaError(f"cannot write {option} file: {exc}") from exc


def _check_arguments(args):
    """Reject numeric flag values outside their domain as schema errors.

    Counts, seeds, radii and tolerances are nonnegative (NaN is not), the
    radius is finite and the clip box is a finite interval lo < hi.
    ``--csv`` and ``--obj`` need a nonempty path, and ``--csv`` writes
    the drawn samples, so it needs ``--samples`` of at least 1.  The
    namespace holds only the flags of the chosen command.
    """
    for flag in ("seed", "samples", "fibers", "radius", "tol", "level_tol"):
        value = getattr(args, flag, None)
        if value is not None and not value >= 0:
            raise SchemaError(f"--{flag.replace('_', '-')} must be a nonnegative number, got {value}")
    for flag in ("csv", "obj"):
        if getattr(args, flag, None) == "":
            raise SchemaError(f"--{flag} needs a nonempty path")
    if getattr(args, "csv", None) is not None and getattr(args, "samples", None) == 0:
        raise SchemaError("--csv writes the drawn samples, so it needs --samples of at least 1")
    if not math.isfinite(getattr(args, "radius", 0.0)):
        raise SchemaError(f"--radius must be finite, got {args.radius}")
    lo, hi = getattr(args, "box", (0.0, 1.0))
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise SchemaError(f"--box must be finite numbers lo < hi, got {lo},{hi}")


def _refuse_rounding_beyond(
    args, tolerance: float, layer: ReluLayer, points, weights, offset, at_radius_zero=None
):
    """Refuse a ``--radius`` (with ``--level-tol`` where the command has it,
    since a tolerance of 0 is below any rounding) at which rounding alone
    could carry a stated residual past its stated ``tolerance``.

    The residuals are |relu(A x + b) @ weights + offset| at ``points``:
    a boundary readout's value (its weight vector and bias) or a preimage
    sample's distance to the target y (the identity and -y).  Evaluating
    one in floats errs by at most about
    (d + 2) eps ((|A| |x| + |b|) @ |weights| + |offset|), d the input
    dimension; at radius 1 or 2 this is near 1e-14.  The bound is convex
    in x, so over a draw at radius 0 it peaks at the points
    ``at_radius_zero`` (the vertices apex + t_j a_j*, t_j > 0, of a
    boundary, the base point of a preimage).  When it already exceeds the
    tolerance there, no radius helps: the frame is too ill-conditioned
    for the tolerance, and the refusal is RankDeficient naming
    ``conditioning``.
    """
    a = layer.affine

    def bound(x) -> float:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow makes the bound inf or NaN: refused
            size = (np.abs(x) @ np.abs(a.matrix).T + np.abs(a.offset)) @ np.abs(weights) + np.abs(offset)
            return (layer.d_in + 2) * np.finfo(float).eps * float(np.max(size))

    rounding = bound(points)
    if rounding <= tolerance:
        return
    if at_radius_zero is not None and not (frame := bound(at_radius_zero)) <= tolerance:
        raise RankDeficient(
            f"conditioning: at radius 0 rounding alone can move a sample's residual by up to "
            f"{frame:.3g}, beyond the stated tolerance {tolerance:g}"
        )
    flags = f"--radius {args.radius:g}"
    if "level_tol" in args:
        flags += f" with --level-tol {args.level_tol:g}"
    raise SchemaError(
        f"{flags}: rounding alone can move a sample's residual by up to {rounding:.3g}, "
        f"beyond the stated tolerance {tolerance:g}"
    )


def cmd_analyze(args) -> int:
    started = time.monotonic()
    spec, digest = load_json(args.input)
    affine, name = parse_layer_spec(spec)
    layer = build_dual_frame(affine)
    counts = sector_counts(layer.d_out)
    results = {
        "name": name,
        "d_in": affine.d_in,
        "d_out": affine.d_out,
        "contracting": layer.is_contracting,
        "apex": layer.apex,
        "duals": layer.duals,
        "conditioning": layer.conditioning,
        "sector_counts": {
            "total": sum(counts.values()),
            "by_dimension": [{"k": k, "count": c} for k, c in sorted(counts.items())],
        },
        "tolerances": {"rcond_gate": RCOND_MIN},
    }
    if layer.is_contracting:
        results["row_span_basis"] = layer.row_span_basis
        results["complement_basis"] = layer.complement_basis
    _emit(_report(args, digest, results, started))
    return EXIT_OK


def cmd_classify(args) -> int:
    started = time.monotonic()
    spec, digest = load_json(args.input)
    affine, _ = parse_layer_spec(spec)
    layer = build_dual_frame(affine)
    points = _parse_points(args.point, affine.d_in)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        coefficients, plus, minus, zero = classify_many(layer, points, args.tol)
    overflowing = ~np.isfinite(coefficients).all(axis=1)
    if overflowing.any():
        raise SchemaError(
            f"point {points[overflowing][0].tolist()} has expansion coefficients beyond the float range"
        )
    if args.format == "csv":
        sys.stdout.write(sector_csv(points, plus, minus))
        return EXIT_OK
    records = functools.partial(point_records, points, coefficients, plus, minus, zero)
    results = {"points": records, "zero_tolerance": args.tol if args.tol is not None else "relative 1e-9"}
    _emit(_report(args, digest, results, started))
    return EXIT_OK


def cmd_preimage(args) -> int:
    started = time.monotonic()
    spec, digest = load_json(args.input)
    affine, _ = parse_layer_spec(spec)
    layer = build_dual_frame(affine)
    (y,) = _parse_points([args.point], layer.d_out)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        pre = preimage_of_point(layer, y, zero_tol=args.tol)
    if pre is None:
        _emit(_report(args, digest, {"empty": True, "target": y}, started))
        return EXIT_OK
    if not np.isfinite(pre.base).all():
        raise SchemaError(f"point {y.tolist()} has a preimage base point beyond the float range")
    tolerance = 1e-8 * (1.0 + float(np.max(np.abs(pre.target))))
    (swept,) = ((pre.target > tolerance) & (pre.target <= args.tol)).nonzero()
    if swept.size:
        raise SchemaError(
            f"--tol {args.tol:g} sweeps target components {(swept + 1).tolist()} as zeros, "
            f"but their values exceed the stated tolerance {tolerance:g}"
        )
    results = {
        "empty": False,
        "target": pre.target,
        "base": pre.base,
        "generator_indices": list(pre.generator_indices),
        "generators": pre.generators,
        "dimension": pre.dimension(),
        "source_sector": pre.source_sector.to_json(),
    }
    if args.samples:
        rng = np.random.default_rng(args.seed)
        with np.errstate(over="ignore", invalid="ignore"):  # rejected below
            samples = pre.sample(args.samples, radius=args.radius, rng=rng)
            residual = float(np.max(np.abs(evaluate(layer, samples) - pre.target)))
        if not (np.isfinite(samples).all() and math.isfinite(residual)):
            raise SchemaError(f"--radius {args.radius:g} puts preimage samples beyond the float range")
        identity = np.eye(layer.d_out)
        _refuse_rounding_beyond(args, tolerance, layer, samples, identity, -pre.target, pre.base[None])
        results["samples"] = {
            "count": args.samples,
            "max_residual": residual,
            "tolerance": tolerance,
        }
        if args.csv is not None:
            _write("--csv", write_point_csv, args.csv, ["preimage"] * args.samples, samples)
            results["samples"]["csv"] = args.csv
    _emit(_report(args, digest, results, started))
    return EXIT_OK


def cmd_boundary(args) -> int:
    started = time.monotonic()
    spec, digest = load_json(args.input)
    affines, output = parse_network_spec(spec)
    if len(affines) != 1:
        raise SchemaError("this command needs a network spec with exactly one layer")
    layer = build_dual_frame(affines[0])
    boundary = enumerate_pieces(layer, output)
    results = {
        "d": boundary.d,
        "t": boundary.t,
        "m": boundary.m,
        "piece_count": boundary.piece_count,
        "curvature": boundary.curvature,
        "pieces": functools.partial(piece_records, boundary.grades),
        "canonical": {
            "m": boundary.m,
            "sigma": list(boundary.canonical.sigma),
            "scale": boundary.canonical.scale,
            "matrix": boundary.canonical.to_actual.matrix,
            "offset": boundary.canonical.to_actual.offset,
        },
    }
    if boundary.d <= WITNESS_MAX_DIM:
        witness = piece_count_oracle(layer, output)
        results["oracle"] = {
            "witness_count": witness,
            "enumerated": boundary.piece_count,
            "agrees": witness == boundary.piece_count,
        }
    if args.samples:
        rng = np.random.default_rng(args.seed)
        drawn = sample_shallow_boundary(boundary, 1, args.samples, args.radius, rng)
        readout, scale = boundary.readout, 1.0 + abs(boundary.readout.bias)
        tolerance = 1e-8
        positive = boundary.t > 0.0
        vertices = layer.apex + boundary.t[positive, None] * layer.duals[positive]
        _refuse_rounding_beyond(
            args, tolerance, layer, drawn.points, readout.weights / scale, readout.bias / scale, vertices
        )
        residuals = drawn.residuals / scale
        results["samples"] = {
            "per_piece": args.samples,
            "max_residual": float(np.max(residuals)),
            "tolerance": tolerance,
        }
        if args.csv is not None:
            labels = np.repeat(label_bytes(boundary.grades), args.samples, axis=0)
            _write("--csv", write_point_csv, args.csv, labels, drawn.points, {"residual": residuals})
            results["samples"]["csv"] = args.csv
    if args.obj is not None:
        lo, hi = args.box
        polys = piece_polygons(boundary, lo, hi)
        _write("--obj", write_obj, args.obj, polys)
        results["obj"] = {"path": args.obj, "box": [lo, hi], "pieces_in_box": len(polys)}
    _emit(_report(args, digest, results, started))
    return EXIT_OK


def cmd_deep_boundary(args) -> int:
    started = time.monotonic()
    spec, digest = load_json(args.input)
    affines, output = parse_network_spec(spec)
    layers = tuple(build_dual_frame(a) for a in affines)
    net = ReluNetwork(layers, output)
    rng = np.random.default_rng(args.seed)
    levels = trace_boundary(
        net,
        samples_per_piece=args.samples,
        radius=args.radius,
        rng=rng,
        max_fibers=args.fibers,
        tol=args.level_tol,
    )
    # Pulled-back levels keep only points within --level-tol; the seed level is drawn unfiltered.
    _refuse_rounding_beyond(
        args, args.level_tol, layers[-1], levels[net.depth].points, output.weights, output.bias
    )
    per_level = []
    for level in sorted(levels, reverse=True):
        sample_set = levels[level]
        entry = {
            "level": level,
            "points": len(sample_set),
            "max_residual": float(np.max(sample_set.residuals, initial=0.0)),
            "tolerance": args.level_tol,
        }
        if args.csv is not None:
            path = f"{args.csv}_level{level}.csv"
            _write("--csv", write_level_csv, path, sample_set)
            entry["csv"] = path
        per_level.append(entry)
    results = {"depth": net.depth, "levels": per_level}
    _emit(_report(args, digest, results, started))
    return EXIT_OK


def cmd_verify(args) -> int:
    started = time.monotonic()
    suite = run_suite(args.suite, args.seed)
    sys.stderr.write(verify_lines(suite))
    report = {
        "command": f"verify {args.suite}",
        "seed": args.seed,
        "version": __version__,
        "results": suite.to_json(),
        "wall_time_ms": (time.monotonic() - started) * 1000.0,
    }
    if not suite.passed:
        report["first_counterexample"] = suite.first_counterexample()
    _emit(report)
    return EXIT_OK if suite.passed else EXIT_VERIFY


def _box_pair(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected 'lo,hi', got {text!r}") from exc
    return lo, hi


class _ArgumentParser(argparse.ArgumentParser):
    """Argument parser whose errors are schema errors: a malformed command
    line exits 2 with a JSON body, like any other bad input."""

    def error(self, message):
        raise SchemaError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="relugeom",
        description="Geometry of fully connected ReLU layers and their decision boundaries.",
    )
    parser.add_argument("--version", action="version", version=f"relugeom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=True):
        p.add_argument("--input", required=True, help="path to the JSON spec")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")

    p = sub.add_parser("analyze", help="dual frame, apex, conditioning, sector counts")
    add_common(p, seed=False)

    p = sub.add_parser("classify", help="sector classification of points")
    add_common(p, seed=False)
    p.add_argument("--point", action="append", required=True, help="comma-separated coordinates")
    p.add_argument("--tol", type=float, default=None, help="zero band for coefficients")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("preimage", help="exact preimage of a codomain point")
    add_common(p)
    p.add_argument("--point", required=True, help="comma-separated target coordinates")
    p.add_argument("--tol", type=float, default=ZERO_COMPONENT_TOL, help="zero band for target components")
    p.add_argument("--samples", type=int, default=0, help="sample the preimage set")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--csv", help="write samples to this CSV path")

    p = sub.add_parser("boundary", help="exact decision boundary of a shallow network")
    add_common(p)
    p.add_argument("--samples", type=int, default=0, help="samples per piece")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--csv", help="write samples to this CSV path")
    p.add_argument("--obj", help="write a clipped mesh to this OBJ path (d=3)")
    p.add_argument("--box", type=_box_pair, default=(-5.0, 5.0), help="clip box 'lo,hi'")

    p = sub.add_parser("deep-boundary", help="sampled boundary recursion through all layers")
    add_common(p)
    p.add_argument("--samples", type=int, default=50, help="samples per piece at the top level")
    p.add_argument("--radius", type=float, default=2.0)
    p.add_argument("--fibers", type=int, default=16, help="max fiber samples per pulled point")
    p.add_argument("--level-tol", type=float, default=1e-7)
    p.add_argument("--csv", help="prefix for per-level CSV files")

    p = sub.add_parser("verify", help="run a brute-force oracle suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--seed", type=int, default=0)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; parsing leaves it unchanged."""
    return build_parser()


_POINT = "--point="


def _point_runs(argv):
    """A ``classify`` argv with each run of ``--point=`` tokens cut to its
    first token, and every point value in token order; None when the argv
    does not qualify.

    It qualifies when it starts with ``classify``, holds no ``--`` and no
    other token starting with ``--p``, so no space form ``--point X`` and
    no abbreviation such as ``--poi=``.  Then every ``--point=`` token is
    an option with its explicit argument, and a dropped token follows one
    of the same action: dropping it changes how no other token parses.
    Each run keeps its head, so the required check and every error message
    are those of the full argv, and the full argv's ``args.point`` is the
    list of values returned.
    """
    if not argv or argv[0] != "classify" or "--" in argv:
        return None
    kept, values, after_point = [], [], False
    for token in argv:
        is_point = token.startswith(_POINT)
        if is_point:
            values.append(token[len(_POINT):])
        elif token.startswith("--p"):
            return None
        if not (is_point and after_point):
            kept.append(token)
        after_point = is_point
    return kept, values


def main(argv=None) -> int:
    try:
        runs = _point_runs(sys.argv[1:] if argv is None else argv)
        args = _parser().parse_args(argv if runs is None else runs[0])
        if runs is not None:
            args.point = runs[1]
        _check_arguments(args)
        # Looked up now, not bound into the parser, so a replaced cmd_* runs.
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except GeometryError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc), "exit_code": exc.exit_code})
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
