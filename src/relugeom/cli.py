"""Command-line interface.

Commands: analyze, classify, preimage, boundary, deep-boundary, verify.
Every command reads a JSON spec, writes a JSON run report to stdout, and
maps errors to a fixed exit-code taxonomy:

    0  success
    1  verification failure (a suite found a counterexample)
    2  schema or argument error
    3  degenerate geometry (rank, bias, direction, empty boundary)
    4  resource guard (enumeration dimension limit)

Randomized commands take --seed (default 0); identical input and seed
reproduce identical reports byte for byte, except for the wall_time_ms
field.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from . import __version__
from .boundary import OutputLayer, enumerate_pieces, piece_count_oracle
from .core import ReluLayer, build_dual_frame
from .errors import (
    AllNegative,
    DegenerateBias,
    DegenerateDirection,
    DimensionMismatch,
    EmptyIntersection,
    EmptyPiece,
    EnumerationLimit,
    GeometryError,
    InvalidM,
    NotContracting,
    RankDeficient,
    SchemaError,
)
from .io import (
    canonical_json,
    input_digest,
    load_json,
    parse_layer_spec,
    parse_network_spec,
    write_level_csv,
    write_point_csv,
)
from .layer import evaluate, preimage_of_point
from .mesh import piece_polygons, write_obj
from .network import ReluNetwork, sample_shallow_boundary, trace_boundary
from .partition import sector_counts, split_by_zero_band
from .tolerances import RCOND_MIN
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_SCHEMA = 2
EXIT_DEGENERATE = 3
EXIT_RESOURCE = 4

# Total mapping of the error taxonomy onto exit codes.
ERROR_CODES: dict[type, int] = {
    SchemaError: EXIT_SCHEMA,
    DimensionMismatch: EXIT_SCHEMA,
    InvalidM: EXIT_SCHEMA,
    EmptyPiece: EXIT_SCHEMA,
    RankDeficient: EXIT_DEGENERATE,
    DegenerateBias: EXIT_DEGENERATE,
    DegenerateDirection: EXIT_DEGENERATE,
    AllNegative: EXIT_DEGENERATE,
    NotContracting: EXIT_DEGENERATE,
    EmptyIntersection: EXIT_DEGENERATE,
    EnumerationLimit: EXIT_RESOURCE,
}


def _exit_code_for(exc: GeometryError) -> int:
    for klass, code in ERROR_CODES.items():
        if isinstance(exc, klass):
            return code
    return EXIT_SCHEMA


def _emit(report: dict):
    sys.stdout.write(canonical_json(report) + "\n")


def _report(command: str, path: str, seed: int | None, results: dict, started: float) -> dict:
    out = {
        "command": command,
        "input_digest": input_digest(path),
        "version": __version__,
    }
    if seed is not None:
        out["seed"] = seed
    out["results"] = results
    out["wall_time_ms"] = (time.monotonic() - started) * 1000.0
    return out


def _parse_points(values, d: int) -> np.ndarray:
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


def _check_arguments(args):
    """Reject numeric flag values outside their domain as schema errors.

    Counts, seeds, radii and tolerances are nonnegative (NaN is not), the
    radius is finite and the clip box is a finite interval lo < hi.  The
    namespace holds only the flags of the chosen command.
    """
    for flag in ("seed", "samples", "fibers", "radius", "tol", "level_tol"):
        value = getattr(args, flag, None)
        if value is not None and not value >= 0:
            raise SchemaError(f"--{flag.replace('_', '-')} must be a nonnegative number, got {value}")
    if not math.isfinite(getattr(args, "radius", 0.0)):
        raise SchemaError(f"--radius must be finite, got {args.radius}")
    lo, hi = getattr(args, "box", (0.0, 1.0))
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise SchemaError(f"--box must be finite numbers lo < hi, got {lo},{hi}")


def cmd_analyze(args) -> int:
    started = time.monotonic()
    affine, name = parse_layer_spec(load_json(args.input))
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
    _emit(_report("analyze", args.input, None, results, started))
    return EXIT_OK


def cmd_classify(args) -> int:
    started = time.monotonic()
    affine, _ = parse_layer_spec(load_json(args.input))
    layer = build_dual_frame(affine)
    points = _parse_points(args.point, affine.d_in)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        coefficients = [layer.affine(x) for x in points]
    overflowing = ~np.isfinite(coefficients).all(axis=1)
    if overflowing.any():
        raise SchemaError(
            f"point {points[overflowing][0].tolist()} has expansion coefficients beyond the float range"
        )
    rows = []
    for x, lam in zip(points, coefficients):
        sector, boundary_flags = split_by_zero_band(lam, args.tol)
        rows.append(
            {
                "point": x,
                "sector": sector.to_json(),
                "dimension": sector.dimension(),
                "coefficients": lam,
                "on_boundary_of": list(boundary_flags),
            }
        )
    results = {"points": rows, "zero_tolerance": args.tol if args.tol is not None else "relative 1e-9"}
    if args.format == "csv":
        for row in rows:
            sys.stdout.write(
                ",".join(
                    [
                        "|".join(str(i) for i in row["sector"]["plus"]),
                        "|".join(str(i) for i in row["sector"]["minus"]),
                    ]
                    + [f"{v:.17g}" for v in row["point"]]
                )
                + "\n"
            )
        return EXIT_OK
    _emit(_report("classify", args.input, None, results, started))
    return EXIT_OK


def cmd_preimage(args) -> int:
    started = time.monotonic()
    affine, _ = parse_layer_spec(load_json(args.input))
    layer = build_dual_frame(affine)
    (y,) = _parse_points([args.point], layer.d_out)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        if args.tol is not None:
            pre = preimage_of_point(layer, y, zero_tol=args.tol)
        else:
            pre = preimage_of_point(layer, y)
    if pre is None:
        results = {"empty": True, "target": y}
        _emit(_report("preimage", args.input, args.seed, results, started))
        return EXIT_OK
    if not np.isfinite(pre.base).all():
        raise SchemaError(f"point {y.tolist()} has a preimage base point beyond the float range")
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
        results["samples"] = {
            "count": args.samples,
            "max_residual": residual,
            "tolerance": 1e-8 * (1.0 + float(np.max(np.abs(pre.target)))),
        }
        if args.csv:
            write_point_csv(args.csv, ["preimage"] * args.samples, samples)
            results["samples"]["csv"] = args.csv
    _emit(_report("preimage", args.input, args.seed, results, started))
    return EXIT_OK


def _shallow_network(args) -> tuple[ReluLayer, OutputLayer, int]:
    affines, output, spec_seed = parse_network_spec(load_json(args.input))
    if len(affines) != 1:
        raise SchemaError("this command needs a network spec with exactly one layer")
    return build_dual_frame(affines[0]), output, spec_seed


def cmd_boundary(args) -> int:
    started = time.monotonic()
    layer, output, _ = _shallow_network(args)
    boundary = enumerate_pieces(layer, output)
    results = {
        "d": boundary.d,
        "t": boundary.t,
        "m": boundary.m,
        "piece_count": boundary.piece_count,
        "curvature": boundary.curvature,
        "pieces": [
            {
                "J": list(p.indices),
                "bounded": p.bounded,
                "recession_indices": list(p.recession_indices),
            }
            for p in boundary.pieces
        ],
        "canonical": {
            "m": boundary.m,
            "sigma": list(boundary.canonical.sigma),
            "scale": boundary.canonical.scale,
            "matrix": boundary.canonical.to_actual.matrix,
            "offset": boundary.canonical.to_actual.offset,
        },
    }
    if boundary.d <= 8:
        witness = piece_count_oracle(layer, output)
        results["oracle"] = {
            "witness_count": witness,
            "enumerated": boundary.piece_count,
            "agrees": witness == boundary.piece_count,
        }
    if args.samples:
        rng = np.random.default_rng(args.seed)
        drawn = sample_shallow_boundary(layer, boundary, 1, args.samples, args.radius, rng)
        residuals = drawn.residuals / (1.0 + abs(boundary.readout.bias))
        results["samples"] = {
            "per_piece": args.samples,
            "max_residual": float(np.max(residuals)),
            "tolerance": 1e-8,
        }
        if args.csv:
            labels = [piece.label() for piece in boundary.pieces for _ in range(args.samples)]
            write_point_csv(args.csv, labels, drawn.points, {"residual": residuals})
            results["samples"]["csv"] = args.csv
    if args.obj:
        lo, hi = args.box
        polys = piece_polygons(layer, boundary, lo, hi)
        write_obj(args.obj, polys)
        results["obj"] = {"path": args.obj, "box": [lo, hi], "pieces_in_box": len(polys)}
    _emit(_report("boundary", args.input, args.seed, results, started))
    return EXIT_OK


def cmd_deep_boundary(args) -> int:
    started = time.monotonic()
    affines, output, _ = parse_network_spec(load_json(args.input))
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
    per_level = []
    for level in sorted(levels, reverse=True):
        sample_set = levels[level]
        entry = {
            "level": level,
            "points": len(sample_set),
            "max_residual": float(np.max(sample_set.residuals, initial=0.0)),
            "tolerance": args.level_tol,
        }
        if args.csv:
            path = f"{args.csv}_level{level}.csv"
            write_level_csv(path, sample_set)
            entry["csv"] = path
        per_level.append(entry)
    results = {"depth": net.depth, "levels": per_level}
    _emit(_report("deep-boundary", args.input, args.seed, results, started))
    return EXIT_OK


def cmd_verify(args) -> int:
    started = time.monotonic()
    suite = run_suite(args.suite, args.seed)
    for prop in suite.properties:
        status = "pass" if prop.passed else "FAIL"
        sys.stderr.write(
            f"{suite.suite}/{prop.name}: {prop.checks} checks, "
            f"worst {prop.worst:.3e} (tol {prop.tolerance:.1e}): {status}\n"
        )
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
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("classify", help="sector classification of points")
    add_common(p, seed=False)
    p.add_argument("--point", action="append", required=True, help="comma-separated coordinates")
    p.add_argument("--tol", type=float, default=None, help="zero band for coefficients")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("preimage", help="exact preimage of a codomain point")
    add_common(p)
    p.add_argument("--point", required=True, help="comma-separated target coordinates")
    p.add_argument("--tol", type=float, default=None, help="zero band for target components")
    p.add_argument("--samples", type=int, default=0, help="sample the preimage set")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--csv", help="write samples to this CSV path")
    p.set_defaults(func=cmd_preimage)

    p = sub.add_parser("boundary", help="exact decision boundary of a shallow network")
    add_common(p)
    p.add_argument("--samples", type=int, default=0, help="samples per piece")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--csv", help="write samples to this CSV path")
    p.add_argument("--obj", help="write a clipped mesh to this OBJ path (d=3)")
    p.add_argument("--box", type=_box_pair, default=(-5.0, 5.0), help="clip box 'lo,hi'")
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("deep-boundary", help="sampled boundary recursion through all layers")
    add_common(p)
    p.add_argument("--samples", type=int, default=50, help="samples per piece at the top level")
    p.add_argument("--radius", type=float, default=2.0)
    p.add_argument("--fibers", type=int, default=16, help="max fiber samples per pulled point")
    p.add_argument("--level-tol", type=float, default=1e-7)
    p.add_argument("--csv", help="prefix for per-level CSV files")
    p.set_defaults(func=cmd_deep_boundary)

    p = sub.add_parser("verify", help="run a brute-force oracle suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_arguments(args)
        return args.func(args)
    except GeometryError as exc:
        code = _exit_code_for(exc)
        _emit({"error": type(exc).__name__, "message": str(exc), "exit_code": code})
        return code


if __name__ == "__main__":
    sys.exit(main())
