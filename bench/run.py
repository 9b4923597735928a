"""relugeom benchmark: one seeded, closed-loop workload per process.

Usage (from the repository root)::

    python3 bench/run.py --workload shallow-census --seed 1 --seconds 25 --trace 0

One client sends the next op only after the previous one has finished.
Every op's output is checked by the workload's own judge (see
``workloads.py``).  With ``--trace 0`` the run prints the end-to-end
metrics; with ``--trace 1`` it runs the same ops untraced for half the
time and traced for the other half, prints the per-layer metrics derived
from the spans, the tracing overhead, and writes the spans to
``.bench_out/spans-<workload>.npz``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Times are CPU time of the calling thread (``time.thread_time``): every
op runs on that one thread (the BLAS pool is pinned to one thread) and
writes only to the page cache, so its CPU time is its service time,
while wall time on a shared virtual machine also carries time stolen by
the hypervisor.  The end-to-end times are then divided by the host factor,
read from a fixed reference slice run between ops (``speed.py``); the
times as measured are printed beside them.  Run length is wall time.

The library is imported from ``src/`` of the checkout this file sits in;
without it the run stops with exit code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from math import ceil
from pathlib import Path
from time import perf_counter, process_time, thread_time

from tracer import MODULES, Tracer, module_of, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("shallow-census", "point-queries", "boundary-export", "deep-trace")
SETUP_PROBES = 5  # fresh processes whose set-up is timed; setup_s is their median
BLAS_THREADS = "1"  # one client, one thread: the BLAS pool is pinned and recorded

# Per-layer metrics: (name, unit, better).  "/op" values are means over
# the traced ops; shares and ratios carry their base in the printed report.
PER_LAYER = [
    ("boundary.enumerate_pieces.calls", "calls/op", "lower"),
    ("boundary.enumerate_pieces.self_ms", "ms/op", "lower"),
    ("boundary.piece_count_oracle.calls", "calls/op", "lower"),
    ("boundary.piece_count_oracle.self_ms", "ms/op", "lower"),
    ("boundary.sample_piece.self_ms", "ms/op", "lower"),
    ("boundary.sample_boundary_patterns.self_ms", "ms/op", "lower"),
    ("boundary.pattern_coverage", "ratio", "higher"),
    ("partition.classify.calls", "calls/op", "lower"),
    ("partition.classify.self_ms", "ms/op", "lower"),
    ("io.canonical_json.self_ms", "ms/op", "lower"),
    ("io.write_point_csv.self_ms", "ms/op", "lower"),
    ("io.bytes_out", "bytes/op", "lower"),
    ("cli.self_ms", "ms/op", "lower"),
    ("mesh.piece_polygons.self_ms", "ms/op", "lower"),
    ("network.pull_back_boundary.self_ms", "ms/op", "lower"),
    ("network.sample_shallow_boundary.self_ms", "ms/op", "lower"),
    ("layer.preimage_of_point.calls", "calls/op", "lower"),
    ("network.reach_ratio", "ratio", "higher"),
    ("network.level_yield", "ratio", "higher"),
    ("core.build_dual_frame.calls", "calls/op", "lower"),
    ("core.build_dual_frame.self_ms", "ms/op", "lower"),
    *((f"{module}.share", "ratio", "lower") for module in MODULES),
    ("fail_ratio", "ratio", "lower"),
    ("refused_ratio", "ratio", "lower"),
    ("trace.slowdown", "ratio", "lower"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_library():
    """Pin the BLAS pool, then import numpy and relugeom from this checkout."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import relugeom

    if Path(relugeom.__file__).resolve().parent != SRC / "relugeom":
        raise ImportError(f"relugeom imported from {relugeom.__file__}, not from {SRC}")


def machine() -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def attempt(workload, op):
    """Run one op (timed, CPU seconds) and judge it (untimed)."""
    from relugeom.errors import GeometryError
    from workloads import Verdict

    t0 = thread_time()
    try:
        out = workload.run(op)
    except GeometryError as exc:
        return Verdict("refused", counts={"error": type(exc).__name__}), thread_time() - t0
    except Exception:
        elapsed = thread_time() - t0
        return Verdict("failed", [traceback.format_exc(limit=-4)]), elapsed
    elapsed = thread_time() - t0
    try:
        return workload.judge(op, out), elapsed
    except Exception:
        return Verdict("failed", ["output could not be judged: " + traceback.format_exc(limit=-4)]), elapsed


class Phase:
    """Latencies, outcomes and output facts of one timed phase.

    ``latencies`` are CPU seconds as measured; ``reference`` holds the
    reference slice times read between ops (see ``speed.py``), and
    ``slice_before[i]`` is the index of the last slice before op ``i``.
    """

    def __init__(self, n_pool: int):
        self.n_pool = n_pool
        self.latencies: list[float] = []
        self.reference: list[float] = []
        self.slice_before: list[int] = []
        self._scaled: list[float] | None = None
        self.status = defaultdict(int)
        self.counts = defaultdict(float)
        self.level_in = 0  # deep-trace: points at levels 2..N, pulled back
        self.level_out = 0  # deep-trace: points at levels 1..N-1 that survived
        self.digest_parts: list[bytes] = []
        self.problems: list[str] = []

    def add(self, index: int, verdict, elapsed: float):
        self.latencies.append(elapsed)
        self.slice_before.append(len(self.reference) - 1)
        self.status[verdict.status] += 1
        for key, value in verdict.counts.items():
            if key == "level_points":
                self.level_out += sum(value[:-1])
                self.level_in += sum(value[1:])
            elif isinstance(value, (int, float)):
                self.counts[key] += value
        if verdict.problems and len(self.problems) < 5:
            self.problems.append(f"op {index} ({verdict.status}): " + "; ".join(verdict.problems))
        if index < self.n_pool:
            facts = json.dumps({"op": index, "status": verdict.status, **verdict.counts}, sort_keys=True)
            self.digest_parts += [facts.encode(), verdict.digest]

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def completed(self) -> int:
        return self.status["ok"] + self.status["refused"]

    def host_factor(self) -> float:
        """Typical reference slice time over its nominal time: 1.5 on a host 1.5x slower."""
        import speed

        return speed.typical(self.reference) / speed.NOMINAL_S

    def scaled(self) -> list[float]:
        """Each latency divided by the host factor of the slices around its op.

        The factor is local, from the ``speed.AROUND`` slices on either
        side, so an op is scaled by the host's speed while it ran.
        """
        import speed

        if self._scaled is None or len(self._scaled) != len(self.latencies):
            ref, k = self.reference, speed.AROUND
            factor = [speed.typical(ref[max(0, i + 1 - k) : i + 1 + k]) / speed.NOMINAL_S
                      for i in range(len(ref))]
            self._scaled = [t / factor[i] for t, i in zip(self.latencies, self.slice_before)]
        return self._scaled

    def _times(self, scaled: bool) -> list[float]:
        return self.scaled() if scaled else self.latencies

    def ops_per_s(self, scaled: bool = True) -> float:
        """Completed ops per second of op time, over the whole phase."""
        return self.completed() / sum(self._times(scaled))

    def p50(self, scaled: bool = True) -> float:
        return statistics.median(self._times(scaled))

    def tail(self, pct: float, scaled: bool = True) -> tuple[float, int]:
        """Latency at percentile ``pct`` (nearest rank) and the samples beyond it."""
        ordered = sorted(self._times(scaled))
        rank = max(1, ceil(pct / 100.0 * len(ordered)))
        return ordered[rank - 1], len(ordered) - rank


def min_samples(pct: float) -> int:
    """Smallest sample count that leaves ten samples beyond percentile ``pct``."""
    n = 1
    while n - ceil(pct / 100.0 * n) < 10:
        n += 1
    return n


def closed_loop(workload, seed: int, seconds: float, tracer=None) -> Phase:
    """Send ops one after another in whole passes (see ``Workload.passes``).

    Whole passes keep the op mix exact.  Passes continue while the next
    one is expected to end within ``seconds``, and in any case until the
    workload's tail percentile has ten samples beyond it.  Drawing a pass
    is not timed.  Between ops, every ``speed.EVERY_S`` seconds, one
    reference slice is timed.
    """
    import speed

    need = min_samples(workload.tail_pct)
    started = last_slice = perf_counter()
    index = 0
    phase = None
    for ops in workload.passes(seed):
        if phase is None:
            phase = Phase(len(ops))
            phase.reference.append(speed.slice_seconds())
        pass_start = perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.op_id = index
            verdict, elapsed = attempt(workload, op)
            phase.add(index, verdict, elapsed)
            index += 1
            if perf_counter() - last_slice >= speed.EVERY_S:
                phase.reference.append(speed.slice_seconds())
                last_slice = perf_counter()
        now = perf_counter()
        if now - started + (now - pass_start) > seconds and phase.attempted >= need:
            return phase


def set_up(workload, seed: int):
    """Inputs and spec files of the first pass, plus one warm-up op."""
    first = next(workload.passes(seed))
    attempt(workload, first[0])
    return first


def probe_setup(args) -> tuple[list[float], list[float], list[float]]:
    """CPU seconds from process start to the first timed op, in fresh processes:
    scaled by each process's host factor, as measured, and wall seconds."""
    import speed

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    scaled, cpu, wall = [], [], []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            wall.append(perf_counter() - t0)
            child.stdout.read()
            code = child.wait(timeout=120)
        word, *numbers = line.split()
        if word != "ready" or len(numbers) != 2 or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        seconds, slice_s = map(float, numbers)
        cpu.append(seconds)
        scaled.append(seconds * speed.NOMINAL_S / slice_s)
    return scaled, cpu, wall


def print_metric(name: str, value: float, unit: str, note: str = ""):
    print(f"{name}: {value:.6g} {unit}" + (f"  ({note})" if note else ""))


def end_to_end(args, workload, phase: Phase, setup: tuple[list[float], list[float], list[float]]) -> dict:
    import speed
    import workloads

    setup_scaled, setup_cpu, setup_wall = setup
    pct = workload.tail_pct
    tail_s, beyond = phase.tail(pct)
    n = phase.attempted
    print(f"host factor: {phase.host_factor():.4f} ({len(phase.reference)} reference slices, typical "
          f"{phase.host_factor() * speed.NOMINAL_S * 1e3:.4f} ms CPU, nominal {speed.NOMINAL_S * 1e3:g} ms); "
          f"each op's time is scaled by the factor of the {2 * speed.AROUND} slices around it")
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s",
                    f"scaled CPU time, median of {len(setup_cpu)} fresh processes; as measured "
                    + ", ".join(f"{t:.3f}" for t in setup_cpu) + f"; wall median {statistics.median(setup_wall):.3f}"),
        "ops_per_s": (phase.ops_per_s(), "1/s", f"{phase.completed()} completed ops in {phase.busy:.3f} s of op "
                      f"CPU time, as measured {phase.ops_per_s(scaled=False):.6g}; checks between ops excluded"),
        "op_p50_ms": (phase.p50() * 1e3, "ms", f"n={n}; as measured {phase.p50(scaled=False) * 1e3:.6g}"),
        "op_tail_ms": (tail_s * 1e3, "ms", f"p{pct:g}, n={n}, {beyond} samples beyond; "
                       f"as measured {phase.tail(pct, scaled=False)[0] * 1e3:.6g}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "ru_maxrss of this process"),
    }
    for name, (value, unit, note) in metrics.items():
        print_metric(name, value, unit, note)
    print_metric("fail_ratio", phase.status["failed"] / n, "ratio", f"{phase.status['failed']} / {n} attempted")
    print_metric("refused_ratio", phase.status["refused"] / n, "ratio", f"{phase.status['refused']} / {n} attempted")
    covered = min(n, phase.n_pool)
    print(f"digest: {workloads.digest_of(phase.digest_parts)}  (first pass: {covered}/{phase.n_pool} ops)")
    return {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}


def per_layer(args, workload, untraced: Phase) -> tuple[Phase, dict]:
    tracer = Tracer()
    tracer.install()
    try:
        traced = closed_loop(workload, args.seed, args.seconds / 2.0, tracer)
    finally:
        tracer.uninstall()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}.npz"
    spans = tracer.write(str(path))
    stats = self_times(spans)
    n = traced.attempted
    op_s = traced.busy
    values: dict[str, tuple[float, str]] = {}
    for name, unit, _ in PER_LAYER:
        if name.endswith(".calls"):
            calls = stats.get(name[: -len(".calls")], (0, 0.0))[0]
            values[name] = (calls / n, f"{calls} calls / {n} ops")
        elif name.endswith(".self_ms") and name != "cli.self_ms":
            own = stats.get(name[: -len(".self_ms")], (0, 0.0))[1]
            values[name] = (own * 1e3 / n, f"{own * 1e3:.3f} ms / {n} ops")
    module_self = defaultdict(float)
    for span_name, (_, own) in stats.items():
        module_self[module_of(span_name)] += own
    for module in MODULES:
        values[f"{module}.share"] = (module_self[module] / op_s,
                                     f"{module_self[module] * 1e3:.1f} ms self / {op_s * 1e3:.1f} ms op time")
    values["cli.self_ms"] = (module_self["cli"] * 1e3 / n, f"{module_self['cli'] * 1e3:.3f} ms / {n} ops")
    c = traced.counts
    values["boundary.pattern_coverage"] = (
        c["patterns"] / c["pattern_base"] if c["pattern_base"] else 0.0,
        f"{c['patterns']:g} sampled patterns / {c['pattern_base']:g} enumerated pieces")
    values["io.bytes_out"] = (c["bytes_out"] / n, f"{c['bytes_out']:g} bytes / {n} ops")
    values["network.reach_ratio"] = (c["reached"] / c["traces"] if c["traces"] else 0.0,
                                     f"{c['reached']:g} traces reaching level 1 / {c['traces']:g} traces")
    values["network.level_yield"] = (traced.level_out / traced.level_in if traced.level_in else 0.0,
                                     f"{traced.level_out} level-k points / {traced.level_in} level-(k+1) points")
    values["fail_ratio"] = (traced.status["failed"] / n, f"{traced.status['failed']} / {n} attempted")
    values["refused_ratio"] = (traced.status["refused"] / n, f"{traced.status['refused']} / {n} attempted")
    values["trace.slowdown"] = (untraced.ops_per_s() / traced.ops_per_s(),
                                f"untraced {untraced.ops_per_s():.4g} ops/s / traced {traced.ops_per_s():.4g} ops/s")
    unattributed = 1.0 - sum(module_self.values()) / op_s
    for name, unit, _ in PER_LAYER:
        value, note = values[name]
        print_metric(name, value, unit, note)
    print(f"unattributed share (benchmark glue, constructors called directly): {unattributed:.4f}")
    print(f"spans: {len(spans['start'])} written to {path.relative_to(ROOT)}")
    return traced, {name: {"value": values[name][0], "unit": unit} for name, unit, _ in PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "relugeom" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'relugeom'}", file=sys.stderr)
        return 2
    import_library()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    cwd = os.getcwd()
    try:
        os.chdir(workdir)
        if args.setup_only:
            set_up(workload, args.seed)
            seconds = process_time()
            import speed

            print(f"ready {seconds!r} {speed.sample(0.2)!r}", flush=True)
            return 0
        setup = None if args.trace else probe_setup(args)
        ops = set_up(workload, args.seed)
        print("machine: " + json.dumps(machine()))
        print(f"workload: {args.workload}  seed={args.seed}  seconds={args.seconds:g}  trace={args.trace}  "
              f"closed loop, 1 client, 1 process, {len(ops)} ops per pass, "
              + ("new instances every pass" if workload.fresh else "the same instances every pass"))
        half = args.seconds / 2.0 if args.trace else args.seconds
        phases = [closed_loop(workload, args.seed, half)]
        if args.trace:
            traced, metrics = per_layer(args, workload, phases[0])
            phases.append(traced)
        else:
            metrics = end_to_end(args, workload, phases[0], setup)
        for problem in [p for phase in phases for p in phase.problems]:
            print(problem, file=sys.stderr)
        attempted = sum(phase.attempted for phase in phases)
        failed = sum(phase.status["failed"] for phase in phases)
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
