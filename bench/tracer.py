"""Span tracer for the benchmark's traced run.

The tracer wraps every public function (and every public method of a
public class) of the library's eight modules, and rebinds each wrapped
function in every ``relugeom`` namespace that imported it, so calls
between modules are attributed too.  Nothing under ``src/`` is edited:
the wrapping happens at run time, from the benchmark's own code.

Each call of a wrapped function records one span: name, start, end,
parent span and op id.  Start and end are read from the thread's CPU
clock, the clock the runner times ops with.  Spans are kept in flat arrays (no per-span Python
object, so a long run neither fills memory nor slows the garbage
collector) and written out once, when the run ends.  A direct recursive
call (``io.canonical_json`` walks a report by recursion) is folded into
the outer span.

numpy is imported inside the functions that need it, because the runner
pins the BLAS thread pool before numpy is first loaded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import thread_time

MODULES = ("core", "partition", "layer", "boundary", "network", "io", "mesh", "cli")


class Tracer:
    """Records spans of wrapped library calls; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self._stack: list[tuple[int, int]] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack
        name_ids, parents, ops = self.name_id, self.parent, self.op
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == nid:
                return fn(*args, **kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1][1] if stack else -1)
            ops.append(self.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append((nid, idx))
            t0 = thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = thread_time()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        return traced

    def _set(self, owner, attr: str, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the public functions of the eight modules in every namespace."""
        modules = {short: importlib.import_module(f"relugeom.{short}") for short in MODULES}
        wrapped = {}
        for short, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value):
                    wrapped[value] = self._wrap(value, f"{short}.{attr}")
                elif inspect.isclass(value):
                    self._wrap_methods(value, f"{short}.{attr}")
        namespaces = [m for key, m in sys.modules.items() if key == "relugeom" or key.startswith("relugeom.")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(ns, attr, wrapped[value])

    def _wrap_methods(self, cls, prefix: str):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                self._set(cls, attr, type(member)(self._wrap(member.__func__, name)))
            elif inspect.isfunction(member):
                self._set(cls, attr, self._wrap(member, name))

    def uninstall(self):
        """Restore every rebound attribute, last patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict:
        import numpy as np

        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path: str) -> dict:
        import numpy as np

        spans = self.arrays()
        np.savez_compressed(path, **spans)
        return spans


def self_times(spans: dict) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, total self seconds).

    Self time is a span's duration minus the time covered by its child
    spans; calls are single-threaded, so children nest inside the parent
    and never overlap each other.
    """
    import numpy as np

    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    own = dur - covered
    n_names = len(spans["names"])
    calls = np.bincount(spans["name_id"], minlength=n_names)
    self_s = np.bincount(spans["name_id"], weights=own, minlength=n_names)
    return {str(name): (int(calls[i]), float(self_s[i])) for i, name in enumerate(spans["names"])}


def module_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]
