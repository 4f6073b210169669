"""Span tracer for fodelab, installed from outside the package.

Every public function of the traced modules (the callables in ``__all__``)
and every public method of their public classes is replaced by a wrapper
that records one span per call.  ``from .x import y`` copies a function
into the importing module, so each function is rebound in every
``fodelab`` namespace that holds it, not only where it is defined.

Spans (name, start, end, parent, thread) stay in memory in flat arrays and
are written out once at the end.  A span's self time is its duration minus
the part of it that its child spans cover.  The convergence study runs its
rows on a pool thread; a span that opens on a thread with no open span of
its own is attributed to the innermost open span of the main thread, which
is the ``run_convergence_study`` call waiting on the pool.
"""
from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import threading
import time
from array import array
from contextlib import contextmanager
from types import FunctionType

LAYERS = ("polybasis", "fraccalc", "problem", "ldgsolver", "mittag", "cli")


def _arguments(fn):
    signature = inspect.signature(fn)
    return lambda args, kwargs: signature.bind(*args, **kwargs).arguments


def _hooks(package) -> dict:
    """Per-span counts taken from a call's arguments and result."""
    far_args = _arguments(package.fraccalc.far_history_sum)
    march_args = _arguments(package.ldgsolver.march)

    def far(args, kwargs, result):
        bound = far_args(args, kwargs)
        coeffs = bound["source_coeffs"]
        return len(coeffs), len(coeffs[0])  # sources, k+1

    def march(args, kwargs, result):
        bound = march_args(args, kwargs)
        return (bound["mesh"].n, bound["spec"].frac_order > 0.0,
                result.info["newton_total_iters"])

    return {
        "fraccalc.far_history_sum": far,
        "ldgsolver.march": march,
        "ldgsolver.newton_solve": lambda args, kwargs, result: result[1],
        "cli.run_convergence_study": lambda args, kwargs, result: len(result.flags),
    }


class Tracer:
    """Wraps fodelab's public surface; ``recording()`` turns the wrappers on."""

    def __init__(self, package):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.fid = array("l")
        self.thread = array("l")
        self.extra: dict[int, object] = {}
        self._lock = threading.Lock()
        self._stacks: dict[int, list] = {}
        self._threads: dict[int, int] = {}
        self._main = threading.get_ident()
        self._targets: list[tuple] = []
        self._collect(package)

    # -- installation -------------------------------------------------------

    def _collect(self, package):
        hooks = _hooks(package)
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"{package.__name__}.{layer}")
            for public in module.__all__:
                obj = getattr(module, public)
                if isinstance(obj, type):
                    if obj.__module__ != module.__name__:
                        continue
                    for attr, member in vars(obj).items():
                        if isinstance(member, FunctionType) and (
                                not attr.startswith("_") or attr == "__call__"):
                            name = f"{layer}.{obj.__name__}.{attr}"
                            self._targets.append(
                                (obj, attr, member, self._wrap(name, member, hooks.get(name))))
                elif callable(obj):
                    name = f"{layer}.{public}"
                    wrappers[id(obj)] = (obj, self._wrap(name, obj, hooks.get(name)))
        prefix = package.__name__ + "."
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package.__name__ and not mod_name.startswith(prefix):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._targets.append((module, attr, value, hit[1]))

    @contextmanager
    def recording(self):
        for owner, attr, _, wrapper in self._targets:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._targets:
                setattr(owner, attr, original)

    def _wrap(self, name: str, fn, hook):
        fid = len(self.names)
        self.names.append(name)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            idx, stack = self._open(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf()
                stack.pop()
            if hook is not None:
                self.extra[idx] = hook(args, kwargs, result)
            return result

        return wrapper

    def _open(self, fid: int):
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks.setdefault(tid, [])
            self._threads.setdefault(tid, len(self._threads))
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if tid != self._main and main else -1
        with self._lock:
            idx = len(self.start)
            self.parent.append(parent)
            self.fid.append(fid)
            self.thread.append(self._threads[tid])
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(idx)
        return idx, stack

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list:
        """Duration of each span minus the union of its children's intervals.

        Spans are numbered in start order, so walking them in order visits
        each parent's children by increasing start time.
        """
        start, end, parent = self.start, self.end, self.parent
        n = len(start)
        covered = [0.0] * n
        reach = list(start)  # right end of the children seen so far
        for i in range(n):
            p = parent[i]
            if p < 0:
                continue
            lo = max(start[i], reach[p])
            hi = min(end[i], end[p])
            if hi > lo:
                covered[p] += hi - lo
            if end[i] > reach[p]:
                reach[p] = end[i]
        return [end[i] - start[i] - covered[i] for i in range(n)]

    def summary(self) -> dict:
        """Self and inclusive seconds and calls per function, self seconds per layer."""
        own = self.self_times()
        functions = {name: {"self_s": 0.0, "total_s": 0.0, "calls": 0} for name in self.names}
        for i, fid in enumerate(self.fid):
            entry = functions[self.names[fid]]
            entry["self_s"] += own[i]
            entry["total_s"] += self.end[i] - self.start[i]
            entry["calls"] += 1
        layers = {layer: sum(entry["self_s"] for name, entry in functions.items()
                             if name.startswith(layer + "."))
                  for layer in LAYERS}
        return {"functions": functions, "layers": layers, "self_sum_s": sum(own)}

    def spans_of(self, name: str) -> list:
        fid = self.names.index(name)
        return [i for i, f in enumerate(self.fid) if f == fid]

    def extras(self, name: str) -> list:
        """Counts recorded for the calls of ``name`` that returned."""
        return [self.extra[i] for i in self.spans_of(name) if i in self.extra]

    def write(self, path) -> None:
        """Write every span as gzip-compressed CSV."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
            fh.write("id,name,start_s,end_s,parent,thread\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.fid[i]]},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.thread[i]}\n")
