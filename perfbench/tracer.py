"""Span tracing for the traced benchmark run, installed from outside the
package: every public function and method of the layer modules is replaced
by a timing wrapper, so nothing under ``src/`` knows it is being traced.

A span is (id, parent id, name, start, end, tag, count).  ``tag`` is the
sample size ``n`` of the call's first argument when it has one (the engine
for a method, the engine or posterior for a diagnostic), which is how the
analysis assigns spans to grid points.  ``count`` is the quadrature's
evaluation count for ``numerics.adaptive_quadrature`` and 0 elsewhere.

Spans live in flat arrays in memory and are written once, when the run
ends.  Calls made while a quadrature runs (its integrand callbacks) are not
spanned: they are the quadrature's own work, and one span per integrand
evaluation would cost more than the evaluation.

Pool workers are forked with the wrappers already installed.  The fork hook
empties the child's buffers; the worker's spans ride back to the parent as
an attribute of the ``TrajectoryRecord`` it returns, and the parent collects
them when ``run_replications`` returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pickle
import sys
import time
from array import array

LAYERS = ("harness", "barron", "diagnostics", "numerics", "cosine")
PACKAGE = "posterior_lab"
QUADRATURE = "numerics.adaptive_quadrature"
CARRIER = "_perfbench_trace"   # attribute that carries worker spans home
FIELDS = ("ids", "parents", "name_ids", "t0", "t1", "tags", "counts")


class Tracer:
    """Per-process span buffer plus the wrappers that fill it."""

    def __init__(self):
        self.pid = os.getpid()
        self.names: list = []
        self._name_ids: dict = {}
        self.stack: list = [0]          # 0 is the root: the CLI call itself
        self.quad_depth = 0
        self.seq = 0
        self.root_pid = self.pid
        self.levels: list = []          # (n, levels_M, distinct_level)
        self._reset_buffers()
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset_buffers(self):
        self.buf = {f: array("d" if f in ("t0", "t1") else "q") for f in FIELDS}

    def _after_fork(self):
        self.pid = os.getpid()
        self.seq = 0
        self.levels = []
        self._reset_buffers()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        stack = self.stack
        clock = time.perf_counter
        is_quad = name == QUADRATURE
        post = _POST_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.quad_depth:
                return fn(*args, **kwargs)
            tracer.seq += 1
            sid = (tracer.pid << 32) | tracer.seq
            parent = stack[-1]
            tag = _tag(args)
            count = 0
            stack.append(sid)
            if is_quad:
                tracer.quad_depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if is_quad:
                    count = result.evaluations
            except Exception as exc:
                count = getattr(exc, "evaluations", 0) if is_quad else 0
                raise
            finally:
                t1 = clock()
                if is_quad:
                    tracer.quad_depth -= 1
                stack.pop()
                b = tracer.buf
                b["ids"].append(sid)
                b["parents"].append(parent)
                b["name_ids"].append(nid)
                b["t0"].append(t0)
                b["t1"].append(t1)
                b["tags"].append(tag)
                b["counts"].append(count)
            if post is not None:
                post(tracer, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function and method of the layer modules, at
        every binding site inside the package."""
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS}
        replacements = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replacements[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_methods(layer, obj)
        # rebind in every package module, so imported names are traced too
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _wrap_methods(self, layer: str, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__)))
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(name, raw))

    # -- export ---------------------------------------------------------------

    def take(self) -> dict:
        """This process's spans and level observations; empties the buffers."""
        out = {"pid": self.pid, "names": list(self.names),
               "levels": list(self.levels),
               **{f: self.buf[f] for f in FIELDS}}
        self._reset_buffers()
        self.levels = []
        return out

    def absorb(self, part: dict):
        """Merge spans recorded in another process (names re-indexed)."""
        remap = [self.name_id(n) for n in part["names"]]
        for f in FIELDS:
            if f == "name_ids":
                self.buf[f].extend(remap[i] for i in part[f])
            else:
                self.buf[f].extend(part[f])
        self.levels.extend(part["levels"])


def _tag(args) -> int:
    if args:
        n = getattr(args[0], "n", None)
        if type(n) is int:
            return n
    return -1


# -- post hooks: run after the span closes, keyed by span name ---------------

def _observe_levels(tracer, args, result):
    occ = getattr(args[0], "occupancy", None)
    if occ is not None:
        tracer.levels.append((int(occ.n), int(occ.k_by_level.size),
                              int(occ.distinct_level)))


def _ship_worker_spans(tracer, args, result):
    if tracer.pid != tracer.root_pid:
        setattr(result, CARRIER, tracer.take())


def _collect_worker_spans(tracer, args, result):
    for traj in result.trajectories:
        part = traj.__dict__.pop(CARRIER, None)
        if part is not None:
            tracer.absorb(part)


_POST_HOOKS = {
    "diagnostics.evaluate_diagnostics": _observe_levels,
    "harness.run_trajectory": _ship_worker_spans,
    "harness.run_replications": _collect_worker_spans,
}


def write_spans(path: str, part: dict):
    with open(path, "wb") as fh:
        pickle.dump(part, fh)


def read_spans(path: str) -> dict:
    with open(path, "rb") as fh:
        return pickle.load(fh)
