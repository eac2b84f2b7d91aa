"""Span tracing of comodcheck's layers, installed from outside the package.

``Tracer.install`` wraps

- the backend kernels ``bareiss_echelon``, ``rref_mod``, ``mul_obj`` and
  ``mul_mod`` on ``comodcheck._backend.core``;
- the module-level public functions of ``exactlin``, and the public
  methods and arithmetic operators of ``Matrix``, ``Subspace``,
  ``LinearSystem`` and ``Chart`` (not ``Matrix.__init__``: it is a list
  copy made by nearly every operation, and is charged to its caller);
- the module-level public functions of ``coalg``, ``comod``, ``indexed``,
  ``hyperdoctrine``, ``oracle`` and ``gen``, and the constructors, public
  methods and operators of the classes they define;
- ``dsl.parse``, ``runner.run``, ``runner.reports_to_json`` and
  ``cli.main``.

The modules bind each other's functions with ``from .x import f``, so each
wrapper is rebound in every comodcheck namespace that holds the original.

Each call records a span (name, start, end, parent) in memory.  A layer's
self time is the duration of its spans minus the time their child spans
cover, so the self times of all layers add up to the time covered by root
spans.  Argument probes (matrix sizes, distinct arguments) run inside the
span but are charged to the ``trace.probe`` layer, not to the callee.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

KERNELS = {"bareiss_echelon": "exactlin.bareiss",
           "rref_mod": "exactlin.rref_mod",
           "mul_obj": "exactlin.mul", "mul_mod": "exactlin.mul"}
ASSEMBLE = {"exactlin.LinearSystem.add", "exactlin.Matrix.kron"}
OPERATORS = ("__init__", "__matmul__", "__add__", "__sub__", "__neg__",
             "__eq__", "__call__")
MODULES = ("exactlin", "coalg", "comod", "indexed", "hyperdoctrine",
           "oracle", "gen")
ENTRY_POINTS = {("dsl", "parse"): "dsl.parse", ("runner", "run"): "runner",
                ("runner", "reports_to_json"): "report.json",
                ("cli", "main"): "cli"}
LAYERS = ("cli", "runner", "report.json", "dsl.parse", "gen", "oracle",
          "coalg", "comod", "indexed", "hyperdoctrine", "exactlin",
          "exactlin.assemble", "exactlin.bareiss", "exactlin.rref_mod",
          "exactlin.mul", "trace.probe")


def _comodule_key(v):
    base = v.base
    return (base.field.char, base.dim, tuple(base.delta.data), v.dim,
            tuple(v.rho.data))


class Tracer:
    """In-memory spans plus per-layer self time and per-name call counts."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_probe: dict[int, float] = {}   # span index -> probe time
        self.root_s = 0.0
        self._stack: list[list] = []    # [span index, child-covered time]
        self.elim = {"calls": 0, "max_rows": 0, "max_cols": 0, "max_nnz": 0,
                     "nnz": 0, "cells": 0}
        self.dense_ops = 0
        self.distinct: dict[str, set] = {}

    # -- probes ---------------------------------------------------------------

    def _probe_elim(self, args):
        data, rows, cols = args[0], args[1], args[2]
        nnz = len(data) - data.count(0)
        e = self.elim
        e["calls"] += 1
        e["max_rows"] = max(e["max_rows"], rows)
        e["max_cols"] = max(e["max_cols"], cols)
        e["max_nnz"] = max(e["max_nnz"], nnz)
        e["nnz"] += nnz
        e["cells"] += rows * cols

    def _probe_mul(self, args):
        self.dense_ops += args[2] * args[3] * args[4]

    def _probe_distinct(self, name):
        seen = self.distinct.setdefault(name, set())

        def probe(args):
            seen.add(tuple(_comodule_key(v) for v in args))
        return probe

    def _probe_for(self, name):
        if name in ("exactlin.bareiss", "exactlin.rref_mod"):
            return self._probe_elim
        if name == "exactlin.mul":
            return self._probe_mul
        if name in ("comod.cotensor", "comod.is_injective"):
            return self._probe_distinct(name)
        return None

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, name: str, layer: str):
        nid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.calls.append(0)
        probe = self._probe_for(name)
        clock = time.perf_counter
        stack, calls, self_s = self._stack, self.calls, self.self_s
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end
        probe_s = self.span_probe
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[nid] += 1
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            start = clock()
            s_start.append(start)
            s_end.append(start)
            stack.append(frame)
            try:
                if probe is not None:
                    probe(args)
                    frame[1] = probe_s[idx] = clock() - start
                    self_s["trace.probe"] += frame[1]
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                s_end[idx] = end
                dur = end - start
                self_s[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    tracer.root_s += dur
        return traced

    def install(self):
        """Wrap every traced callable of the imported comodcheck package."""
        pkg = {name.rsplit(".", 1)[-1]: mod for name, mod in
               sys.modules.items() if name.startswith("comodcheck.")}
        replaced = {}

        def wrap_function(owner, attr, fn, name, layer):
            wrapper = self.wrap(fn, name, layer)
            replaced[id(fn)] = (fn, wrapper)
            setattr(owner, attr, wrapper)

        core = pkg["_backend"].core
        for attr, name in KERNELS.items():
            wrap_function(core, attr, getattr(core, attr), name, name)
        for short in MODULES:
            mod = pkg[short]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrap_function(mod, attr, obj, f"{short}.{attr}", short)
                elif inspect.isclass(obj) and \
                        not issubclass(obj, BaseException):
                    self._wrap_class(obj, short)
        for (short, attr), layer in ENTRY_POINTS.items():
            mod = pkg[short]
            wrap_function(mod, attr, getattr(mod, attr), f"{short}.{attr}",
                          layer)
        for mod in pkg.values():
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _wrap_class(self, cls, short):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            if cls.__name__ == "Matrix" and attr == "__init__":
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            layer = "exactlin.assemble" if name in ASSEMBLE else short
            if isinstance(obj, (staticmethod, classmethod)):
                setattr(cls, attr,
                        type(obj)(self.wrap(obj.__func__, name, layer)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(obj, name, layer))

    # -- results --------------------------------------------------------------

    def count(self, prefix: str) -> int:
        """Calls of every traced name equal to ``prefix`` or under it."""
        return sum(c for n, c in zip(self.names, self.calls)
                   if n == prefix or n.startswith(prefix + "."))

    def layer_calls(self, layer: str) -> int:
        return sum(c for lay, c in zip(self.layers, self.calls)
                   if lay == layer)

    def unique_ratio(self, name: str) -> float:
        calls = self.count(name)
        return len(self.distinct.get(name, ())) / calls if calls else 0.0

    def write(self, path):
        """Span table as JSON lines, one per span in the order the spans
        began: name, layer, parent index (-1 for a root), start, end and
        the time of its argument probe, all in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.span_name)):
                nid = self.span_name[i]
                fh.write(json.dumps([self.names[nid], self.layers[nid],
                                     self.span_parent[i],
                                     self.span_start[i], self.span_end[i],
                                     self.span_probe.get(i, 0.0)]) + "\n")


def self_times_from_table(path):
    """Rebuild (self seconds per layer, seconds covered by root spans) from
    a table written by ``Tracer.write``, and the problems found in it: a
    span that ends before it starts, or a child outside its parent."""
    spans, problems = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            spans.append(json.loads(line))
    children = [0.0] * len(spans)
    root_s = 0.0
    for i, (name, _, parent, start, end, _) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} ({name}) ends before it starts")
        if parent < 0:
            root_s += end - start
            continue
        p_start, p_end = spans[parent][3], spans[parent][4]
        if not (parent < i and p_start <= start and end <= p_end):
            problems.append(f"span {i} ({name}) lies outside its parent")
        children[parent] += end - start
    self_s = dict.fromkeys(LAYERS, 0.0)
    for i, (_, layer, _, start, end, probe) in enumerate(spans):
        self_s[layer] += end - start - children[i] - probe
        self_s["trace.probe"] += probe
    return self_s, root_s, problems[:10]
