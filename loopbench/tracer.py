"""Spans and counters around the library's public functions.

The library source is not edited. ``Tracer.install`` rebinds each wrapped
function in every ``loopbundle`` module namespace that holds it (so calls
made through ``core.product`` and through a name imported with
``from .dual import jacobian`` are both seen), wraps the product and
division callables of every descriptor that ``make_loop`` builds, and
counts ``Dual`` constructions. ``uninstall`` restores everything.

A span is (id, parent id, name, start, end). Self time is a span's
duration minus the durations of its direct children. Spans and counters
are recorded only while ``enabled`` is true, which the benchmark sets
around the library calls of each point and clears around its own checks.
"""

import dataclasses
import inspect
import json
import time
from collections import defaultdict

import numpy as np

# Layers whose every public function is wrapped.
LAYERS = ("core", "bundle", "tangent", "reconstruct", "gauge")
# Public functions of ``dual`` that do work beyond scalar arithmetic. The
# scalar elementaries and packing helpers stay unwrapped: their cost
# lands in the self time of their caller, and Dual construction is
# counted separately as ``dual.nodes``.
DUAL_FUNCS = ("jacobian", "dirderiv", "gsolve", "ginv", "gmatvec", "gmatmul")
DERIVATIVE_PASSES = ("dual.jacobian", "dual.dirderiv")
ZOO_PUBLIC = ("qsu2_matrix", "qsu2_product", "chart_map", "chart_inverse")
# Private helpers that carry a named per-layer metric.
PRIVATE = {"reconstruct": ("_velocity",)}
GAUGE_GROUPS = {
    "gauge.commutator_residual": "commutator",
    "gauge.structure_equation_residual": "structure_eq",
    "gauge.bianchi_residual": "bianchi",
}
FRAME_FUNC = "tangent.left_frame_matrix"
STRUCTURE_FUNCS = ("tangent.structure_tensor_raw", "tangent.structure_functions")
MAX_SPANS = 200_000


def _is_dual(x, dual_cls):
    if isinstance(x, dual_cls):
        return True
    if isinstance(x, np.ndarray) and x.dtype == object:
        return any(isinstance(v, dual_cls) for v in x.flat)
    if isinstance(x, (list, tuple)):
        return any(_is_dual(v, dual_cls) for v in x)
    return False


class Tracer:
    def __init__(self, lb):
        self.lb = lb
        self.enabled = False
        self.counting = False
        self.recording = False
        self.counts = defaultdict(int)  # calls per wrapped function
        self.extra = defaultdict(int)  # counters that are not call counts
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.group_self = defaultdict(float)  # gauge self time per check
        self.steps_all = 0  # RK4 steps over every traced point
        self.frame_keys = set()
        self.max_depth = 0
        self.spans = []
        self.dropped_spans = 0
        self._stack = []  # [name, start, child_time, span_id, depth]
        self._next_id = 1
        self._gauge_group = None
        self._patches = []
        self._t0 = time.perf_counter()

    # -- installation ---------------------------------------------------------

    def install(self):
        lb = self.lb
        modules = [getattr(lb, m) for m in
                   ("core", "zoo", "dual", "tangent", "reconstruct", "bundle",
                    "gauge", "cli")] + [lb]
        targets = []
        for layer in LAYERS:
            mod = getattr(lb, layer)
            names = [n for n, f in inspect.getmembers(mod, inspect.isfunction)
                     if f.__module__ == mod.__name__ and not n.startswith("_")]
            names += list(PRIVATE.get(layer, ()))
            targets += [(layer, n, getattr(mod, n)) for n in names]
        targets += [("dual", n, getattr(lb.dual, n)) for n in DUAL_FUNCS]
        targets += [("zoo", n, getattr(lb.zoo, n)) for n in ZOO_PUBLIC]
        for layer, name, fn in targets:
            self._rebind(modules, fn,
                         self._wrap(f"{layer}.{name}", fn, zoo=layer == "zoo"))
        make_loop = lb.zoo.make_loop
        self._rebind(modules, make_loop, self._wrap_make_loop(make_loop))
        dual_cls = lb.dual.Dual
        orig_init = dual_cls.__init__
        tracer = self

        def counting_init(obj, re, du=0.0, lvl=0):
            obj.re = re
            obj.du = du
            obj.lvl = lvl
            if tracer.counting:
                tracer.extra["dual.nodes"] += 1

        dual_cls.__init__ = counting_init
        self._patches.append((dual_cls, "__init__", orig_init))

    def uninstall(self):
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()

    def _rebind(self, modules, fn, wrapper):
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, fn))

    def _wrap_make_loop(self, make_loop):
        def traced_make_loop(spec):
            loop = make_loop(spec)
            fields = {f: self._wrap("zoo." + f, getattr(loop, f), zoo=True)
                      for f in ("product", "left_div", "right_div")
                      if getattr(loop, f) is not None}
            return dataclasses.replace(loop, **fields)
        return traced_make_loop

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name, fn, zoo=False):
        tracer = self
        dual_cls = self.lb.dual.Dual

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._enter(name, args, dual_cls, zoo)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()

        wrapper.__wrapped__ = fn
        return wrapper

    def _enter(self, name, args, dual_cls, zoo):
        if self.counting:
            self.counts[name] += 1
            if zoo:
                self.extra["zoo.dual_calls" if _is_dual(args, dual_cls)
                           else "zoo.calls"] += 1
            elif name == FRAME_FUNC:
                a = args[1]
                self.frame_keys.add((tuple(self.lb.dual.primal(v) for v in a),
                                     _is_dual(a, dual_cls)))
            elif name == "reconstruct.reconstruct_product":
                self.extra["reconstruct.rk4_steps"] += int(args[3])
            elif name == "dual.gsolve" and object in (
                    np.asarray(args[0]).dtype, np.asarray(args[1]).dtype):
                self.extra["dual.gsolve_object_calls"] += 1
        if name == "reconstruct.reconstruct_product":
            self.steps_all += int(args[3])
        depth = self._stack[-1][4] if self._stack else 0
        if name in DERIVATIVE_PASSES:
            depth += 1
            if self.counting:
                self.max_depth = max(self.max_depth, depth)
        if name in GAUGE_GROUPS and self._gauge_group is None:
            self._gauge_group = (GAUGE_GROUPS[name], len(self._stack))
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([name, time.perf_counter(), 0.0, span_id, depth])

    def _exit(self):
        end = time.perf_counter()
        name, start, child, span_id, depth = self._stack.pop()
        dur = end - start
        own = dur - child
        self.self_s[name] += own
        if self._stack:
            self._stack[-1][2] += dur
        if name in DERIVATIVE_PASSES and depth == 1:
            self.incl_s["dual.derivative_passes"] += dur
        if name == "reconstruct.reconstruct_product":
            self.incl_s[name] += dur
        if self._gauge_group is not None and name.startswith("gauge."):
            group, level = self._gauge_group
            self.group_self[group] += own
            if level == len(self._stack):
                self._gauge_group = None
        if self.recording:
            if len(self.spans) < MAX_SPANS:
                parent = self._stack[-1][3] if self._stack else 0
                self.spans.append((span_id, parent, name,
                                   start - self._t0, end - self._t0))
            else:
                self.dropped_spans += 1

    def layer_calls(self, layer):
        prefix = layer + "."
        return sum(v for k, v in self.counts.items() if k.startswith(prefix))

    def layer_self(self, layer):
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start": round(start, 9),
                                     "end": round(end, 9)}) + "\n")
