"""Outside-in layer tracing for the benchmark's traced runs.

The library is not instrumented. Instead, each layer function below is
replaced by a wrapper in every ``mirrorgallery.*`` namespace that binds
it (most functions are imported by name into several modules), and the
two point-location methods get class-attribute wrappers that only count.
A wrapper records a span (name, start, end, parent span, operation id)
while an operation is running and passes straight through otherwise, so
the benchmark's checks are not traced. Spans stay in memory and are
written out when the run ends. Self time is a span's duration minus the
time its child spans cover.

A traced run that cannot measure what it names fails instead of reading 0:
``install`` raises TraceError when a traced function, class or method is
missing, and a per-function hook that raises on a changed signature or
result is recorded in ``Tracer.errors``, which the worker turns into a
failed run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# metric prefix -> (module, attribute)
SPANNED = {
    "geom.sees": ("mirrorgallery.geom", "sees"),
    "geom.overlay": ("mirrorgallery.geom", "overlay"),
    "geom.merge_region": ("mirrorgallery.geom", "merge_region"),
    "visibility.visibility_polygon": ("mirrorgallery.visibility", "visibility_polygon"),
    "visibility.weak_visibility_polygon": ("mirrorgallery.visibility", "weak_visibility_polygon"),
    "reflect.diffuse_extend": ("mirrorgallery.reflect", "diffuse_extend"),
    "reflect.specular_extend_single": ("mirrorgallery.reflect", "specular_extend_single"),
    "guard.decompose": ("mirrorgallery.guard", "decompose"),
    "guard.extended_region": ("mirrorgallery.guard", "extended_region"),
    "guard.coverage_sets": ("mirrorgallery.guard", "coverage_sets"),
    "guard.greedy_cover": ("mirrorgallery.guard", "greedy_cover"),
    "guard.spanning_tree_reduce": ("mirrorgallery.guard", "spanning_tree_reduce"),
    "redgen.verify_instance": ("mirrorgallery.redgen", "verify_instance"),
    "redgen.solve_by_enumeration": ("mirrorgallery.redgen", "solve_by_enumeration"),
    "redgen.added_region_for_edge": ("mirrorgallery.redgen", "added_region_for_edge"),
    "fileio.parse_instance": ("mirrorgallery.fileio", "parse_instance"),
    "fileio.format_instance": ("mirrorgallery.fileio", "format_instance"),
    "cli.main": ("mirrorgallery.cli", "main"),
}

# metric prefix -> (module, attribute) of functions that are counted, with no span
COUNTED = {"geom.orientation": ("mirrorgallery.geom", "orientation")}

# metric prefix -> (module, class, method) counted through the class attribute
COUNTED_METHODS = {
    "geom.contains": [
        ("mirrorgallery.geom", "SimplePolygon", "contains"),
        ("mirrorgallery.geom", "Region", "contains"),
    ],
}

# (name, unit) of every per-layer metric, in BENCHMARK.json order
METRICS = [
    ("geom.orientation.calls", "count"),
    ("geom.contains.calls", "count"),
    ("geom.sees.calls", "count"),
    ("geom.sees.self_s", "s"),
    ("geom.overlay.calls", "count"),
    ("geom.overlay.self_s", "s"),
    ("geom.overlay.segments_in", "count"),
    ("geom.overlay.cells_out", "count"),
    ("geom.merge_region.calls", "count"),
    ("geom.merge_region.self_s", "s"),
    ("geom.merge_region.merged_ratio", "ratio"),
    ("visibility.visibility_polygon.calls", "count"),
    ("visibility.visibility_polygon.self_s", "s"),
    ("visibility.visibility_polygon.repeat_calls", "count"),
    ("visibility.weak_visibility_polygon.calls", "count"),
    ("visibility.weak_visibility_polygon.self_s", "s"),
    ("reflect.diffuse_extend.calls", "count"),
    ("reflect.diffuse_extend.self_s", "s"),
    ("reflect.specular_extend_single.calls", "count"),
    ("reflect.specular_extend_single.self_s", "s"),
    ("reflect.max_coord_bits", "bits"),
    ("guard.decompose.calls", "count"),
    ("guard.decompose.self_s", "s"),
    ("guard.decompose.cells", "count"),
    ("guard.decompose.generating_segments", "count"),
    ("guard.extended_region.calls", "count"),
    ("guard.extended_region.self_s", "s"),
    ("guard.extended_region.repeat_calls", "count"),
    ("guard.coverage_sets.self_s", "s"),
    ("guard.coverage_sets.membership_tests", "count"),
    ("guard.greedy_cover.self_s", "s"),
    ("guard.spanning_tree_reduce.self_s", "s"),
    ("redgen.verify_instance.calls", "count"),
    ("redgen.verify_instance.self_s", "s"),
    ("redgen.solve_by_enumeration.self_s", "s"),
    ("redgen.added_region_for_edge.calls", "count"),
    ("redgen.added_region_for_edge.repeat_calls", "count"),
    ("fileio.parse_instance.self_s", "s"),
    ("fileio.format_instance.self_s", "s"),
    ("cli.main.self_s", "s"),
]


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


class TraceError(Exception):
    """The library no longer has the shape the tracer measures."""


def _parts(region):
    # overlay sweeps the cells a region answers point queries with
    return region._query_parts


class Tracer:
    def __init__(self):
        self.op = None  # id of the running operation; None between operations
        self.spans: list = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.extra: Counter = Counter()
        self.max_bits = 0
        self._stack: list[list] = []  # [child time, span index] per open span
        self._seen: dict[str, set] = {}
        self.errors: list[str] = []  # one per layer whose bookkeeping raised

    # -- recording ---------------------------------------------------------

    def _call(self, name, fn, hook, args, kwargs):
        frame = [0.0, len(self.spans)]
        parent = self._stack[-1][1] if self._stack else None
        self.spans.append(None)
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            dur = t1 - t0
            self.calls[name] += 1
            self.self_s[name] += dur - frame[0]
            self.spans[frame[1]] = (name, t0, t1, parent, self.op)
            if self._stack:
                self._stack[-1][0] += dur
        if hook is not None:
            h0 = time.perf_counter()
            try:
                hook(self, args, kwargs, result)
            except Exception as ex:
                # the operation's result stands; the run's layer figures do not
                if not any(e.startswith(name + ":") for e in self.errors):
                    self.errors.append(f"{name}: bookkeeping raised {type(ex).__name__}: {ex}")
            if self._stack:
                # bookkeeping is not the caller's own work
                self._stack[-1][0] += time.perf_counter() - h0
        return result

    def _repeat(self, name, key):
        seen = self._seen.setdefault(name, set())
        if key in seen:
            self.extra[name + ".repeat_calls"] += 1
        else:
            seen.add(key)

    # -- per-function bookkeeping -----------------------------------------

    def _overlay(self, args, kwargs, result):
        layers = _arg(args, kwargs, 0, "layers")
        splitters = kwargs.get("splitters", ())
        self.extra["geom.overlay.segments_in"] += len(splitters) + sum(
            len(p.vertices) for region in layers for p in _parts(region)
        )
        self.extra["geom.overlay.cells_out"] += len(result.parts)

    def _merge_region(self, args, kwargs, result):
        region = _arg(args, kwargs, 0, "region")
        if len(region.parts) > 1:
            self.extra["geom.merge_region.multi"] += 1
            if result is not region:
                self.extra["geom.merge_region.merged"] += 1

    def _visibility_polygon(self, args, kwargs, result):
        self._repeat("visibility.visibility_polygon", (_arg(args, kwargs, 0, "P"), _arg(args, kwargs, 1, "q")))

    def _extension(self, args, kwargs, result):
        self.max_bits = max(self.max_bits, result.added.max_coordinate_bits())

    def _decompose(self, args, kwargs, result):
        self.extra["guard.decompose.cells"] += len(result.cells)
        self.extra["guard.decompose.generating_segments"] += len(result.generating_segments)

    def _extended_region(self, args, kwargs, result):
        self._repeat("guard.extended_region", tuple(_arg(args, kwargs, i, k) for i, k in enumerate("Ppr")))

    def _coverage_sets(self, args, kwargs, result):
        decomposition = _arg(args, kwargs, 1, "decomposition")
        points = _arg(args, kwargs, 2, "guard_points")
        self.extra["guard.coverage_sets.membership_tests"] += len(points) * len(decomposition.cells)

    def _added_region_for_edge(self, args, kwargs, result):
        ri = _arg(args, kwargs, 0, "ri")
        self._repeat("redgen.added_region_for_edge", (ri.polygon, ri.q, ri.kind, _arg(args, kwargs, 1, "e")))

    HOOKS = {
        "geom.overlay": _overlay,
        "geom.merge_region": _merge_region,
        "visibility.visibility_polygon": _visibility_polygon,
        "reflect.diffuse_extend": _extension,
        "reflect.specular_extend_single": _extension,
        "guard.decompose": _decompose,
        "guard.extended_region": _extended_region,
        "guard.coverage_sets": _coverage_sets,
        "redgen.added_region_for_edge": _added_region_for_edge,
    }

    # -- installation ------------------------------------------------------

    def _span_wrapper(self, name, fn):
        hook = self.HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            if name == "geom.overlay" and "splitters" in kwargs:
                kwargs["splitters"] = list(kwargs["splitters"])
            return self._call(name, fn, hook, args, kwargs)

        return wrapper

    def _count_wrapper(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is not None:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Rebind every traced function in each mirrorgallery namespace that holds it.

        Raises TraceError if the library no longer has one of them.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "mirrorgallery" or n.startswith("mirrorgallery."))]
        targets = [(name, mod, attr, self._span_wrapper) for name, (mod, attr) in SPANNED.items()]
        targets += [(name, mod, attr, self._count_wrapper) for name, (mod, attr) in COUNTED.items()]
        for name, modname, attr, make in targets:
            original = getattr(importlib.import_module(modname), attr, None)
            if not callable(original):
                raise TraceError(f"{name}: {modname}.{attr} is not a function")
            wrapper = make(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        for name, methods in COUNTED_METHODS.items():
            for modname, cls_name, attr in methods:
                cls = getattr(importlib.import_module(modname), cls_name, None)
                if cls is None or not callable(vars(cls).get(attr)):
                    raise TraceError(f"{name}: {modname}.{cls_name}.{attr} is not a method")
                setattr(cls, attr, self._count_wrapper(name, vars(cls)[attr]))

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        values: dict[str, float] = {}
        for name, _unit in METRICS:
            prefix, _, kind = name.rpartition(".")
            if kind == "calls":
                values[name] = self.calls[prefix]
            elif kind == "self_s":
                values[name] = self.self_s[prefix]
            else:
                values[name] = self.extra[name]
        multi = self.extra["geom.merge_region.multi"]
        values["geom.merge_region.merged_ratio"] = (
            self.extra["geom.merge_region.merged"] / multi if multi else 0.0
        )
        values["reflect.max_coord_bits"] = self.max_bits
        return values

    def dump(self, path):
        with open(path, "w") as fh:
            for name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")
