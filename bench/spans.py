"""Spans around the public functions of each crlab layer, recorded from
outside the program.

Each public module-level function of a layer is wrapped under every name
a caller looks it up by: `verify` binds `proj_distance` through
`from .core import ...`, so the wrapper replaces `crlab.verify.proj_distance`
as well as `crlab.core.proj_distance`.  Three more boundaries are wrapped
by hand: the constructors of `FamilyRep` and `FaceFamily`, the vertex
search `verify._bitangency`, and the entries of `figures.FIGURES`, named
by figure and format.

Spans are kept in flat arrays in memory and written out once, at the end.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from array import array

import numpy as np

LAYERS = ("core", "isometry", "family", "bisector", "visual", "verify", "figures", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")  # index of the enclosing span, -1 at top level
        self.request = array("i")  # the command that caused the span
        self.outer = array("b")  # 0 when nested in a span of the same name
        self.start = array("d")
        self.end = array("d")
        self.request_id = 0
        self._stack = [-1]
        self._active: list[int] = []
        self._undo = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.request.append(self.request_id)
            self.outer.append(self._active[nid] == 0)
            self.start.append(time.perf_counter())
            self.end.append(math.nan)
            self._stack.append(i)
            self._active[nid] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = time.perf_counter()
                self._active[nid] -= 1
                self._stack.pop()

        return traced

    def _patch(self, target, key, value):
        if isinstance(target, dict):
            self._undo.append((target, key, target[key]))
            target[key] = value
        else:
            self._undo.append((target, key, getattr(target, key)))
            setattr(target, key, value)

    def install(self, modules: dict):
        """Wrap the layers; `modules` maps each name in LAYERS to its module."""
        wrappers = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        verify, family, figures = modules["verify"], modules["family"], modules["figures"]
        wrappers[verify._bitangency] = self.wrap("verify.tf.vertex_search", verify._bitangency)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        for cls in (family.FamilyRep, verify.FaceFamily):
            self._patch(cls, "__init__", self.wrap(f"{cls.__module__.split('.')[-1]}.{cls.__name__}", cls.__init__))
        for key, fn in list(figures.FIGURES.items()):
            self._patch(figures.FIGURES, key, self._figure_entry(key, fn))

    def _figure_entry(self, key, fn):
        by_fmt = {fmt: self.wrap(f"figures.{key}.{fmt}", fn) for fmt in ("csv", "svg")}

        def entry(out_base, fmt="csv", **kwargs):
            return by_fmt[fmt](out_base, fmt=fmt, **kwargs)

        return entry

    def uninstall(self):
        while self._undo:
            target, key, value = self._undo.pop()
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)

    def totals(self):
        """(calls, seconds) per span name; a span nested in one of the same
        name adds to the calls but not to the time."""
        name = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)
        calls = np.bincount(name, minlength=len(self.names))
        secs = np.bincount(name[outer], weights=dur[outer], minlength=len(self.names))
        return (
            {n: int(calls[i]) for i, n in enumerate(self.names)},
            {n: float(secs[i]) for i, n in enumerate(self.names)},
        )

    def save(self, path: str):
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


FIGURE_NAMES = ("level-sets", "peach-curve", "region-z", "disk-projection",
                "spinal-trace", "schwartz-slice")


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics, as name -> (value, unit); a layer the workload
    does not reach reads 0."""
    calls, secs = tracer.totals()

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return secs.get(name, 0.0)

    tf, search = s("verify.tf_check"), s("verify.tf.vertex_search")
    m = {
        "verify.tf.vertex_search_s": (search, "s"),
        "verify.tf_s": (tf, "s"),
        "verify.tf.grid_s": (tf - search, "s"),
        "verify.lc_s": (s("verify.lc_check"), "s"),
        "verify.gc_s": (s("verify.gc_check_loxodromic") + s("verify.gc_check_elliptic"), "s"),
        "verify.incidence_s": (s("verify.incidence_check"), "s"),
        "verify.face_family_s": (s("verify.FaceFamily"), "s"),
        "core.proj_distance.calls": (c("core.proj_distance"), "count"),
        "core.proj_distance_s": (s("core.proj_distance"), "s"),
        "core.inner.calls": (c("core.inner"), "count"),
        "core.box.calls": (c("core.box"), "count"),
        "isometry.classify.calls": (c("isometry.classify"), "count"),
        "isometry.classify_s": (s("isometry.classify"), "s"),
        "family.remarkable_points_s": (s("family.remarkable_points"), "s"),
        "family.rep_builds": (c("family.FamilyRep"), "count"),
        "bisector.classify_bisector.calls": (c("bisector.classify_bisector"), "count"),
        "bisector.symmetric_intersection_type_s": (s("bisector.symmetric_intersection_type"), "s"),
        "visual.project_bisector.calls": (c("visual.project_bisector"), "count"),
        "visual.project_bisector_s": (s("visual.project_bisector"), "s"),
        "visual.slice_boundary_circle.calls": (c("visual.slice_boundary_circle"), "count"),
    }
    for fig in FIGURE_NAMES:
        for fmt in ("csv", "svg"):
            m[f"figures.{fig}.{fmt}_s"] = (s(f"figures.{fig}.{fmt}"), "s")
    return m
