"""Spans and counters recorded around anisomesh's functions, from outside.

Nothing in the package is instrumented.  ``Tracer.installed()`` rebinds
the module attributes and class methods through which the package calls
its own layers (``approx.local_error``, ``engine.select_edge``,
``Triangle.__init__`` ...) to wrappers that open a span, and restores the
originals on exit.  Spans live in flat in-memory arrays (layer, start,
end, parent) and are written out once, when the run ends.

Two layers are opaque: beneath ``approx.decision`` (the edge decision with
the child errors it computes) and ``engine.trace`` (the per-step trace
record) no further spans open, only counters count.  Their self time is
therefore the whole cost of deciding and of tracing.
"""
from __future__ import annotations

import collections
import contextlib
import functools
import heapq
import time
from array import array

import numpy as np

from anisomesh import analysis, approx, cli, engine, fields, geometry

OPAQUE = ("approx.decision", "engine.trace")


class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self):
        self.layers: list[str] = []
        self._layer_id: dict[str, int] = {}
        self.layer = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self._opaque = 0
        self.active = False
        self.counts: collections.Counter = collections.Counter()
        # counters split by the root span they were counted under
        self.root_counts: dict[str, collections.Counter] = \
            collections.defaultdict(collections.Counter)

    def _id(self, name: str) -> int:
        i = self._layer_id.get(name)
        if i is None:
            i = self._layer_id[name] = len(self.layers)
            self.layers.append(name)
        return i

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.layer.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """A top-level span around one benchmark op; tracing is on inside."""
        before = self.counts.copy()
        self.active = True
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)
            self.active = False
            self.root_counts[name].update(self.counts - before)

    def wrap(self, name: str, fn, count=None):
        """``fn`` with a span named ``name`` around each traced call.

        ``count(args, kwargs, result)`` may add layer-specific counters.
        """
        opaque = name in OPAQUE
        calls = name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.counts[calls] += 1
            if self._opaque:
                out = fn(*args, **kwargs)
            else:
                idx = self.open(name)
                self._opaque += opaque
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._opaque -= opaque
                    self.close(idx)
            if count is not None:
                count(args, kwargs, out)
            return out

        return traced

    def _targets(self):
        """(owner, attribute, layer, counter) for every traced entry point."""
        c = self.counts

        def points(args, kwargs, out):
            c["fields.points"] += int(np.size(out))

        def decision(kind):
            def add(args, kwargs, out):
                c[f"approx.decision.{kind}.calls"] += 1
            return add

        def text_bytes(key):
            def add(args, kwargs, out):
                c[key] += len(out)
            return add

        def read_bytes(args, kwargs, out):
            c["engine.mesh.bytes"] += len(args[0])

        return [
            (fields.ScalarField, "__call__", "fields", points),
            (geometry.Triangle, "__init__", "geometry.triangle", None),
            (engine, "bisect", "geometry.bisect", None),
            (approx, "bisect", "geometry.bisect", None),
            (engine, "sigma_batch", "geometry.sigma_batch", None),
            (analysis, "sigma_batch", "geometry.sigma_batch", None),
            (cli, "sigma_batch", "geometry.sigma_batch", None),
            (approx, "local_error", "approx.local_error", None),
            (approx, "decision_gains_convex", "approx.decision", decision("gains_convex")),
            (approx, "decision_l1", "approx.decision", decision("l1")),
            (approx, "decision_lp_split", "approx.decision", decision("lp_split")),
            (engine, "select_edge", "engine.select_edge", None),
            (engine.RefinementForest, "bisect_node", "engine.bisect_node", None),
            (engine, "_trace_record", "engine.trace", None),
            (engine, "greedy_run", "engine.greedy_run", None),
            (engine, "uniform_refine", "engine.uniform_refine", None),
            (engine, "mesh_to_text", "engine.mesh_to_text", text_bytes("engine.mesh.bytes")),
            (engine, "mesh_from_text", "engine.mesh_from_text", read_bytes),
            (analysis, "sigma_study", "analysis.sigma_study", None),
            (analysis, "trace_csv", "analysis.csv", None),
            (analysis, "sigma_csv", "analysis.csv", None),
            (cli, "mesh_to_svg", "cli.mesh_to_svg", text_bytes("cli.svg.bytes")),
            (cli, "main", "cli", None),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced entry point for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, count in self._targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, count))
            saved.append((engine, "heapq", engine.heapq))
            engine.heapq = _CountingHeap(self)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self) -> dict:
        """The span store as numpy arrays (times in ns)."""
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "layers": np.array(self.layers),
        }

    def _durations(self):
        a = self.arrays()
        dur = a["end_ns"] - a["start_ns"]
        parent = a["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        # parents precede their children, so pointer jumping finds the roots
        root = np.where(has_parent, parent, np.arange(len(dur)))
        while not np.array_equal(root[root], root):
            root = root[root]
        return a["layer"], parent, dur, child, a["layer"][root]

    def self_times(self, under: str | None = None) -> dict[str, float]:
        """Seconds of self time per layer, optionally only below root ``under``.

        A span's self time is its duration minus the durations of its
        direct children; summed over all layers this equals the summed
        duration of the root spans.
        """
        layer, _, dur, child, root_layer = self._durations()
        keep = (root_layer == self._layer_id[under]) if under in self._layer_id \
            else np.full(len(dur), under is None)
        own = np.bincount(layer[keep], weights=(dur - child)[keep],
                          minlength=len(self.layers))
        return {name: float(own[i]) * 1e-9 for i, name in enumerate(self.layers)}

    def inclusive_times(self) -> dict[str, float]:
        """Seconds spent inside the outermost spans of each layer."""
        layer, parent, dur, _, _ = self._durations()
        outer = (parent < 0) | (layer[np.maximum(parent, 0)] != layer)
        tot = np.bincount(layer[outer], weights=dur[outer], minlength=len(self.layers))
        return {name: float(tot[i]) * 1e-9 for i, name in enumerate(self.layers)}

    def write(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


class _CountingHeap:
    """Stand-in for ``engine.heapq`` that counts pushes and pops."""

    def __init__(self, tracer: Tracer):
        self._t = tracer

    def heappush(self, heap, item):
        if self._t.active:
            self._t.counts["engine.heap.pushes"] += 1
        heapq.heappush(heap, item)

    def heappop(self, heap):
        if self._t.active:
            self._t.counts["engine.heap.pops"] += 1
        return heapq.heappop(heap)
