"""Refinement forest and the greedy bisection loop.

The forest is an append-only store of triangles: the initial triangulation
forms the roots, every bisection adds two children, and the leaves are the
current triangulation.  The greedy loop repeatedly bisects the leaf with
the largest local Lp error, choosing the edge through a decision function;
leaves tie by earliest creation.  Meshes serialize to a plain-text format
with 17-significant-digit decimals so runs round-trip bit-exactly.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from . import approx
from .geometry import Triangle, bisect, edge_vectors_of, sigma_batch

__all__ = [
    "RunawayRefinementError",
    "MeshFormatError",
    "StopRule",
    "GreedyConfig",
    "TraceRecord",
    "ForestNode",
    "RefinementForest",
    "initial_mesh",
    "select_edge",
    "greedy_run",
    "uniform_refine",
    "global_error",
    "max_leaf_diameter",
    "mesh_to_text",
    "mesh_from_text",
    "save_mesh",
    "load_mesh",
]

MESH_HEADER = "aniso-mesh v1"

STOP_KINDS = ("target-count", "error-threshold", "generation-levels")
DECISIONS = ("l1-interp", "lp-split")
INITIAL_MESHES = ("ref-triangle", "unit-square")


class RunawayRefinementError(RuntimeError):
    """Raised when refinement exceeds the configured node cap."""


class MeshFormatError(ValueError):
    """Raised on malformed mesh files; message carries the line number."""


@dataclass(frozen=True)
class StopRule:
    """When the greedy loop stops.

    kind: 'target-count' (leaf count reaches value), 'error-threshold'
    (all leaf errors <= value) or 'generation-levels' (every leaf bisected
    to generation value).
    """

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in STOP_KINDS:
            raise ValueError(f"unknown stop rule {self.kind!r}; expected {STOP_KINDS}")
        if not math.isfinite(self.value):
            raise ValueError(f"{self.kind} needs a finite value, got {self.value}")
        if self.kind == "target-count" and (self.value < 1 or self.value != int(self.value)):
            raise ValueError("target-count needs a positive integer leaf count")
        if self.kind == "error-threshold" and not self.value > 0:
            raise ValueError("error-threshold needs a positive tolerance")
        if self.kind == "generation-levels" and (self.value < 0 or self.value != int(self.value)):
            raise ValueError("generation-levels needs a non-negative integer")


@dataclass(frozen=True)
class GreedyConfig:
    """Knobs of a refinement run; defaults give the L2 / L1-decision setup."""

    p: float = 2.0
    operator: str = "interpolation"
    decision: str = "l1-interp"
    stop: StopRule = field(default_factory=lambda: StopRule("target-count", 256))
    initial: object = "ref-triangle"
    node_cap: int = 2 ** 22

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise ValueError(f"p must satisfy 1 <= p <= inf, got {self.p}")
        if self.operator not in approx.OPERATORS:
            raise ValueError(f"unknown operator {self.operator!r}")
        if self.decision not in DECISIONS:
            raise ValueError(f"unknown decision {self.decision!r}; expected {DECISIONS}")
        if self.node_cap < 3:
            raise ValueError("node cap too small")


@dataclass(frozen=True)
class TraceRecord:
    """Per-step diagnostics of a refinement run."""

    step: int
    n_leaves: int
    global_error: float
    max_diam: float
    sigma_mean: float  # nan unless the field carries a definite form
    sigma_max: float


@dataclass
class ForestNode:
    triangle: Triangle
    parent: int
    level: int
    children: tuple[int, int] | None = None
    error: float | None = None


class RefinementForest:
    """Append-only binary forest of triangles; leaves form the triangulation."""

    def __init__(self, roots):
        roots = list(roots)
        if not roots:
            raise ValueError("forest needs at least one root triangle")
        self.nodes: list[ForestNode] = [
            ForestNode(t, parent=-1, level=0) for t in roots
        ]
        self.n_roots = len(roots)
        self._leaves: set[int] = set(range(len(roots)))

    @property
    def n_leaves(self) -> int:
        return len(self._leaves)

    def is_leaf(self, node_id: int) -> bool:
        return node_id in self._leaves

    def leaf_ids(self) -> list[int]:
        return sorted(self._leaves)

    def leaf_triangles(self) -> list[Triangle]:
        return [self.nodes[i].triangle for i in self.leaf_ids()]

    def leaf_vertex_array(self) -> np.ndarray:
        """Vertices of all leaves, shape (n_leaves, 3, 2), in id order."""
        return np.array([self.nodes[i].triangle.vertices for i in self.leaf_ids()])

    def roots(self) -> list[Triangle]:
        return [self.nodes[i].triangle for i in range(self.n_roots)]

    def bisect_node(self, node_id: int, edge_index: int) -> tuple[int, int]:
        """Split a leaf; returns the ids of the two new children."""
        node = self.nodes[node_id]
        if node.children is not None:
            raise ValueError(f"node {node_id} is already bisected")
        c1, c2 = bisect(node.triangle, edge_index)
        i1 = len(self.nodes)
        self.nodes.append(ForestNode(c1, parent=node_id, level=node.level + 1))
        self.nodes.append(ForestNode(c2, parent=node_id, level=node.level + 1))
        node.children = (i1, i1 + 1)
        self._leaves.discard(node_id)
        self._leaves.update((i1, i1 + 1))
        return i1, i1 + 1


def initial_mesh(spec) -> list[Triangle]:
    """Resolve an initial-mesh spec to a list of root triangles.

    'ref-triangle' is the unit right triangle; 'unit-square' splits the
    unit square along its main diagonal.  A Triangle or an iterable of
    Triangles passes through.
    """
    if isinstance(spec, Triangle):
        return [spec]
    if isinstance(spec, str):
        if spec == "ref-triangle":
            return [Triangle([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])]
        if spec == "unit-square":
            return [
                Triangle([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]),
                Triangle([(0.0, 0.0), (1.0, 1.0), (0.0, 1.0)]),
            ]
        raise ValueError(f"unknown initial mesh {spec!r}; expected {INITIAL_MESHES}")
    tris = list(spec)
    if not tris or not all(isinstance(t, Triangle) for t in tris):
        raise ValueError("initial mesh must be Triangles")
    return tris


def _reference_form(f):
    form = getattr(f, "form", None)
    if form is not None and form.is_positive_definite:
        return form
    return None


def select_edge(t: Triangle, f, config: GreedyConfig) -> int:
    """Edge whose bisection the decision function prefers.

    For the L1-interpolation decision on convexity-tagged fields this is
    the argmax of the exact error-reduction formula; otherwise the argmin
    of the child-quadrature decision values.  Ties pick the lowest index.
    """
    if config.decision == "l1-interp":
        if getattr(f, "is_convex", False):
            return int(np.argmax(approx.decision_gains_convex(t, f)))
        vals = [approx.decision_l1(t, f, e) for e in range(3)]
        return int(np.argmin(vals))
    vals = [approx.decision_lp_split(t, f, config.p, e, config.operator)
            for e in range(3)]
    return int(np.argmin(vals))


def max_leaf_diameter(forest: RefinementForest) -> float:
    e = edge_vectors_of(forest.leaf_vertex_array())
    return float(np.sqrt((e * e).sum(axis=2).max()))


def _trace_record(forest, p, form, step) -> TraceRecord:
    if form is not None:
        s = sigma_batch(form, forest.leaf_vertex_array())
        smean, smax = float(s.mean()), float(s.max())
    else:
        smean = smax = math.nan
    errs = [forest.nodes[i].error for i in forest.leaf_ids()]
    return TraceRecord(step, forest.n_leaves, approx.lp_sum(errs, p),
                       max_leaf_diameter(forest), smean, smax)


def _is_pow2(n: int) -> bool:
    return n & (n - 1) == 0


def _check_levels_fit(n_nodes: int, n_leaves: int, levels: int, node_cap: int) -> None:
    """Fail fast unless bisecting ``n_leaves`` leaves ``levels`` times fits the cap."""
    # past the cap's bit length, 2**levels alone exceeds the cap
    added = 2 * n_leaves * (2 ** min(levels, int(node_cap).bit_length()) - 1)
    if n_nodes + added > node_cap:
        raise RunawayRefinementError(
            f"refining {n_leaves} leaves by {levels} levels exceeds the node cap "
            f"{node_cap}")


def greedy_run(f, config: GreedyConfig, record_at=None):
    """Run greedy refinement until the stop rule holds.

    Returns ``(forest, trace)``.  Trace records are emitted at step 0,
    every step while the mesh has at most 1024 leaves, at powers of two
    beyond that, at every leaf count in ``record_at``, and at the final
    step.  Raises RunawayRefinementError at the node cap, and before
    refining when a generation-levels run cannot fit under it.
    """
    forest = RefinementForest(initial_mesh(config.initial))
    stop = config.stop
    if stop.kind == "target-count" and stop.value < forest.n_roots:
        raise ValueError(
            f"target-count {stop.value} below the {forest.n_roots} initial triangles")
    if stop.kind == "generation-levels":
        _check_levels_fit(forest.n_roots, forest.n_roots, int(stop.value), config.node_cap)
    record_at = frozenset(int(n) for n in record_at) if record_at else frozenset()
    form = _reference_form(f)

    heap: list[tuple[float, int]] = []
    for i in forest.leaf_ids():
        err = approx.local_error(forest.nodes[i].triangle, f, config.p, config.operator)
        forest.nodes[i].error = err
        heapq.heappush(heap, (-err, i))

    trace = [_trace_record(forest, config.p, form, 0)]
    step = 0
    traced_last = True
    while True:
        # pop the current maximal-error leaf, skipping stale entries
        while heap and not forest.is_leaf(heap[0][1]):
            heapq.heappop(heap)
        if stop.kind == "target-count":
            if forest.n_leaves >= int(stop.value):
                break
        elif stop.kind == "error-threshold":
            if not heap or -heap[0][0] <= stop.value:
                break
        else:  # generation-levels: park leaves that reached the level
            while heap and (not forest.is_leaf(heap[0][1])
                            or forest.nodes[heap[0][1]].level >= int(stop.value)):
                heapq.heappop(heap)
            if not heap:
                break
        if not heap:
            break
        if len(forest.nodes) + 2 > config.node_cap:
            raise RunawayRefinementError(
                f"node cap {config.node_cap} reached at {forest.n_leaves} leaves")
        node_id = heapq.heappop(heap)[1]
        node = forest.nodes[node_id]
        edge = select_edge(node.triangle, f, config)
        for child in forest.bisect_node(node_id, edge):
            err = approx.local_error(forest.nodes[child].triangle, f, config.p,
                                     config.operator)
            forest.nodes[child].error = err
            heapq.heappush(heap, (-err, child))
        step += 1
        n = forest.n_leaves
        traced_last = n <= 1024 or _is_pow2(n) or n in record_at
        if traced_last:
            trace.append(_trace_record(forest, config.p, form, step))
    if not traced_last:
        trace.append(_trace_record(forest, config.p, form, step))
    return forest, trace


def uniform_refine(forest: RefinementForest, f, config: GreedyConfig,
                   levels: int) -> RefinementForest:
    """Bisect every leaf ``levels`` times with the configured edge choice.

    Leaf count multiplies by 2**levels; leaf errors are left uncached
    (greedy selection is not involved).  Raises RunawayRefinementError
    before refining when the result would exceed the node cap.
    """
    if levels < 0:
        raise ValueError("levels must be >= 0")
    _check_levels_fit(len(forest.nodes), forest.n_leaves, levels, config.node_cap)
    for _ in range(levels):
        for node_id in forest.leaf_ids():
            edge = select_edge(forest.nodes[node_id].triangle, f, config)
            forest.bisect_node(node_id, edge)
    return forest


def global_error(forest: RefinementForest, f, p, op: str = "interpolation") -> float:
    """Global Lp error over the leaves (max over leaves when p = inf)."""
    return approx.lp_sum(approx.local_errors(forest.leaf_vertex_array(), f, p, op), p)


def _fmt(x: float) -> str:
    return format(x, ".17g")


def mesh_to_text(forest: RefinementForest) -> str:
    """Serialize a forest to the plain-text mesh format."""
    vert_index: dict[tuple[float, float], int] = {}
    vert_lines: list[str] = []
    node_lines: list[str] = []
    for node in forest.nodes:
        idx = []
        for x, y in node.triangle.vertices:
            key = (float(x), float(y))
            i = vert_index.get(key)
            if i is None:
                i = len(vert_index)
                vert_index[key] = i
                vert_lines.append(f"v {_fmt(key[0])} {_fmt(key[1])}")
            idx.append(i)
        node_lines.append(f"t {idx[0]} {idx[1]} {idx[2]} {node.parent}")
    leaf_lines = [f"leaf {i}" for i in forest.leaf_ids()]
    return "\n".join([MESH_HEADER, *vert_lines, *node_lines, *leaf_lines]) + "\n"


def save_mesh(forest: RefinementForest, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(mesh_to_text(forest))


def mesh_from_text(text: str) -> RefinementForest:
    """Parse the plain-text mesh format back into a forest."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != MESH_HEADER:
        raise MeshFormatError(f"line 1: expected header {MESH_HEADER!r}")
    verts: list[tuple[float, float]] = []
    tris: list[tuple[int, int, int, int, int]] = []  # (line, i, j, k, parent)
    leaves: list[int] = []
    for ln, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "v" and len(parts) == 3:
                verts.append((float(parts[1]), float(parts[2])))
            elif parts[0] == "t" and len(parts) == 5:
                tris.append((ln, *(int(s) for s in parts[1:])))
            elif parts[0] == "leaf" and len(parts) == 2:
                leaves.append(int(parts[1]))
            else:
                raise ValueError("unrecognized directive")
        except ValueError as exc:
            raise MeshFormatError(f"line {ln}: {exc} in {raw!r}") from None
    if not tris:
        raise MeshFormatError("line 1: mesh contains no triangles")

    forest = object.__new__(RefinementForest)
    forest.nodes = []
    children: dict[int, list[int]] = {}
    n_roots = 0
    for n, (ln, i, j, k, parent) in enumerate(tris):
        if not all(0 <= v < len(verts) for v in (i, j, k)):
            raise MeshFormatError(f"line {ln}: vertex index out of range")
        if parent >= n or parent < -1:
            raise MeshFormatError(f"line {ln}: parent {parent} must precede node {n}")
        if parent == -1:
            if n != n_roots:
                raise MeshFormatError(f"line {ln}: roots must come first")
            n_roots += 1
            level = 0
        else:
            level = forest.nodes[parent].level + 1
            children.setdefault(parent, []).append(n)
        try:
            tri = Triangle([verts[i], verts[j], verts[k]])
        except ValueError as exc:
            raise MeshFormatError(f"line {ln}: {exc}") from None
        forest.nodes.append(ForestNode(tri, parent=parent, level=level))
    for parent, kids in children.items():
        if len(kids) != 2:
            raise MeshFormatError(f"node {parent} has {len(kids)} children, expected 2")
        forest.nodes[parent].children = tuple(kids)
    forest.n_roots = n_roots
    derived = {n for n in range(len(tris)) if forest.nodes[n].children is None}
    if set(leaves) != derived:
        raise MeshFormatError("leaf markers disagree with the refinement tree")
    forest._leaves = derived
    return forest


def load_mesh(path) -> RefinementForest:
    with open(path, "r", encoding="ascii") as fh:
        return mesh_from_text(fh.read())
