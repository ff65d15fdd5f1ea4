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
    "RefinementForest",
    "initial_mesh",
    "select_edge",
    "greedy_run",
    "uniform_refine",
    "global_error",
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


NODE_DTYPE = np.dtype([("verts", float, (3, 2)), ("parent", np.int64),
                       ("level", np.int64), ("child", np.int64), ("error", float)])


class RefinementForest:
    """Append-only binary forest of triangles; leaves form the triangulation.

    ``nodes`` is a record array (NODE_DTYPE) in creation order, roots first.
    ``child`` is the id of a node's first child (siblings are consecutive),
    -1 for a leaf; ``error`` is the cached local error, nan until computed.
    """

    def __init__(self, roots):
        self._buf = np.empty(0, NODE_DTYPE)
        self._n = 0
        self._append(np.array([t.vertices for t in roots]).reshape(-1, 3, 2), -1, 0)
        if not self._n:
            raise ValueError("forest needs at least one root triangle")
        self.n_roots = self._n

    def _append(self, verts, parent, level) -> int:
        """Append leaves (..., 3, 2), parent and level broadcast; returns the first id."""
        first, self._n = self._n, self._n + verts.size // 6
        if self._n > len(self._buf):
            grown = np.empty(max(2 * len(self._buf), self._n), NODE_DTYPE)
            grown["child"], grown["error"] = -1, math.nan  # rows are born leaves
            grown[:first] = self._buf[:first]
            self._buf = grown
        new = self._buf[first:self._n].reshape(verts.shape[:-2])
        new["verts"], new["parent"], new["level"] = verts, parent, level
        return first

    @property
    def nodes(self) -> np.ndarray:
        return self._buf[:self._n]

    @property
    def n_leaves(self) -> int:
        return (self._n + self.n_roots) // 2

    def triangle(self, node_id: int) -> Triangle:
        return Triangle(self.nodes["verts"][node_id])

    def leaf_ids(self) -> np.ndarray:
        return np.flatnonzero(self.nodes["child"] < 0)

    def leaf_vertex_array(self) -> np.ndarray:
        """Vertices of all leaves, shape (n_leaves, 3, 2), in id order."""
        return self.nodes["verts"][self.nodes["child"] < 0]

    def bisect_node(self, node_id, edge_index):
        """Split one leaf, or an array of distinct leaves, at the given edges.

        Returns the ids of child 0 and child 1: ints, or arrays in the order of
        ``node_id``.  A non-leaf or a repeated id raises ValueError, changing nothing.
        """
        ids = np.asarray(node_id)
        rows = self.nodes[ids]
        bad = rows["child"] >= 0
        if np.count_nonzero(bad):
            raise ValueError(f"node {ids[bad].flat[0]} is already bisected")
        if ids.ndim and len(np.unique(ids)) < len(ids):
            raise ValueError("a node id is given twice")
        # the pair of children of each node, (..., 2, 3, 2), in node order
        children = np.concatenate(bisect(rows["verts"], edge_index), axis=-2)
        first = self._append(children.reshape(ids.shape + (2, 3, 2)), ids[..., None],
                             (rows["level"] + 1)[..., None])
        firsts = np.arange(first, self._n, 2).reshape(ids.shape)
        self._buf["child"][ids] = firsts
        return (first, first + 1) if not ids.ndim else (firsts, firsts + 1)


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


def select_edge(verts, f, config: GreedyConfig):
    """Edge whose bisection the decision function prefers.

    An int for one triangle (3, 2), an index array for a batch (n, 3, 2):
    the argmax of the exact error-reduction formula for the L1-interpolation
    decision on convexity-tagged fields, otherwise the argmin of the
    child-quadrature decision values.  Ties pick the lowest index.
    """
    if config.decision == "lp-split":
        edges = np.argmin(approx.decision_lp_split(verts, f, config.p, config.operator),
                          axis=-1)
    elif getattr(f, "is_convex", False):
        edges = np.argmax(approx.decision_gains_convex(verts, f), axis=-1)
    else:
        edges = np.argmin(approx.decision_l1(verts, f), axis=-1)
    return int(edges) if edges.ndim == 0 else edges


def _trace_record(forest, p, form, step) -> TraceRecord:
    nodes = forest.nodes
    leaves = nodes[nodes["child"] < 0]
    verts = leaves["verts"]
    if form is not None:
        s = sigma_batch(form, verts)
        smean, smax = float(s.mean()), float(s.max())
    else:
        smean = smax = math.nan
    e = edge_vectors_of(verts)
    return TraceRecord(step, forest.n_leaves, approx.lp_sum(leaves["error"], p),
                       float(np.sqrt((e * e).sum(axis=2).max())), smean, smax)


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
    form = getattr(f, "form", None)
    if form is not None and not form.is_positive_definite:
        form = None

    # Entries (-error, id) are exactly the leaves not parked at their
    # generation level; equal errors pop the earliest id.
    heap: list[tuple[float, int]] = []

    def push(node_id: int) -> None:
        err = approx.local_error(forest.triangle(node_id), f, config.p, config.operator)
        forest.nodes["error"][node_id] = err
        heapq.heappush(heap, (-err, node_id))

    for i in range(forest.n_roots):
        push(i)
    trace = [_trace_record(forest, config.p, form, 0)]
    step = 0
    traced_last = True
    while True:
        if stop.kind == "target-count":
            if forest.n_leaves >= int(stop.value):
                break
        elif stop.kind == "error-threshold":
            if -heap[0][0] <= stop.value:
                break
        else:  # generation-levels: park leaves that reached the level
            while heap and forest.nodes["level"][heap[0][1]] >= int(stop.value):
                heapq.heappop(heap)
            if not heap:
                break
        if len(forest.nodes) + 2 > config.node_cap:
            raise RunawayRefinementError(
                f"node cap {config.node_cap} reached at {forest.n_leaves} leaves")
        _, node_id = heapq.heappop(heap)
        edge = select_edge(forest.nodes["verts"][node_id], f, config)
        for child in forest.bisect_node(node_id, edge):
            push(child)
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
        ids = forest.leaf_ids()
        forest.bisect_node(ids, select_edge(forest.nodes["verts"][ids], f, config))
    return forest


def global_error(forest: RefinementForest, f, p, op: str = "interpolation") -> float:
    """Global Lp error over the leaves (max over leaves when p = inf)."""
    return approx.lp_sum(approx.local_errors(forest.leaf_vertex_array(), f, p, op), p)


def _fmt(x: float) -> str:
    return format(x, ".17g")


def mesh_to_text(forest: RefinementForest) -> str:
    """Serialize a forest to the plain-text mesh format.

    Vertices are numbered by first use; equal bits share one (0.0 and -0.0 do not).
    """
    nodes = forest.nodes
    xy = np.ascontiguousarray(nodes["verts"]).reshape(-1, 2)
    # one 16-byte key per vertex: equal keys are equal bits
    _, first, inverse = np.unique(xy.view("V16"), return_index=True, return_inverse=True)
    order = np.argsort(first)
    # a vertex's number is the rank of its first use
    tris = np.argsort(order)[inverse.reshape(-1)].reshape(-1, 3).tolist()
    vert_lines = [f"v {_fmt(x)} {_fmt(y)}" for x, y in xy[first[order]].tolist()]
    node_lines = [f"t {i} {j} {k} {parent}"
                  for (i, j, k), parent in zip(tris, nodes["parent"].tolist())]
    leaf_lines = [f"leaf {i}" for i in forest.leaf_ids().tolist()]
    return "\n".join([MESH_HEADER, *vert_lines, *node_lines, *leaf_lines]) + "\n"


def save_mesh(forest: RefinementForest, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(mesh_to_text(forest))


def mesh_from_text(text: str) -> RefinementForest:
    """Parse the plain-text mesh format back into a forest.

    The roots come first; the two children of a node are consecutive ``t``
    lines and its exact bisection, which is replayed to check them; ``leaf``
    lines list every leaf once, in ascending id order.  Any violation
    raises MeshFormatError naming the line.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != MESH_HEADER:
        raise MeshFormatError(f"line 1: expected header {MESH_HEADER!r}")
    verts: list[tuple[float, float]] = []
    tris: list[tuple[int, int, int, int, int]] = []  # (line, i, j, k, parent)
    leaves: list[tuple[int, int]] = []  # (line, id)
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
                leaves.append((ln, int(parts[1])))
            else:
                raise ValueError("unrecognized directive")
        except ValueError as exc:
            raise MeshFormatError(f"line {ln}: {exc} in {raw!r}") from None
    if not tris:
        raise MeshFormatError("line 1: mesh contains no triangles")

    roots = []
    for n, (ln, i, j, k, parent) in enumerate(tris):
        if not all(0 <= v < len(verts) for v in (i, j, k)):
            raise MeshFormatError(f"line {ln}: vertex index out of range")
        if parent >= n or parent < -1:
            raise MeshFormatError(f"line {ln}: parent {parent} must precede node {n}")
        if parent == -1 and n == len(roots):
            try:
                roots.append(Triangle([verts[i], verts[j], verts[k]]))
            except ValueError as exc:
                raise MeshFormatError(f"line {ln}: {exc}") from None
    forest = RefinementForest(roots)

    # child 0 of a bisection starts at the vertex opposite the bisected edge
    table = np.array(tris)
    tri_verts = np.array(verts)[table[:, 1:4]]
    first = np.arange(len(roots), len(tris), 2)
    edges = (tri_verts[table[first, 4]] == tri_verts[first, :1]).all(axis=2).argmax(axis=1)
    for n, edge in zip(first.tolist(), edges.tolist()):
        ln, parent = tris[n][0], tris[n][4]
        if parent == -1:
            raise MeshFormatError(f"line {ln}: roots must come first")
        if forest.nodes["child"][parent] >= 0:
            raise MeshFormatError(f"line {ln}: node {parent} already has two children")
        if n + 1 == len(tris) or tris[n + 1][4] != parent:
            raise MeshFormatError(
                f"line {ln}: the two children of node {parent} must be consecutive")
        forest.bisect_node(parent, edge)
    bad = np.flatnonzero((forest.nodes["verts"] != tri_verts).any(axis=(1, 2)))
    if len(bad):
        ln, *_, parent = tris[bad[0]]
        raise MeshFormatError(
            f"line {ln}: node {bad[0]} is not the bisection of its parent {parent}")

    # both lists close with "end", which a missing or an extra marker meets
    marks = leaves + [(len(lines) + 1, "end")]
    for (ln, got), want in zip(marks, forest.leaf_ids().tolist() + ["end"]):
        if got != want:
            raise MeshFormatError(f"line {ln}: leaf markers disagree with the "
                                  f"refinement tree: expected {want}, found {got}")
    return forest


def load_mesh(path) -> RefinementForest:
    with open(path, "r", encoding="ascii") as fh:
        return mesh_from_text(fh.read())
