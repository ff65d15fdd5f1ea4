"""Refinement forest and the greedy bisection loop.

The forest is an append-only store of triangles: the initial triangulation
forms the roots, every bisection adds two children, and the leaves are the
current triangulation; a row, once written, never changes.  The greedy loop
repeatedly bisects the leaf with the largest local Lp error, choosing the
edge through a decision function; leaves tie by earliest creation.  A
leaf's error and edge depend on that leaf only, so the loop replays this
order in batches of leaves, which it picks by partial sort of the forest's
error column, not from a heap, and scores before it writes the steps it
keeps; the trace is read from the finished forest, whose rows are in step
order, and the records of consecutive steps by one bisection each.  Meshes
serialize to a plain-text format with 17-significant-digit decimals so runs
round-trip bit-exactly.
"""
from __future__ import annotations

# unused: bound so that perfbench's tracer, which rebinds ``engine.heapq`` to
# count heap operations, installs; the trace's heaps call the names below
import heapq
import math
import numbers
from array import array
from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from . import approx
from .geometry import Triangle, bisect, edge_vectors_of, reference_triangle, sigma_batch

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

# Rows per measuring slice, at most: bounds the temporaries (a few hundred
# kB), so memory stays flat however large a run.  A greedy batch takes at
# most _MAX_BATCH leaves or 1/_BATCH_SHARE of the leaves, whichever is more:
# each batch scans every node, so a fixed cap would make the scans grow as
# the square of the leaf count, and a larger share scores more steps that
# are not kept.
_MAX_BATCH = 1024
_BATCH_SHARE = 16
_SLICE = 16 * _MAX_BATCH  # lines of mesh text formatted at once, at most
_EVERY_STEP = 1024  # leaves up to which every step has a trace record


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
        if not isinstance(self.node_cap, numbers.Integral) or self.node_cap < 3:
            raise ValueError(f"node cap must be an integer >= 3, got {self.node_cap!r}")


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
        verts = np.array([t.vertices for t in roots]).reshape(-1, 3, 2)
        if not len(verts):
            raise ValueError("forest needs at least one root triangle")
        self._reserve(len(verts))
        self.nodes["verts"], self.nodes["parent"], self.nodes["level"] = verts, -1, 0
        self.n_roots = self._n

    def _reserve(self, count: int) -> int:
        """Append ``count`` leaf rows and return the first id; the caller sets their
        verts, parent and level."""
        first, self._n = self._n, self._n + count
        if self._n > len(self._buf):
            grown = np.empty(max(2 * len(self._buf), self._n), NODE_DTYPE)
            grown["child"], grown["error"] = -1, math.nan  # rows are born leaves
            grown[:first] = self._buf[:first]
            self._buf = grown
        return first

    @property
    def nodes(self) -> np.ndarray:
        return self._buf[:self._n]

    @property
    def n_leaves(self) -> int:
        return (self._n + self.n_roots) // 2

    def leaf_ids(self) -> np.ndarray:
        return np.flatnonzero(self.nodes["child"] < 0)

    def leaf_vertex_array(self) -> np.ndarray:
        """Vertices of all leaves, shape (n_leaves, 3, 2), in id order."""
        return self.nodes["verts"][self.nodes["child"] < 0]

    def bisect_node(self, node_id, edge_index):
        """Split an array of distinct leaves at the given edges.

        Returns the ids of child 0 and child 1, arrays in the order of
        ``node_id``.  An id that is not an integer in ``[0, len(nodes))``, a non-leaf
        or a repeated id raises ValueError, changing nothing.
        """
        ids = np.asarray(node_id)
        if ids.ndim != 1 or ids.dtype.kind not in "iu":
            raise ValueError(f"expected a 1-D array of integer node ids, got {ids.dtype} "
                             f"of shape {ids.shape}")
        if ((ids < 0) | (ids >= self._n)).any():
            raise ValueError(f"node ids must lie in [0, {self._n})")
        rows = self.nodes[ids]
        bad = rows["child"] >= 0
        if np.count_nonzero(bad):
            raise ValueError(f"node {ids[bad][0]} is already bisected")
        if (np.diff(np.sort(ids)) == 0).any():
            raise ValueError("a node id is given twice")
        children = bisect(rows["verts"], edge_index)  # a bad edge index changes nothing
        first = self._reserve(2 * ids.size)
        level = rows["level"] + 1
        for k, verts in enumerate(children):
            new = self._buf[first + k:self._n:2]  # child k of each node, in node order
            new["verts"], new["parent"], new["level"] = verts, ids, level
        firsts = np.arange(first, self._n, 2)
        self._buf["child"][ids] = firsts
        return firsts, firsts + 1


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
            return [reference_triangle()]
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
    child-quadrature decision values.  Exact ties pick the lowest index; a
    near-tie is decided by rounding, as between the mirror edges of an
    input symmetric about x = y.
    """
    if config.decision == "lp-split":
        edges = np.argmin(approx.decision_lp_split(verts, f, config.p, config.operator),
                          axis=-1)
    elif getattr(f, "is_convex", False):
        edges = np.argmax(approx.decision_gains_convex(verts, f), axis=-1)
    else:
        edges = np.argmin(approx.decision_l1(verts, f), axis=-1)
    return int(edges) if edges.ndim == 0 else edges


class _LeafValues:
    """What the trace records of a finished run reduce, one row per value:
    each node's error to the p-th power (its error at p = inf), its squared
    diameter and, for a field with a positive-definite form, its sigma.  A
    record sums the rows ``summed`` and takes the maxima of the rows
    ``maxed``; ``ints`` and ``tops`` hold them for the nodes that the records
    up to ``_EVERY_STEP`` leaves read, so these read each node once."""

    def __init__(self, forest, f, p):
        self.forest, self.p = forest, p
        verts = forest.nodes["verts"]
        form = getattr(f, "form", None)
        diam2 = np.empty(len(verts))
        sigma = np.empty(len(verts)) if form is not None and form.is_positive_definite else None
        for i in range(0, len(verts), _MAX_BATCH):
            rows = verts[i:i + _MAX_BATCH]
            e = edge_vectors_of(rows)
            diam2[i:i + _MAX_BATCH] = (e * e).sum(axis=2).max(axis=1)
            if sigma is not None:
                sigma[i:i + _MAX_BATCH] = sigma_batch(form, rows)
        self.measures = (diam2,) if sigma is None else (diam2, sigma)
        # summed: the powers, sigma; maxed: the p = inf error, diam^2, sigma
        self.summed = [0, 2][math.isinf(p):len(self.measures)]
        self.maxed = [*range(math.isfinite(p), len(self.measures) + 1)]
        n = 2 * max(forest.n_roots, min(_EVERY_STEP, forest.n_leaves)) - forest.n_roots
        rows = self.gather(np.ones(n, bool))
        self.ints = [_ints(rows[i]) for i in self.summed]
        self.tops = [array("d", rows[i].tobytes()) for i in self.maxed]
        self.child = array("Q", forest.nodes["child"][:n].view(np.uint64).tobytes())
        self.parent = array("q", forest.nodes["parent"][:n].tobytes())
        self.step = -1  # the step whose leaves the sums and heaps hold

    def gather(self, leaf) -> np.ndarray:
        """The rows of the nodes that the mask ``leaf`` over the first rows
        selects, one column each."""
        values = np.empty((1 + len(self.measures), np.count_nonzero(leaf)))
        # a mask gathers from the strided error field of the records without
        # a copy of it; the power is lp_sum's, elementwise, in place to save
        # a temporary
        values[0] = self.forest.nodes["error"][:len(leaf)][leaf]
        if not math.isinf(self.p):
            with np.errstate(over="ignore"):  # lp_root reports an overflow
                values[0] **= self.p
        for row, column in zip(values[1:], self.measures):
            np.compress(leaf, column, out=row)
        return values


def _ints(row: np.ndarray) -> tuple[list, int]:
    """Ints ``k`` and a unit ``u < 0`` with ``row == k * 2 ** u`` exactly; a
    power past the float range counts as ``2 ** 1024``."""
    big = np.isinf(row)
    m, e = np.frexp(np.where(big, 0.5, row))
    e[big] = 1025
    low = min(int(e.min()), 52)
    return [k << s for k, s in zip(np.ldexp(m, 53).astype(np.int64).tolist(),
                                   (e - low).tolist())], low - 53


def _trace_record(values: _LeafValues, step) -> TraceRecord:
    """The record of the mesh after ``step`` bisections, whose leaves are
    the first ``n = n_roots + 2 step`` rows not split among them; its sums
    are exact and rounded once, whatever the leaves' order.  Up to
    ``_EVERY_STEP`` leaves, the record of step 0 or of the step after the
    one before keeps int sums and lazy max-heaps, which a step's two
    children join and their parent leaves.  Any other record gathers its
    leaves."""
    forest, p = values.forest, values.p
    n, m = forest.n_roots + 2 * step, forest.n_roots + step
    early = n <= len(values.child) and step in (0, values.step + 1)
    if early:
        a, b, c = n - 2, n - 1, values.parent[n - 1]
        if step:
            values.sums = [s + k[a] + k[b] - k[c] for s, (k, _) in zip(values.sums, values.ints)]
            for heap, top in zip(values.heaps, values.tops):
                heappush(heap, (-top[a], a))
                heappush(heap, (-top[b], b))
        else:  # the roots; a sorted list is a heap
            values.sums = [sum(k[:m]) for k, _ in values.ints]
            values.heaps = [sorted((-v, i) for i, v in enumerate(top[:m])) for top in values.tops]
        values.step = step
        for heap in values.heaps:
            while values.child[heap[0][1]] < n:  # split by this step or before
                heappop(heap)
        tops = [-heap[0][0] for heap in values.heaps]
    else:
        # a leaf's child is -1, the largest unsigned value, or made after the
        # step; the unsigned view of the column compares without a copy
        leaf = values.gather(forest.nodes["child"].view(np.uint64)[:n] >= n)
        tops = np.maximum.reduce(leaf, axis=1)[values.maxed].tolist()
    try:  # int / int rounds correctly, as fsum does, which reads a row without a list
        sums = ([s / (1 << -u) for s, (_, u) in zip(values.sums, values.ints)] if early else
                [math.fsum(leaf[i]) for i in values.summed])
    except OverflowError:  # only a sum of powers passes the float range
        sums = [math.inf]
    error = tops.pop(0) if math.isinf(p) else approx.lp_root(sums.pop(0), p)
    smean, smax = (sums[0] / m, tops[1]) if sums else (math.nan, math.nan)
    return TraceRecord(step, m, error, math.sqrt(tops[0]), smean, smax)


def _check_levels_fit(n_nodes: int, n_leaves: int, levels: int, node_cap: int,
                      sweeps_per_level: int = 1) -> None:
    """Fail fast unless bisecting ``n_leaves`` leaves ``levels * sweeps_per_level``
    times fits the cap."""
    sweeps = levels * sweeps_per_level
    # past the cap's bit length, 2**sweeps alone exceeds the cap
    added = 2 * n_leaves * (2 ** min(sweeps, int(node_cap).bit_length()) - 1)
    if n_nodes + added > node_cap:
        by = f"{levels} levels" if sweeps_per_level == 1 else \
            f"{levels} levels ({sweeps} bisection sweeps)"
        raise RunawayRefinementError(
            f"refining {n_leaves} leaves by {by} exceeds the node cap {node_cap}")


def greedy_run(f, config: GreedyConfig):
    """Run greedy refinement until the stop rule holds.

    Returns ``(forest, trace)``.  Trace records are emitted at step 0,
    every step while the mesh has at most 1024 leaves, at powers of two
    beyond that, and at the final step.  The loop keeps no trace state:
    ``_trace_record`` reads every record from the finished forest, as the
    rate study reads its checkpoints.  Raises RunawayRefinementError at
    the node cap, and before refining when a target-count or
    generation-levels run cannot fit under it.

    Each iteration picks the ``k`` leaves of largest error from the
    forest's record array (``np.partition``, then ``lexsort`` by error and
    id), bisects and scores them in one batch of local arrays, and writes
    to the forest only the longest prefix of steps that the one-leaf loop
    takes in the same order; the leaves of the other steps stay due and
    are picked again.  ``k`` doubles while every step is kept, up to 1024
    or a sixteenth of the leaves, whichever is more, and falls to the
    number kept.  Forest, trace and errors are those of the one-leaf loop,
    bit for bit.
    """
    forest = RefinementForest(initial_mesh(config.initial))
    stop = config.stop
    if stop.kind == "target-count":
        if stop.value < forest.n_roots:
            raise ValueError(
                f"target-count {stop.value} below the {forest.n_roots} initial triangles")
        # every bisection adds one leaf and two nodes
        needed = 2 * int(stop.value) - forest.n_roots
        if needed > config.node_cap:
            raise RunawayRefinementError(
                f"target-count {int(stop.value)} needs {needed} nodes, which exceeds "
                f"the node cap {config.node_cap}")
    if stop.kind == "generation-levels":
        _check_levels_fit(forest.n_roots, forest.n_roots, int(stop.value), config.node_cap)
    _bisect_greedily(forest, f, config)  # its batch arrays are freed before the trace

    # leaf counts with a record: the first and the last, every count up to
    # _EVERY_STEP and the powers of two
    n_last = forest.n_leaves
    due = {forest.n_roots, n_last, *range(_EVERY_STEP + 1),
           *(2 ** j for j in range(_EVERY_STEP.bit_length(), n_last.bit_length()))}
    values = _LeafValues(forest, f, config.p)
    trace = [_trace_record(values, n - forest.n_roots)
             for n in sorted(due) if forest.n_roots <= n <= n_last]
    return forest, trace


def _bisect_greedily(forest: RefinementForest, f, config: GreedyConfig) -> None:
    """The batched greedy loop of ``greedy_run``, until the stop rule holds."""
    stop = config.stop
    p, op, limit = config.p, config.operator, int(stop.value)
    levels = limit if stop.kind == "generation-levels" else math.inf

    forest.nodes["error"] = approx.local_error(forest.nodes["verts"], f, p, op)
    k = 1
    while True:
        size = min(k, limit - forest.n_leaves) if stop.kind == "target-count" else k
        nodes = forest.nodes
        # the leaves the one-leaf loop may bisect next
        pool = nodes["child"] < 0
        if stop.kind == "generation-levels":
            pool &= nodes["level"] < levels
        elif stop.kind == "error-threshold":
            pool &= nodes["error"] > stop.value
        ids = np.flatnonzero(pool)
        if size < 1 or not len(ids):
            break
        room = (config.node_cap - len(nodes)) // 2
        if not room:
            raise RunawayRefinementError(
                f"node cap {config.node_cap} reached at {forest.n_leaves} leaves")
        size = min(size, room)
        neg = -nodes["error"][ids]
        if len(ids) > size:  # the size largest errors, with every tie of the smallest
            top = neg <= np.partition(neg, size - 1)[size - 1]
            ids, neg = ids[top], neg[top]
        order = np.lexsort((ids, neg))[:size]  # largest error first, ties by earliest id
        ids, neg = ids[order], neg[order]
        verts = nodes["verts"][ids]
        try:
            edges = select_edge(verts, f, config)
            e0, e1 = (approx.local_error(c, f, p, op) for c in bisect(verts, edges))
        except ValueError:
            # a leaf the one-leaf loop would not reach may fail: keep no step and
            # retry one leaf, which fails exactly where that loop does
            if len(ids) == 1:
                raise
            k = 1
            continue
        live = nodes["level"][ids] + 1 < levels  # children it may bisect
        made = np.where(live, np.maximum(e0, e1), -math.inf)
        # step j keeps the order unless an earlier step made a child with a
        # larger error (an equal one has a larger id); step 0 always keeps it
        before = np.maximum.accumulate(np.concatenate(([-math.inf], made[:-1])))
        m = int(np.argmax(before > -neg)) or len(ids)
        # only the kept steps are written; the leaves of the others stay due
        first, second = forest.bisect_node(ids[:m], edges[:m])
        forest.nodes["error"][first], forest.nodes["error"][second] = e0[:m], e1[:m]
        k = m if m < len(ids) else min(2 * k, max(_MAX_BATCH, forest.n_leaves // _BATCH_SHARE))


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


def _mesh_text_slices(forest: RefinementForest):
    """The mesh text in pieces of at most ``_SLICE`` lines."""
    xy = np.ascontiguousarray(forest.nodes["verts"]).reshape(-1, 2)
    # equal bits sort together, and the stable sort starts each run at its first use
    x, y = xy.view(np.uint64).T
    order = np.lexsort((y, x))
    x, y = x[order], y[order]
    new = np.concatenate(([True], (x[1:] != x[:-1]) | (y[1:] != y[:-1])))
    del x, y
    first = order[new]
    # a vertex's number is the rank of its first use
    s = np.argsort(first)
    rank = np.empty_like(s)
    rank[s] = np.arange(len(s))
    tris = np.empty_like(order)
    tris[order] = rank[np.cumsum(new) - 1]
    sections = (("v %.17g %.17g\n", xy[first[s]]),
                ("t %d %d %d %d\n", np.c_[tris.reshape(-1, 3), forest.nodes["parent"]]),
                ("leaf %d\n", forest.leaf_ids()[:, None]))
    del xy, order, new, first, s, rank, tris  # the numbering's arrays die before the text grows
    yield MESH_HEADER + "\n"
    for line, rows in sections:
        for part in np.split(rows, range(_SLICE, len(rows), _SLICE)):
            yield (line * len(part)) % tuple(part.ravel().tolist())


def mesh_to_text(forest: RefinementForest) -> str:
    """Serialize a forest to the plain-text mesh format.

    Vertices are numbered by first use; equal bits share one (0.0 and -0.0 do not).
    """
    return "".join(_mesh_text_slices(forest))


def save_mesh(forest: RefinementForest, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(_mesh_text_slices(forest))


# The strict line grammar, parsed in bulk: a directive, then its fields, each
# one space and a token: -?[0-9]+ for `t` and `leaf` (the int64 parse saturates,
# so a value of 10**18 or more in size sends its piece line by line), [0-9.e+-]
# for `v` (parsed by Python's `float`).
_DIRECTIVES = {"v": 2, "t": 4, "leaf": 1}  # fields of each directive
_PIECE = 2 * _MAX_BATCH  # lines per bulk parse, at most


def _read_lines(text: str):
    """The ``v``, ``t`` and ``leaf`` rows of a mesh text, line number first, and its
    line count.  A run of one directive's lines is cut into pieces; a piece is parsed
    in bulk when its every line is in the strict grammar and the parse is exact.  Other
    pieces, and the lines of no directive, are read line by line by the rules of
    ``str.split``, ``int`` and ``float``; the first line at fault raises."""
    if not text.isascii() or any(c in text for c in "\r\v\f\x1c\x1d\x1e"):
        text = "\n".join(text.splitlines())  # every line break a newline
    text = text if text.endswith("\n") else text + "\n"
    b = np.frombuffer(text.encode("ascii", "replace"), np.uint8)  # one byte per character
    ends = np.flatnonzero(b == 10)
    starts = np.concatenate(([0], ends[:-1] + 1))
    if text[:ends[0]].strip() != MESH_HEADER:
        raise MeshFormatError(f"line 1: expected header {MESH_HEADER!r}")
    kind = np.full(len(ends), -1, np.int8)  # a directive's index, or -1: read alone
    for k, word in enumerate(_DIRECTIVES):  # a line's newline ends any match
        kind[np.logical_and.reduce([b.take(starts + j, mode="clip") == c
                                    for j, c in enumerate(word.encode() + b" ")])] = k
    blocks = [[np.empty((0, n + 1), int if k else float)]  # each directive's rows, in line order
              for k, n in enumerate(_DIRECTIVES.values())]

    def read_alone(i, j):  # lines i..j-1; each directive's rows join blocks as one array
        lone = [array("d"), array("q"), array("q")]  # each directive's rows, flat
        for ln in range(i + 1, j + 1):
            raw = text[starts[ln - 1]:ends[ln - 1]]
            fields = raw.split()
            if fields and ln > 1:  # not a blank line, nor the header
                try:
                    if _DIRECTIVES.get(fields[0]) != len(fields) - 1:
                        raise ValueError("unrecognized directive")
                    k = list(_DIRECTIVES).index(fields[0])
                    lone[k].append(ln)
                    lone[k].extend(map(int if k else float, fields[1:]))
                except (ValueError, OverflowError) as exc:  # overflow: an int beyond 64 bits
                    raise MeshFormatError(f"line {ln}: {exc} in {raw!r}") from None
        for block, rows, n in zip(blocks, lone, _DIRECTIVES.values()):
            block.append(np.reshape(rows, (-1, n + 1)))

    bounds = np.concatenate(([0], np.flatnonzero(kind[1:] != kind[:-1]) + 1, [len(kind)])).tolist()
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        k = kind[r0]
        if k < 0:  # lines of no directive
            read_alone(r0, r1)
            continue
        word, n_fields = list(_DIRECTIVES.items())[k]
        for i in range(r0, r1, _PIECE):  # a piece of lines i..j-1
            j = min(i + _PIECE, r1)
            rel = starts[i:j] - starts[i]
            piece = b[starts[i]:ends[j - 1] + 1].copy()
            for c in range(len(word)):  # the directive's letters read as line breaks
                piece[rel + c] = 10
            digit, minus, space = piece - 48 < 10, piece == 45, piece == 32
            token = digit | minus | (k == 0) & ((piece == 46) | (piece == 101) | (piece == 43))
            wrong = ~(token | space | (piece == 10))
            wrong[:-1] |= space[:-1] & ~token[1:]  # a space starts a token
            if k:  # a minus only starts an int token, before a digit
                wrong[1:-1] |= minus[1:-1] & ~(space[:-2] & digit[2:])
            rows = None  # the piece's values, when every line parses exactly in bulk
            if not wrong.any() and (np.add.reduceat(space, rel, dtype=np.int32) == n_fields).all():
                raw = piece.tobytes()
                try:
                    rows = (np.fromstring(raw, np.int64, sep=" ") if k else
                            np.array(raw.decode().split(), float)).reshape(j - i, n_fields)
                except ValueError:
                    pass
            if rows is None or k and ((rows >= 10 ** 18) | (rows <= -10 ** 18)).any():
                read_alone(i, j)  # the first line at fault names itself
                continue
            blocks[k].append(np.column_stack((np.arange(i + 1, j + 1), rows)))
    return (*map(np.concatenate, blocks), len(ends))


def mesh_from_text(text: str) -> RefinementForest:
    """Parse the plain-text mesh format back into a forest.

    The roots come first; the two children of a node are consecutive ``t``
    lines and its exact bisection, which is replayed, one generation per
    batched ``bisect`` call, to check them; ``leaf`` lines list every leaf
    once, in ascending id order.  Any violation raises MeshFormatError
    naming the first offending line.
    """
    xy, table, marks, n_lines = _read_lines(text)
    xy = xy[:, 1:]
    if not len(table):
        raise MeshFormatError("line 1: mesh contains no triangles")
    lns, tris, parent = table[:, 0], table[:, 1:4], table[:, 4]
    n = len(table)

    bad_vertex = ((tris < 0) | (tris >= len(xy))).any(axis=1)
    bad = bad_vertex | (parent >= np.arange(n)) | (parent < -1)
    stop = int(bad.argmax()) if bad.any() else n
    n_roots = int((parent != -1).argmax()) if (parent != -1).any() else n
    roots = []
    for i in range(min(n_roots, stop)):
        try:
            roots.append(Triangle(xy[tris[i]]))
        except ValueError as exc:
            raise MeshFormatError(f"line {lns[i]}: {exc}") from None
    if stop < n:
        if bad_vertex[stop]:
            raise MeshFormatError(f"line {lns[stop]}: vertex index out of range")
        raise MeshFormatError(
            f"line {lns[stop]}: parent {parent[stop]} must precede node {stop}")

    # pair k is nodes c0[k] and c0[k] + 1, both children of node pp[k]
    c0 = np.arange(n_roots, n, 2)
    pp = parent[c0]
    late_root = pp == -1
    third = np.ones(len(pp), bool)  # an earlier pair has the same parent
    third[np.unique(pp, return_index=True)[1]] = False
    apart = np.ones(len(pp), bool)  # c0[k] + 1 is missing or has another parent
    sib = parent[n_roots + 1::2]
    apart[:len(sib)] = sib != pp[:len(sib)]
    faults = late_root | third | apart
    if faults.any():
        k = int(faults.argmax())
        ln, node = lns[c0[k]], pp[k]
        if late_root[k]:
            raise MeshFormatError(f"line {ln}: roots must come first")
        if third[k]:
            raise MeshFormatError(f"line {ln}: node {node} already has two children")
        raise MeshFormatError(
            f"line {ln}: the two children of node {node} must be consecutive")

    stored = xy.take(tris, axis=0)
    forest = RefinementForest(roots)
    forest._reserve(n - n_roots)
    nodes = forest.nodes
    nodes["parent"][n_roots:] = parent[n_roots:]
    nodes["child"][pp] = c0
    # child 0 of a bisection starts at the vertex opposite the bisected edge
    edges = (stored[pp] == stored[c0, :1]).all(axis=2).argmax(axis=1)
    # one generation per round: the bisections of the nodes the last round made,
    # found through their child ids, so a round touches its own pairs only; every
    # parent descends from a root and has one pair, so each pair is replayed once
    above = np.flatnonzero(nodes["child"][:n_roots] >= 0)
    while len(above):
        first = nodes["child"][above]
        level = nodes["level"][above] + 1
        for k, verts in enumerate(bisect(nodes["verts"][above], edges[(first - n_roots) // 2])):
            nodes["verts"][first + k], nodes["level"][first + k] = verts, level
        made = np.concatenate((first, first + 1))
        above = made[nodes["child"][made] >= 0]
    bad = np.flatnonzero((nodes["verts"] != stored).any(axis=(1, 2)))
    if len(bad):
        i = int(bad[0])
        raise MeshFormatError(
            f"line {lns[i]}: node {i} is not the bisection of its parent {parent[i]}")

    # both lists close with "end", which a missing or an extra marker meets
    want = forest.leaf_ids()
    m = min(len(marks), len(want))
    diff = np.flatnonzero(marks[:m, 1] != want[:m])
    i = int(diff[0]) if len(diff) else m
    if i < max(len(marks), len(want)):
        ln = int(marks[i, 0]) if i < len(marks) else n_lines + 1
        got = int(marks[i, 1]) if i < len(marks) else "end"
        expected = int(want[i]) if i < len(want) else "end"
        raise MeshFormatError(f"line {ln}: leaf markers disagree with the "
                              f"refinement tree: expected {expected}, found {got}")
    return forest


def load_mesh(path) -> RefinementForest:
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        return mesh_from_text(fh.read())
