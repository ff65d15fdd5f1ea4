"""Refinement forest and the greedy bisection loop.

The forest is an append-only store of triangles, one contiguous column per
field: the initial triangulation forms the roots, every bisection adds two
children, and the leaves are the current triangulation; a node's triangle,
once written, never changes.  The greedy loop repeatedly bisects the leaf
with the largest local Lp error, choosing the edge through a decision
function; leaves tie by earliest creation.  A leaf's error and edge depend
on that leaf only, so the loop replays this order in batches of leaves,
which it picks by partial sort of the forest's error column, not from a
heap, and scores before it writes the steps it keeps, each bisected once.
The trace is read from the finished forest, whose nodes are in step order,
by one call: the records up to 1024 leaves are built all at once from
tables made in one pass, the later ones are reduced together a slice of
nodes at a time, and all of them take their fields from one formula
(exact sums divided once per step, the roots and sigma_mean as one array
each).  Runs whose final node count is known (target-count and
generation-levels runs, uniform refinement, a loaded mesh) size the
columns once.  Meshes serialize to a plain-text format with
17-significant-digit decimals so runs round-trip bit-exactly.
"""
from __future__ import annotations

# unused: bound so that perfbench's tracer, which rebinds ``engine.heapq`` to
# count heap operations, installs
import heapq
import math
import numbers
from dataclasses import dataclass, field
from itertools import accumulate

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


@dataclass
class TraceRecord:
    """Per-step diagnostics of a refinement run."""

    step: int
    n_leaves: int
    global_error: float
    max_diam: float
    sigma_mean: float  # nan unless the field carries a definite form
    sigma_max: float


# the forest's columns: each node's entry is of this dtype and shape
_COLUMNS = {"verts": (np.float64, (3, 2)), "parent": (np.int64, ()), "level": (np.int64, ()),
            "child": (np.int64, ()), "error": (np.float64, ())}


class _Columns:
    """The forest's columns by name, each cut to the node count; assigning
    to a name writes into its column."""

    __slots__ = ("_columns", "_n")
    __iter__ = None  # no rows: a column is read by its name

    def __init__(self, columns: dict, n: int):
        self._columns, self._n = columns, n

    def __getitem__(self, name: str) -> np.ndarray:
        return self._columns[name][:self._n]

    def __setitem__(self, name: str, value) -> None:
        self._columns[name][:self._n] = value

    def __len__(self) -> int:
        return self._n


class RefinementForest:
    """Append-only binary forest of triangles; leaves form the triangulation.

    ``nodes`` maps each column name of ``_COLUMNS`` to one contiguous array
    over the nodes, in creation order, roots first; ``len(nodes)`` is the
    node count.  ``child`` is the id of a node's first child (siblings are
    consecutive), -1 for a leaf; ``error`` is the cached local error, nan
    until computed.  The columns grow by doubling, unless a run that knows
    its final node count sizes them once (``_resize``).
    """

    def __init__(self, roots):
        verts = np.array([t.vertices for t in roots]).reshape(-1, 3, 2)
        if not len(verts):
            raise ValueError("forest needs at least one root triangle")
        self._columns = {name: np.empty((len(verts), *shape), dtype)
                         for name, (dtype, shape) in _COLUMNS.items()}
        self._n = 0
        self._reserve(len(verts))
        self.nodes["verts"], self.nodes["parent"], self.nodes["level"] = verts, -1, 0
        self.n_roots = self._n

    def _resize(self, size: int) -> None:
        """New columns of ``size >= len(nodes)`` rows, holding the nodes."""
        grown = {}
        for name, (dtype, shape) in _COLUMNS.items():
            grown[name] = np.empty((size, *shape), dtype)
            grown[name][:self._n] = self._columns[name][:self._n]
        self._columns = grown

    def _reserve(self, count: int) -> int:
        """Append ``count`` leaves and return the first id; the caller sets their
        verts, parent and level."""
        first, n = self._n, self._n + count
        if n > len(self._columns["child"]):
            self._resize(max(2 * len(self._columns["child"]), n))
        self._n = n
        self._columns["child"][first:n], self._columns["error"][first:n] = -1, math.nan
        return first

    @property
    def nodes(self) -> _Columns:
        return _Columns(self._columns, self._n)

    @property
    def n_leaves(self) -> int:
        return (self._n + self.n_roots) // 2

    def leaf_ids(self) -> np.ndarray:
        return np.flatnonzero(self.nodes["child"] < 0)

    def leaf_vertex_array(self) -> np.ndarray:
        """Vertices of all leaves, shape (n_leaves, 3, 2), in id order."""
        return self.nodes["verts"][self.nodes["child"] < 0]

    def bisect_node(self, node_id, edge_index, *, children=None):
        """Split an array of distinct leaves at the given edges.

        Returns the ids of child 0 and child 1, arrays in the order of
        ``node_id``.  An id that is not an integer in ``[0, len(nodes))``, a non-leaf
        or a repeated id raises ValueError, changing nothing.  ``children``,
        for the greedy loop, are the two vertex arrays that ``bisect`` made of
        these leaves at these edges; they are written as they are.
        """
        ids = np.asarray(node_id)
        if ids.ndim != 1 or ids.dtype.kind not in "iu":
            raise ValueError(f"expected a 1-D array of integer node ids, got {ids.dtype} "
                             f"of shape {ids.shape}")
        if ((ids < 0) | (ids >= self._n)).any():
            raise ValueError(f"node ids must lie in [0, {self._n})")
        nodes = self.nodes
        bad = nodes["child"][ids] >= 0
        if np.count_nonzero(bad):
            raise ValueError(f"node {ids[bad][0]} is already bisected")
        if (np.diff(np.sort(ids)) == 0).any():
            raise ValueError("a node id is given twice")
        if children is None:  # a bad edge index changes nothing
            children = bisect(nodes["verts"][ids], edge_index)
        level = nodes["level"][ids] + 1
        first = self._reserve(2 * ids.size)
        for k, verts in enumerate(children):  # child k of each node, in node order
            rows = slice(first + k, self._n, 2)
            self._columns["verts"][rows] = verts
            self._columns["parent"][rows], self._columns["level"][rows] = ids, level
        firsts = np.arange(first, self._n, 2)
        self._columns["child"][ids] = firsts
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
    for the L1-interpolation decision, the argmax of the exact
    error-reduction formula on the triangles where the field is known to be
    convex (``convex_on``), otherwise the argmin of the child-quadrature
    decision values, row by row, so that a batch's make-up cannot change a
    leaf's edge.  Exact ties pick the lowest index; a near-tie is decided
    by rounding, as between the mirror edges of an input symmetric about
    x = y.
    """
    v = np.asarray(verts, dtype=float)
    if config.decision == "lp-split":
        edges = np.argmin(approx.decision_lp_split(v, f, config.p, config.operator), axis=-1)
        return int(edges) if edges.ndim == 0 else edges
    convex = f.convex_on(v) if hasattr(f, "convex_on") else np.zeros(v.shape[:-2], bool)
    if convex.all():
        edges = np.argmax(approx.decision_gains_convex(v, f), axis=-1)
    elif not convex.any():
        edges = np.argmin(approx.decision_l1(v, f), axis=-1)
    else:  # a batch with rows of both kinds
        edges = np.empty(len(v), np.intp)
        edges[convex] = np.argmax(approx.decision_gains_convex(v[convex], f), axis=-1)
        edges[~convex] = np.argmin(approx.decision_l1(v[~convex], f), axis=-1)
    return int(edges) if edges.ndim == 0 else edges


class _LeafValues:
    """What the trace records of a finished run reduce, one row per value:
    each node's error to the p-th power (its error at p = inf), its squared
    diameter and, for a field with a positive-definite form, its sigma.  A
    record sums the rows ``summed`` and takes the maxima of the rows
    ``maxed``; for each step up to ``_EVERY_STEP`` leaves, the tables
    ``sums`` (exact, as ints in one unit per row) and ``tops`` hold them,
    and the column of ``early`` the fields of its record (``fields``), made
    in one pass over the tables from ``head``, the values of the nodes
    those steps read.  Later records are reduced a slice of nodes at a time
    (``reduce``)."""

    def __init__(self, forest, f, p):
        self.forest, self.p = forest, p
        form = getattr(f, "form", None)
        self.form = form if form is not None and form.is_positive_definite else None
        self.rows = 2 if self.form is None else 3
        # summed: the powers, sigma; maxed: the p = inf error, diam^2, sigma
        self.summed = [0, 2][math.isinf(p):self.rows - 1]
        self.maxed = [*range(math.isfinite(p), self.rows)]
        r = forest.n_roots
        steps = max(0, min(_EVERY_STEP, forest.n_leaves) - r) + 1  # the early ones
        n = r + 2 * steps - 2  # the nodes they read
        self.head = np.empty((self.rows, 0))
        self.head = rows = self.measure(0, n)
        parent = forest.nodes["parent"][r:n:2].tolist()
        self.sums = [_step_sums(row, r, parent) for row in rows[self.summed]]
        # a node is a leaf from the step that makes it (0 for a root) to the one that splits it
        born = np.maximum(np.arange(-r, n - r) // 2 + 1, 0)
        child = forest.nodes["child"][:n]
        split = np.where((child < 0) | (child >= n), steps, (child - r) // 2 + 1)
        self.tops = np.array([_range_max(rows[i], born, split, steps) for i in self.maxed]).T
        self.early = self.fields(self.sums, self.tops.T, np.arange(steps))

    def fields(self, sums, tops, steps) -> np.ndarray:
        """The fields of the records of ``steps`` after step and leaf count
        (4, k), from the exact sums ``(k, u)`` of the rows ``summed`` and the
        maxima (one row each) of the rows ``maxed``: each sum rounded once,
        the roots as one array by numpy's power, as lp_root takes one, and
        sigma_mean as one division by the leaf counts."""
        sums = [_rounded(k, u) for k, u in sums]
        tops = list(tops)
        error = tops.pop(0) if math.isinf(self.p) else sums.pop(0) ** (1.0 / self.p)
        smean, smax = (sums[0] / (self.forest.n_roots + steps), tops[1]) if sums else \
            (np.full(len(steps), math.nan),) * 2
        return np.array([error, np.sqrt(tops[0]), smean, smax])

    def measure(self, start: int, stop: int) -> np.ndarray:
        """The values of the nodes ``start`` to ``stop - 1``, one column each:
        copied from ``head`` where it holds them, so that no node is measured
        twice, and otherwise measured ``_MAX_BATCH`` nodes at a time."""
        nodes = self.forest.nodes
        values = np.empty((self.rows, stop - start))
        held = min(max(self.head.shape[1] - start, 0), stop - start)
        values[:, :held] = self.head[:, start:start + held]
        values[0, held:] = nodes["error"][start + held:stop]
        if not math.isinf(self.p):  # lp_sum's power, elementwise, in place
            with np.errstate(over="ignore"):  # lp_root reports an overflow
                values[0, held:] **= self.p
        for i in range(start + held, stop, _MAX_BATCH):
            rows = nodes["verts"][i:min(i + _MAX_BATCH, stop)]
            out = values[1:, i - start:i - start + len(rows)]
            ee = edge_vectors_of(rows)
            ee *= ee
            out[0] = (ee[..., 0] + ee[..., 1]).max(axis=1)
            if self.form is not None:
                out[1] = sigma_batch(self.form, rows)
        return values

    def reduce(self, steps: np.ndarray) -> np.ndarray:
        """The fields of the records of the increasing later ``steps`` (4, k)
        (``fields``), from their maxima and exact sums (as ints in units of
        ``2 ** _UNIT``), made in one pass over the nodes they read: each node
        is measured once, in slices of a ``_BATCH_SHARE``-th of them."""
        ends = (self.forest.n_roots + 2 * steps).tolist()
        # a leaf's child is -1, the largest unsigned value, or made after the step
        child = self.forest.nodes["child"].view(np.uint64)
        tops = np.full((self.rows, len(ends)), -math.inf)
        sums = [[0] * len(ends) for _ in self.summed]
        end = ends[-1] if ends else 0
        size = max(1, end // _BATCH_SHARE)
        for i in range(0, end, size):
            values = self.measure(i, min(i + size, end))
            for k, n in enumerate(ends):
                if n > i:
                    leaf = child[i:min(i + size, n)] >= n
                    part = values[:, :len(leaf)].compress(leaf, axis=1)
                    np.maximum(tops[:, k], part.max(axis=1, initial=-math.inf), out=tops[:, k])
                    for row, j in zip(sums, self.summed):
                        row[k] += _exact_sum(part[j])
        return self.fields([(row, _UNIT) for row in sums], tops[self.maxed], steps)


_UNIT = -1126  # the unit 2 ** _UNIT of a reduced exact sum divides every float


def _mantissas(row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ints ``k < 2 ** 53``, as floats, and exponents ``e >= -1073`` with
    ``row == k * 2 ** (e - 53)``; a power past the float range counts as
    ``2 ** 1024``."""
    big = np.isinf(row)
    m, e = np.frexp(np.where(big, 0.5, row))
    e[big] = 1025
    return np.ldexp(m, 53), e


def _exact_sum(row: np.ndarray) -> int:
    """The exact sum of the non-negative ``row`` as an int in units of
    ``2 ** _UNIT``.  The high and the low 26 bits of the mantissas are added
    per exponent by ``bincount``, whose float sums stay exact ints for up to
    2 ** 26 values."""
    if not len(row):
        return 0
    k, e = _mantissas(row)
    low = int(e.min())
    e -= low
    high = np.floor(np.ldexp(k, -26))
    parts = zip(np.bincount(e, high).tolist(), np.bincount(e, k - np.ldexp(high, 26)).tolist())
    return sum(((int(a) << 26) + int(b)) << (j + low - 53 - _UNIT)
               for j, (a, b) in enumerate(parts) if a or b)


def _step_sums(row: np.ndarray, r: int, parent: list) -> tuple[list, int]:
    """Each step's exact sum of ``row`` over its leaves, as ints ``k`` in a
    unit ``u < 0`` (the sum is ``k * 2 ** u``; a power past the float range
    counts as ``2 ** 1024``): step 0 has the ``r`` roots, and step s > 0
    adds nodes r + 2 s - 2 and r + 2 s - 1 and loses ``parent[s - 1]``."""
    m, e = _mantissas(row)
    low = min(int(e.min()), 52)
    k = [i << s for i, s in zip(m.astype(np.int64).tolist(), (e - low).tolist())]
    change = (a + b - k[c] for a, b, c in zip(k[r::2], k[r + 1::2], parent))
    return list(accumulate(change, initial=sum(k[:r]))), low - 53


def _range_max(values, start, stop, size) -> np.ndarray:
    """For each step ``s < size``, the largest of the non-negative ``values``
    whose interval ``[start, stop)`` holds ``s`` (0.0 above -0.0), or -0.0
    where none does.  Each interval sets the two power-of-two blocks of a
    sparse table that cover it, which are then pushed down level by level;
    such floats' bits order as ints, so a max moves no bit."""
    keep = start < stop
    start, stop, key = start[keep], stop[keep], values[keep].view(np.int64)
    level = np.frexp(stop - start)[1] - 1  # the longest block that fits
    table = np.full((size.bit_length(), size), -0.0).view(np.int64)  # the least key
    np.maximum.at(table, (level, start), key)
    np.maximum.at(table, (level, stop - (1 << level)), key)
    for j in range(len(table) - 1, 0, -1):
        h = 1 << (j - 1)
        np.maximum(table[j - 1], table[j], out=table[j - 1])
        np.maximum(table[j - 1, h:], table[j, :size - h], out=table[j - 1, h:])
    return table[0].view(np.float64)


def _rounded(k: list, u: int) -> np.ndarray:
    """The exact sums ``k * 2 ** u`` of ``_step_sums`` as floats, each
    rounded once (int / int rounds correctly, as fsum does); inf past the
    float range, which only a sum of powers reaches."""
    d, out = 1 << -u, []
    for i in k:
        try:
            out.append(i / d)
        except OverflowError:
            out.append(math.inf)
    return np.array(out)


def _trace_record(values: _LeafValues, steps) -> list:
    """The records of the meshes after each of ``steps`` bisections, in the
    order given; the mesh after step s has as leaves the first ``n_roots +
    2 s`` rows not split among them, and its sums are exact and rounded
    once, whatever the leaves' order.  An early step's record is its column
    of ``values.early``; the later ones are reduced together in one pass.
    lp_root's ValueError, naming p, if an error is past the float range (at
    finite p, only a sum of powers is)."""
    steps = np.asarray(steps, dtype=np.int64)
    early = steps < values.early.shape[1]
    later, at = np.unique(steps[~early], return_inverse=True)
    columns = np.empty((4, len(steps)))
    columns[:, early] = values.early[:, steps[early]]
    columns[:, ~early] = values.reduce(later)[:, at]
    if math.isfinite(values.p) and np.isinf(columns[0]).any():
        approx.lp_root(math.inf, values.p)
    r = values.forest.n_roots
    return [TraceRecord(s, r + s, *row) for s, row in zip(steps.tolist(), columns.T.tolist())]


def _check_levels_fit(n_nodes: int, n_leaves: int, levels: int, node_cap: int,
                      sweeps_per_level: int = 1) -> int:
    """The node count after bisecting ``n_leaves`` leaves ``levels *
    sweeps_per_level`` times; fail fast unless it fits the cap."""
    sweeps = levels * sweeps_per_level
    # past the cap's bit length, 2**sweeps alone exceeds the cap
    added = 2 * n_leaves * (2 ** min(sweeps, int(node_cap).bit_length()) - 1)
    if n_nodes + added > node_cap:
        by = f"{levels} levels" if sweeps_per_level == 1 else \
            f"{levels} levels ({sweeps} bisection sweeps)"
        raise RunawayRefinementError(
            f"refining {n_leaves} leaves by {by} exceeds the node cap {node_cap}")
    return n_nodes + added


def greedy_run(f, config: GreedyConfig):
    """Run greedy refinement until the stop rule holds.

    Returns ``(forest, trace)``.  Trace records are emitted at step 0,
    every step while the mesh has at most 1024 leaves, at powers of two
    beyond that, and at the final step.  The loop keeps no trace state:
    every record is read from the finished forest by one ``_trace_record``
    call, as the rate study reads its checkpoints: the early ones from step
    tables, the later ones from one pass that reduces their leaves a slice
    of nodes at a time.
    Raises RunawayRefinementError at the node cap, and before refining when
    a target-count or generation-levels run cannot fit under it.  These two
    size the forest's columns once, to their final node count; an
    error-threshold run grows them by doubling.

    Each iteration picks the ``k`` leaves of largest error from the
    forest's columns (``np.partition``, then ``lexsort`` by error and id),
    bisects and scores them in one batch of local arrays, and writes to the
    forest only the longest prefix of steps that the one-leaf loop takes in
    the same order, as bisected and scored; the leaves of the other steps
    stay due and are picked again.  ``k`` doubles while every step is kept, up to 1024
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
        forest._resize(needed)  # sized once
    if stop.kind == "generation-levels":  # sized once
        forest._resize(_check_levels_fit(forest.n_roots, forest.n_roots, int(stop.value),
                                         config.node_cap))
    _bisect_greedily(forest, f, config)  # its batch arrays are freed before the trace

    # leaf counts with a record: the first and the last, every count up to
    # _EVERY_STEP and the powers of two
    r, n_last = forest.n_roots, forest.n_leaves
    due = {r, n_last, *range(_EVERY_STEP + 1),
           *(2 ** j for j in range(_EVERY_STEP.bit_length(), n_last.bit_length()))}
    steps = [n - r for n in sorted(due) if r <= n <= n_last]
    return forest, _trace_record(_LeafValues(forest, f, config.p), steps)


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
        level, error = nodes["level"], nodes["error"]
        # the leaves the one-leaf loop may bisect next
        pool = nodes["child"] < 0
        if stop.kind == "generation-levels":
            pool &= level < levels
        elif stop.kind == "error-threshold":
            pool &= error > stop.value
        ids = np.flatnonzero(pool)
        if size < 1 or not len(ids):
            break
        room = (config.node_cap - len(nodes)) // 2
        if not room:
            raise RunawayRefinementError(
                f"node cap {config.node_cap} reached at {forest.n_leaves} leaves")
        size = min(size, room)
        neg = -error[ids]
        if len(ids) > size:  # the size largest errors, with every tie of the smallest
            top = neg <= np.partition(neg, size - 1)[size - 1]
            ids, neg = ids[top], neg[top]
        order = np.lexsort((ids, neg))[:size]  # largest error first, ties by earliest id
        ids, neg = ids[order], neg[order]
        verts = nodes["verts"][ids]
        try:
            edges = select_edge(verts, f, config)
            children = bisect(verts, edges)
            e0, e1 = (approx.local_error(c, f, p, op) for c in children)
        except ValueError:
            # a leaf the one-leaf loop would not reach may fail: keep no step and
            # retry one leaf, which fails exactly where that loop does
            if len(ids) == 1:
                raise
            k = 1
            continue
        live = level[ids] + 1 < levels  # children it may bisect
        made = np.where(live, np.maximum(e0, e1), -math.inf)
        # step j keeps the order unless an earlier step made a child with a
        # larger error (an equal one has a larger id); step 0 always keeps it
        before = np.maximum.accumulate(np.concatenate(([-math.inf], made[:-1])))
        m = int(np.argmax(before > -neg)) or len(ids)
        # only the kept steps are written, each bisected once; the leaves of the
        # others stay due
        forest.bisect_node(ids[:m], edges[:m], children=[c[:m] for c in children])
        new = forest.nodes["error"][-2 * m:]  # child 0 and child 1 of each step
        new[0::2], new[1::2] = e0[:m], e1[:m]
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
    total = _check_levels_fit(len(forest.nodes), forest.n_leaves, levels, config.node_cap)
    if total > len(forest._columns["child"]):
        forest._resize(total)  # sized once
    for _ in range(levels):
        ids = forest.leaf_ids()
        forest.bisect_node(ids, select_edge(forest.nodes["verts"][ids], f, config))
    return forest


def global_error(forest: RefinementForest, f, p, op: str = "interpolation") -> float:
    """Global Lp error over the leaves (max over leaves when p = inf)."""
    return approx.lp_sum(approx.local_errors(forest.leaf_vertex_array(), f, p, op), p)


def _mesh_text_slices(forest: RefinementForest):
    """The mesh text in pieces of at most ``_SLICE`` lines."""
    xy = forest.nodes["verts"].reshape(-1, 2)
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


# The line grammar, parsed in bulk: a directive, then its fields, each one space
# and a token: -?[0-9]+ for `t` and `leaf` (the int64 parse saturates, so a value
# of 10**18 or more in size fails), [0-9.e+-]+ for `v` (parsed by Python's `float`).
_DIRECTIVES = {"v": 2, "t": 4, "leaf": 1}  # fields of each directive
_PIECE = 2 * _MAX_BATCH  # lines per bulk parse, at most


def _read_lines(text: str):
    """The ``v``, ``t`` and ``leaf`` rows of a mesh text, line number first, and its
    line count.  A run of one directive's lines is cut into pieces, each parsed in
    bulk.  A line of no directive, and a piece with a line outside the grammar or a
    parse that is not exact, raise MeshFormatError naming the first line at fault."""
    if not text.isascii() or any(c in text for c in "\r\v\f\x1c\x1d\x1e"):
        text = "\n".join(text.splitlines())  # every line break a newline
    text = text if text.endswith("\n") else text + "\n"
    b = np.frombuffer(text.encode("ascii", "replace"), np.uint8)  # one byte per character
    ends = np.flatnonzero(b == 10)
    starts = np.concatenate(([0], ends[:-1] + 1))
    if text[:ends[0]].strip() != MESH_HEADER:
        raise MeshFormatError(f"line 1: expected header {MESH_HEADER!r}")
    kind = np.full(len(ends), -1, np.int8)  # a directive's index, or -1
    for k, word in enumerate(_DIRECTIVES):  # a line's newline ends any match
        kind[np.logical_and.reduce([b.take(starts + j, mode="clip") == c
                                    for j, c in enumerate(word.encode() + b" ")])] = k
    blocks = [[np.empty((0, n + 1), int if k else float)]  # each directive's rows, in line order
              for k, n in enumerate(_DIRECTIVES.values())]

    def parse(i, j, k):  # the values of lines i..j-1, of directive k, or None
        word, n_fields = list(_DIRECTIVES.items())[k]
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
        if wrong.any() or (np.add.reduceat(space, rel, dtype=np.int32) != n_fields).any():
            return None
        raw = piece.tobytes()
        try:
            rows = (np.fromstring(raw, np.int64, sep=" ") if k else
                    np.array(raw.decode().split(), float)).reshape(j - i, n_fields)
        except ValueError:
            return None
        return None if k and ((rows >= 10 ** 18) | (rows <= -10 ** 18)).any() else rows

    # runs of lines of one kind after the header
    bounds = np.concatenate(([1], np.flatnonzero(kind[2:] != kind[1:-1]) + 2, [len(kind)]))
    for r0, r1 in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        for i in range(r0, r1, _PIECE):  # a piece of lines i..j-1
            j, k = min(i + _PIECE, r1), int(kind[i])
            rows = None if k < 0 else parse(i, j, k)
            if rows is None:  # the piece's first line at fault is sought only now
                m = next(m for m in range(i, j) if k < 0 or parse(m, m + 1, k) is None)
                raise MeshFormatError(
                    f"line {m + 1}: expected 'v x y', 't i j k parent' or 'leaf n', "
                    f"one space apart, in {text[starts[m]:ends[m]]!r}")
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
    forest._resize(n)  # sized once
    forest._reserve(n - n_roots)
    nodes = forest.nodes
    verts, level, child = nodes["verts"], nodes["level"], nodes["child"]
    nodes["parent"][n_roots:] = parent[n_roots:]
    child[pp] = c0
    # child 0 of a bisection starts at the vertex opposite the bisected edge
    edges = (stored[pp] == stored[c0, :1]).all(axis=2).argmax(axis=1)
    # one generation per round: the bisections of the nodes the last round made,
    # found through their child ids, so a round touches its own pairs only; every
    # parent descends from a root and has one pair, so each pair is replayed once
    above = np.flatnonzero(child[:n_roots] >= 0)
    while len(above):
        first, below = child[above], level[above] + 1
        for k, pair in enumerate(bisect(verts[above], edges[(first - n_roots) // 2])):
            verts[first + k], level[first + k] = pair, below
        made = np.concatenate((first, first + 1))
        above = made[child[made] >= 0]
    # bit for bit: 0.0 and -0.0 are distinct vertices
    bad = np.flatnonzero((verts.view(np.uint64) != stored.view(np.uint64)).any(axis=(1, 2)))
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
