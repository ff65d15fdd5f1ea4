"""Refinement forest, greedy loop, stop rules and mesh serialization."""

import collections
import math
import re
import struct
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anisomesh import approx, engine
from anisomesh.analysis import random_triangle as random_root, sigma_study
from anisomesh.approx import local_error
from anisomesh.engine import (
    GreedyConfig,
    MeshFormatError,
    RefinementForest,
    RunawayRefinementError,
    StopRule,
    global_error,
    greedy_run,
    initial_mesh,
    load_mesh,
    mesh_from_text,
    mesh_to_text,
    save_mesh,
    select_edge,
    uniform_refine,
)
from anisomesh.fields import QuadraticField, ScalarField, builtin_catalog, get_field
from anisomesh.geometry import (QuadForm, Triangle, bisect, edge_vectors_of,
                                q_longest_edge_index, sigma, sigma_batch)

from test_geometry import random_pd_form, random_triangle

DISK = QuadraticField("disk", 1.0, 0.0, 1.0)
AFFINE = ScalarField("plane", lambda x, y: 1.0 + 2.0 * x - 1.0 * y,
                     convexity="convex")


def count_config(n, **kw):
    return GreedyConfig(stop=StopRule("target-count", n), **kw)


def column_bytes(forest):
    """Each column of a forest's nodes as bytes, by name: forests with equal
    ones hold the same nodes, bit for bit."""
    return {name: forest.nodes[name].tobytes() for name in engine._COLUMNS}


# one field and config per decision path: convex gains, quadrature L1, and
# lp-split at p = 2 and p = inf with both operators
DECISION_CASES = [
    ("expbump", GreedyConfig()),
    ("mixed-saddle", GreedyConfig()),
    ("aniso-10", GreedyConfig(decision="lp-split", p=2.0)),
    ("expbump", GreedyConfig(decision="lp-split", p=2.0, operator="l2-projection")),
    ("mixed-saddle", GreedyConfig(decision="lp-split", p=math.inf)),
    ("mixed-saddle", GreedyConfig(decision="lp-split", p=math.inf,
                                  operator="l2-projection")),
]
DECISION_IDS = ["convex", "l1", "lp2", "lp2-l2proj", "lpinf", "lpinf-l2proj"]


def counted(calls, name, fn):
    """``fn``, counting its calls in ``calls[name]``."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


# the reference triangle bisected once, as mesh_to_text writes it (no leaf lines)
BISECTED = ("aniso-mesh v1\nv 0 0\nv 1 0\nv 0 1\nv 0.5 0.5\n"
            "t 0 1 2 -1\nt 0 1 3 0\nt 0 3 2 0\n")


# a root with -0.0 coordinates, which the mesh text keeps apart from 0.0
SIGNED_ZERO_ROOT = Triangle([(-0.0, 1), (-1, 1), (-0.0, 0)])


@st.composite
def refined_forest(draw):
    """Random roots, some with -0.0 coordinates, refined by a random greedy
    or uniform run: (roots, forest)."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 31 - 1)))
    roots = [random_root(rng) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        roots.insert(draw(st.integers(0, len(roots))), SIGNED_ZERO_ROOT)
    f = get_field(draw(st.sampled_from(["disk", "aniso-10", "expbump", "mixed-saddle"])))
    if draw(st.booleans()):
        n = len(roots) + draw(st.integers(0, 40))
        forest, _ = greedy_run(f, count_config(n, initial=tuple(roots)))
    else:
        forest = uniform_refine(RefinementForest(roots), f, GreedyConfig(),
                                draw(st.integers(0, 4)))
    return roots, forest


class TestStopRuleValidation:
    def test_kinds(self):
        with pytest.raises(ValueError):
            StopRule("until-bored", 3)
        with pytest.raises(ValueError):
            StopRule("target-count", 2.5)
        with pytest.raises(ValueError):
            StopRule("error-threshold", 0.0)
        with pytest.raises(ValueError):
            StopRule("generation-levels", -1)

    @pytest.mark.parametrize("kind", ["target-count", "error-threshold",
                                      "generation-levels"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_values_rejected(self, kind, value):
        with pytest.raises(ValueError, match="finite"):
            StopRule(kind, value)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GreedyConfig(p=0.5)
        with pytest.raises(ValueError):
            GreedyConfig(operator="spline")
        with pytest.raises(ValueError):
            GreedyConfig(decision="coin-flip")

    @pytest.mark.parametrize("cap", [math.nan, math.inf, 2.5, 1000.0, 2, "1000"])
    def test_node_cap_must_be_an_integer_of_at_least_3(self, cap):
        message = f"node cap must be an integer >= 3, got {cap!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            GreedyConfig(node_cap=cap)

    def test_node_cap_accepts_numpy_integers(self):
        assert GreedyConfig(node_cap=np.int64(3)).node_cap == 3


class TestForest:
    def test_initial_mesh_variants(self):
        assert len(initial_mesh("ref-triangle")) == 1
        square = initial_mesh("unit-square")
        assert len(square) == 2
        assert sum(t.area for t in square) == pytest.approx(1.0)
        t = random_triangle(np.random.default_rng(1))
        assert initial_mesh(t) == [t]
        assert initial_mesh([t, t]) == [t, t]
        with pytest.raises(ValueError):
            initial_mesh("hexagon")

    def test_counting_invariant(self):
        forest, _ = greedy_run(DISK, count_config(37))
        n_bisections = (len(forest.nodes) - forest.n_roots) // 2
        assert forest.n_leaves == forest.n_roots + n_bisections == 37

    def test_children_partition_parent(self):
        forest, _ = greedy_run(DISK, count_config(64))
        verts = forest.nodes["verts"]
        for i in np.flatnonzero(forest.nodes["child"] >= 0):
            c = forest.nodes["child"][i]
            a = Triangle(verts[c]).area + Triangle(verts[c + 1]).area
            assert a == pytest.approx(Triangle(verts[i]).area, rel=1e-10)

    def test_cache_coherence(self):
        cfg = count_config(50, p=2.0)
        forest, _ = greedy_run(DISK, cfg)
        for i in forest.leaf_ids():
            recomputed = local_error(Triangle(forest.nodes["verts"][i]), DISK, cfg.p, cfg.operator)
            assert abs(forest.nodes["error"][i] - recomputed) <= 1e-12 * max(recomputed, 1e-300)

    def test_double_bisection_rejected(self):
        forest = RefinementForest(initial_mesh("ref-triangle"))
        forest.bisect_node(np.array([0]), np.array([0]))
        with pytest.raises(ValueError):
            forest.bisect_node(np.array([0]), np.array([1]))

    def test_batch_bisection_matches_scalar_calls(self):
        roots = [random_root(np.random.default_rng(s)) for s in range(3)]
        batch, rows = RefinementForest(roots), RefinementForest(roots)
        ids, edges = np.array([2, 0]), np.array([1, 2])
        first, second = batch.bisect_node(ids, edges)
        assert first.tolist() == [3, 5] and second.tolist() == [4, 6]
        for i, e in zip(ids.tolist(), edges.tolist()):
            rows.bisect_node(np.array([i]), np.array([e]))
        assert column_bytes(batch) == column_bytes(rows)

    def test_given_children_write_the_same_columns(self, monkeypatch):
        # the greedy loop hands bisect_node the children it already made:
        # every column holds the bytes bisect_node writes when it bisects,
        # and it bisects nothing itself
        roots = [random_root(np.random.default_rng(s)) for s in range(4)]
        given, made = RefinementForest(roots), RefinementForest(roots)
        for forest in (given, made):
            forest.bisect_node(np.array([1]), np.array([0]))
        ids, edges = np.array([3, 0, 5, 2]), np.array([2, 1, 0, 1])
        children = bisect(given.nodes["verts"][ids], edges)
        with monkeypatch.context() as patch:
            patch.setattr(engine, "bisect", None)
            got = given.bisect_node(ids, edges, children=children)
        want = made.bisect_node(ids, edges)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]
        assert column_bytes(given) == column_bytes(made)

    def test_given_children_keep_the_id_checks(self):
        forest = RefinementForest(initial_mesh("unit-square"))
        forest.bisect_node(np.array([0]), np.array([0]))
        before = column_bytes(forest)
        for ids in ([1, 1], [0], [4]):  # repeated, non-leaf, past the end
            children = bisect(forest.nodes["verts"][[1] * len(ids)], np.zeros(len(ids), int))
            with pytest.raises(ValueError):
                forest.bisect_node(np.array(ids), np.zeros(len(ids), int), children=children)
            assert column_bytes(forest) == before

    @pytest.mark.parametrize("ids", [[1, 1], [2, 0], 1],
                             ids=["repeated", "non-leaf", "scalar"])
    def test_batch_bisection_rejects(self, ids):
        forest = RefinementForest(initial_mesh("unit-square"))
        forest.bisect_node(np.array([0]), np.array([0]))  # node 0 is no longer a leaf
        before = column_bytes(forest)
        with pytest.raises(ValueError):
            forest.bisect_node(np.array(ids), np.array([0, 0]))
        assert column_bytes(forest) == before

    @pytest.mark.parametrize("ids", [[-1], [2], [1.0]], ids=["negative", "past-the-end", "float"])
    def test_bisection_rejects_ids_outside_the_forest(self, ids):
        # two roots: -1 would index the last node and 2 no node at all
        forest = RefinementForest(initial_mesh("unit-square"))
        before = column_bytes(forest)
        with pytest.raises(ValueError, match="node ids"):
            forest.bisect_node(np.array(ids), np.array([0]))
        assert column_bytes(forest) == before
        assert column_bytes(mesh_from_text(mesh_to_text(forest))) == before


class TestSelectTriangle:
    """The greedy loop bisects the maximal-error leaf, earliest id on ties."""

    def test_max_and_tie(self):
        # the two unit-square roots have equal errors under the disk field
        errs = [local_error(t, DISK, 2.0) for t in initial_mesh("unit-square")]
        assert errs[0] == errs[1]
        forest, _ = greedy_run(DISK, count_config(3, initial="unit-square"))
        assert forest.nodes["child"][0] == 2  # children 2 and 3
        assert forest.nodes["child"][1] == -1

    def test_matches_heap_selection(self):
        # brute-force max over the leaves of a 40-leaf run is the leaf the
        # loop bisects next
        forest, _ = greedy_run(DISK, count_config(40))
        errs = {i: forest.nodes["error"][i] for i in forest.leaf_ids()}
        top = max(errs.values())
        best = min(i for i, e in errs.items() if e == top)
        nxt, _ = greedy_run(DISK, count_config(41))
        assert nxt.nodes["child"][best] == len(forest.nodes)

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize("label", [f.label for f in builtin_catalog()
                                       if isinstance(f, QuadraticField)])
    def test_translated_leaves_tie(self, label, p):
        # a quadratic field's interpolation error depends on the edge vectors
        # only: leaves with the same edge vector bits have the same error
        # bits, so the id, not rounding, orders them
        forest, _ = greedy_run(get_field(label), GreedyConfig(
            p=p, decision="lp-split" if math.isinf(p) else "l1-interp",
            stop=StopRule("target-count", 1024)))
        leaves = forest.leaf_ids()
        groups = collections.defaultdict(set)
        for e, err in zip(edge_vectors_of(forest.nodes["verts"][leaves]),
                          forest.nodes["error"][leaves]):
            groups[e.tobytes()].add(err.tobytes())
        assert len(groups) < len(leaves)  # some leaves are translates
        assert all(len(bits) == 1 for bits in groups.values())


class TestSelectEdge:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.sampled_from(range(len(DECISION_CASES))))
    def test_batch_matches_rows(self, seed, case):
        rng = np.random.default_rng(seed)
        roots = [random_root(rng) for _ in range(int(rng.integers(1, 4)))]
        forest = uniform_refine(RefinementForest(roots), DISK, GreedyConfig(),
                                int(rng.integers(0, 4)))
        name, cfg = DECISION_CASES[case]
        f = get_field(name)
        verts = forest.leaf_vertex_array()
        assert select_edge(verts, f, cfg).tolist() == \
            [select_edge(v, f, cfg) for v in verts]

    def test_convex_gain_only_inside_the_check_box(self):
        # gauss-ridge is tagged convex only in its check box [1, 2] x [0, 0.5]:
        # in a batch of leaves inside it and outside it, each leaf takes its
        # own rule, the closed-form gain inside and the quadrature outside,
        # and the edge it would take alone
        f = get_field("gauss-ridge")
        box = [Triangle([(1.0, 0.0), (2.0, 0.0), (2.0, 0.5)]),
               Triangle([(1.0, 0.0), (2.0, 0.5), (1.0, 0.5)])]
        verts = np.concatenate([
            uniform_refine(RefinementForest(roots), f, GreedyConfig(), 2).leaf_vertex_array()
            for roots in (box, initial_mesh("unit-square"))])
        verts = verts[np.random.default_rng(7).permutation(len(verts))]
        convex = f.convex_on(verts)
        assert 0 < convex.sum() < len(verts)
        edges = select_edge(verts, f, GreedyConfig())
        assert edges.tolist() == [select_edge(v, f, GreedyConfig()) for v in verts]
        gains = approx.decision_gains_convex(verts[convex], f)
        assert (edges[convex] == gains.argmax(axis=1)).all()
        assert (edges[~convex] == approx.decision_l1(verts[~convex], f).argmin(axis=1)).all()

    @pytest.mark.parametrize("initial", engine.INITIAL_MESHES)
    @pytest.mark.parametrize("label", [f.label for f in builtin_catalog() if f.is_convex])
    def test_every_parent_takes_the_quadratures_edge(self, label, initial):
        # a p = 2 l1-interp run of each tagged catalog field from each CLI
        # domain: where the closed-form gain decides, its edge is
        # decision_l1's argmin up to a near-tie; gauss-ridge, whose check box
        # neither domain lies in, is decided by decision_l1 itself
        f = get_field(label)
        forest, _ = greedy_run(f, count_config(256, initial=initial))
        nodes = forest.nodes
        parents = np.flatnonzero(nodes["child"] >= 0)
        verts = nodes["verts"][parents]
        # child 0 of a bisection starts at the vertex opposite the bisected edge
        first = nodes["verts"][nodes["child"][parents], 0]
        edges = (verts == first[:, None]).all(axis=2).argmax(axis=1)
        values = approx.decision_l1(verts, f)
        best = values.min(axis=1)
        chosen = values[np.arange(len(edges)), edges]
        convex = f.convex_on(verts)
        assert not convex.any() if label == "gauss-ridge" else convex.all()
        assert (edges[~convex] == values[~convex].argmin(axis=1)).all()
        assert (chosen[convex] <= best[convex] * (1.0 + 1e-9)).all()

    @pytest.mark.parametrize("name, cfg", DECISION_CASES, ids=DECISION_IDS)
    def test_one_decision_call_per_batch(self, name, cfg, monkeypatch):
        verts = uniform_refine(RefinementForest(initial_mesh("unit-square")), DISK,
                               GreedyConfig(), 3).leaf_vertex_array()
        calls = collections.Counter()
        for fn in ("decision_gains_convex", "decision_l1", "decision_lp_split"):
            monkeypatch.setattr(approx, fn, counted(calls, fn, getattr(approx, fn)))
        assert select_edge(verts, get_field(name), cfg).shape == (16,)
        assert sum(calls.values()) == 1

    def test_convex_quadratic_picks_q_longest(self):
        rng = np.random.default_rng(3)
        cfg = GreedyConfig()
        for _ in range(100):
            q = random_pd_form(rng)
            t = random_triangle(rng)
            qvals = sorted((q(t.edge_vector(i)) for i in range(3)), reverse=True)
            if qvals[0] - qvals[1] <= 1e-9 * qvals[0]:
                continue
            f = QuadraticField("s", q.a20, q.a11, q.a02)
            assert select_edge(t.vertices, f, cfg) == q_longest_edge_index(q, t)

    def test_affine_tie_rule(self):
        # integer-valued affine field: all gains are exactly zero
        flat = ScalarField("flat", lambda x, y: 2.0 * x + 4.0 * y,
                           convexity="convex")
        t = Triangle([(0, 0), (1, 0), (0, 1)])
        assert select_edge(t.vertices, flat, GreedyConfig()) == 0

    def test_lp_split_decision(self):
        cfg = GreedyConfig(decision="lp-split", p=2.0)
        assert select_edge(initial_mesh("ref-triangle")[0].vertices, DISK, cfg) == 0


class TestGreedyRun:
    def test_affine_target_count(self):
        forest, trace = greedy_run(AFFINE, count_config(16))
        assert forest.n_leaves == 16
        assert trace[-1].global_error <= 1e-12

    def test_disk_generation_spread(self):
        # homogeneous quadratic on a single root: equal-area splits keep
        # the leaf generations within one level of each other
        for k in (4, 5):
            forest, _ = greedy_run(DISK, count_config(2 ** k))
            levels = {forest.nodes["level"][i] for i in forest.leaf_ids()}
            assert max(levels) - min(levels) <= 1
            assert max(levels) == k

    def test_error_threshold_stop(self):
        eta = 2e-4
        cfg = GreedyConfig(p=2.0, stop=StopRule("error-threshold", eta))
        forest, _ = greedy_run(DISK, cfg)
        for i in forest.leaf_ids():
            assert forest.nodes["error"][i] <= eta
        split = forest.nodes["child"] >= 0
        assert (forest.nodes["error"][split] > eta).all()

    def test_generation_levels_matches_uniform(self):
        cfg = GreedyConfig(stop=StopRule("generation-levels", 3))
        forest, _ = greedy_run(DISK, cfg)
        assert forest.n_leaves == 8
        assert {forest.nodes["level"][i] for i in forest.leaf_ids()} == {3}
        uni = uniform_refine(RefinementForest(initial_mesh("ref-triangle")),
                             DISK, GreedyConfig(), 3)
        # same leaf set; creation order differs (error order vs id order)
        key = lambda v: v.tobytes()
        assert sorted(map(key, forest.leaf_vertex_array())) == \
            sorted(map(key, uni.leaf_vertex_array()))

    def test_target_below_roots_rejected(self):
        with pytest.raises(ValueError):
            greedy_run(DISK, count_config(1, initial="unit-square"))

    def test_node_cap(self):
        with pytest.raises(RunawayRefinementError):
            greedy_run(DISK, count_config(64, node_cap=16))

    def test_target_count_node_cap_checked_up_front(self):
        # 40 leaves from two roots need 2 * 40 - 2 = 78 nodes
        assert len(greedy_run(DISK, count_config(40, initial="unit-square",
                                                 node_cap=78))[0].nodes) == 78
        calls = []
        counting = ScalarField("counting", lambda x, y: calls.append(1) or x * x)
        with pytest.raises(RunawayRefinementError, match="needs 78 nodes.*node cap 77"):
            greedy_run(counting, count_config(40, initial="unit-square", node_cap=77))
        assert calls == []  # failed before any error was computed

    def test_generation_levels_node_cap_checked_up_front(self):
        # two roots to level 3 need 2 * (2**4 - 1) = 30 nodes
        cfg = GreedyConfig(stop=StopRule("generation-levels", 3),
                           initial="unit-square", node_cap=30)
        assert len(greedy_run(DISK, cfg)[0].nodes) == 30
        calls = []
        counting = ScalarField("counting", lambda x, y: calls.append(1) or x * x)
        with pytest.raises(RunawayRefinementError, match="node cap 29"):
            greedy_run(counting, GreedyConfig(stop=StopRule("generation-levels", 3),
                                              initial="unit-square", node_cap=29))
        assert calls == []  # failed before any error was computed
        with pytest.raises(RunawayRefinementError):
            greedy_run(DISK, GreedyConfig(stop=StopRule("generation-levels", 10 ** 9)))

    def test_large_p_lp_split_rejected(self):
        # the decision scores children whose p-th powers underflow: the run
        # fails there instead of reading their errors as 0
        config = count_config(4096, p=150.0, decision="lp-split")
        with pytest.raises(ValueError, match="field 'aniso-10' underflows at p = 150 on"):
            greedy_run(get_field("aniso-10"), config)

    @pytest.mark.parametrize("stop", [StopRule("target-count", 64),
                                      StopRule("error-threshold", 1e-3),
                                      StopRule("generation-levels", 6)])
    def test_nan_field_rejected(self, stop):
        def hole(x, y):
            return np.where((x > 0.3) & (x < 0.4) & (y < 0.2), np.nan, x * x + y * y)

        cfg = GreedyConfig(stop=stop, initial="unit-square")
        with pytest.raises(ValueError, match=r"field 'hole' is not finite on triangle \[\["):
            greedy_run(ScalarField("hole", hole), cfg)

    def test_trace_cadence(self):
        _, trace = greedy_run(DISK, count_config(40))
        assert [r.n_leaves for r in trace] == list(range(1, 41))
        assert trace[0].step == 0
        _, trace2 = greedy_run(DISK, count_config(2 ** 11 + 3, node_cap=2 ** 13))
        big = [r.n_leaves for r in trace2 if r.n_leaves > 1024]
        assert big == [2048, 2 ** 11 + 3]  # powers of two, then the final state

    def test_sigma_stats_in_trace(self):
        _, trace = greedy_run(DISK, count_config(32))
        root_sigma = sigma(QuadForm(1, 0, 1), initial_mesh("ref-triangle")[0])
        for rec in trace:
            assert rec.sigma_max <= root_sigma * (1 + 1e-12)
        _, trace2 = greedy_run(get_field("expbump"), count_config(4))
        assert math.isnan(trace2[-1].sigma_mean)

    def test_nesting_along_trace(self):
        _, trace = greedy_run(DISK, count_config(20))
        for a, b in zip(trace, trace[1:]):
            assert b.n_leaves == a.n_leaves + 1  # one bisection per step


def reference_trace_record(forest, p, form, step):
    """A trace record that re-measures every leaf (sigma only given ``form``)
    of the mesh after ``step`` bisections: the first rows of the forest, with
    the bisections made after that step undone."""
    n = forest.n_roots + 2 * step
    child = forest.nodes["child"][:n]
    leaves = np.flatnonzero((child < 0) | (child >= n))
    verts = forest.nodes["verts"][leaves]
    if form is not None:
        s = sigma_batch(form, verts)
        smean, smax = math.fsum(s) / len(s), float(s.max())
    else:
        smean = smax = math.nan
    e = edge_vectors_of(verts)
    return engine.TraceRecord(step, len(leaves), approx.lp_sum(forest.nodes["error"][leaves], p),
                              float(np.sqrt((e * e).sum(axis=2).max())), smean, smax)


def record_bytes(rec):
    """A trace record as bytes: float64 fields compare bit for bit."""
    return struct.pack("<2q4d", rec.step, rec.n_leaves, rec.global_error,
                       rec.max_diam, rec.sigma_mean, rec.sigma_max)


def definite_form(f):
    """The form a trace record reads sigma from: the field's, when definite."""
    form = getattr(f, "form", None)
    return form if form is not None and form.is_positive_definite else None


def checked_greedy_run(f, config):
    """``greedy_run``'s forest and trace, with each returned record required to
    equal, as bytes, the reference record of the mesh after its step."""
    forest, trace = greedy_run(f, config)
    assert trace  # a run records its first step at least
    for rec in trace:
        want = reference_trace_record(forest, config.p, definite_form(f), rec.step)
        assert record_bytes(rec) == record_bytes(want), rec
    return forest, trace


def assert_records_reread(forest, f, p, counts):
    """The records at the leaf counts ``counts``, read from the finished forest
    by one ``_trace_record`` call on a fresh ``_LeafValues``, come in the order
    asked and equal the reference records as bytes."""
    records = engine._trace_record(engine._LeafValues(forest, f, p),
                                   [n - forest.n_roots for n in counts])
    assert [rec.n_leaves for rec in records] == list(counts)
    for rec in records:
        want = reference_trace_record(forest, p, definite_form(f), rec.step)
        assert record_bytes(rec) == record_bytes(want), rec


@st.composite
def traced_config(draw):
    """(field, config) over fields with and without a definite form, p, both
    operators, both decisions and all three stop rules."""
    f = get_field(draw(st.sampled_from(["disk", "aniso-10", "aniso-100",
                                        "mixed-saddle", "expbump"])))
    p = draw(st.sampled_from([1.0, 2.0, 3.5, math.inf]))
    operator = draw(st.sampled_from(approx.OPERATORS))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 31 - 1)))
    initial = draw(st.sampled_from(["ref-triangle", "unit-square",
                                    tuple(random_root(rng) for _ in range(3))]))
    n_roots = len(initial_mesh(initial))
    kind = draw(st.sampled_from(engine.STOP_KINDS))
    if kind == "target-count":
        value = n_roots + draw(st.integers(0, 60))
    elif kind == "generation-levels":
        value = draw(st.integers(0, 5))
    else:  # a tolerance at or below the roots' error; the node cap may end the run
        e0 = global_error(RefinementForest(initial_mesh(initial)), f, p, operator)
        value = max(e0 * draw(st.sampled_from([1.0, 0.3, 0.05])), 1e-300)
    config = GreedyConfig(p=p, operator=operator,
                          decision=draw(st.sampled_from(engine.DECISIONS)),
                          stop=StopRule(kind, value), initial=initial, node_cap=400)
    return f, config


class TestTraceRecords:
    @settings(max_examples=40, deadline=None)
    @given(traced_config())
    def test_records_match_full_remeasure(self, case):
        f, config = case
        try:
            _, trace = checked_greedy_run(f, config)
        except RunawayRefinementError:  # a run stopped at the node cap has no trace
            return
        assert [r.step for r in trace] == list(range(len(trace)))

    @pytest.mark.xfail(strict=True, raises=ValueError,
                       reason="ROADMAP item 5: at p = inf the decision stalls on a needle, "
                              "which local_error rejects as too flat")
    def test_a_drawn_pinf_run_does_not_stall_on_a_needle(self):
        # a case of traced_config: the convex expbump, l2-projection, lp-split,
        # an error threshold and the node cap 400 on three counter-clockwise
        # roots; the run raises "triangle too flat" from select_edge
        roots = [[(0.4405639744660511, 0.4011268167604226),
                  (0.18524958205663844, 0.32159720683503723),
                  (0.4523659194581665, 0.0961822246357954)],
                 [(0.39027745368538536, 0.9552758857697622),
                  (0.27110485213212154, 0.05223251982414301),
                  (0.9387749626641189, 0.740267821380265)],
                 [(0.6213560012049176, 0.5840415267592534),
                  (0.5318886443746429, 0.859494850105384),
                  (0.5627066851978025, 0.04756825334869952)]]
        config = GreedyConfig(p=math.inf, operator="l2-projection", decision="lp-split",
                              stop=StopRule("error-threshold",
                                            float.fromhex("0x1.315fec7c3f020p-1")),
                              initial=tuple(map(Triangle, roots)), node_cap=400)
        try:
            checked_greedy_run(get_field("expbump"), config)
        except RunawayRefinementError:  # as the drawn runs: the node cap may end it
            pass

    def test_records_past_1024_leaves_match_full_remeasure(self):
        # past 1024 leaves, records skip many steps: each reads only the rows
        # of its own step from the finished forest, as any step's record can
        f = get_field("aniso-10")
        forest, trace = checked_greedy_run(f, count_config(1500))
        assert [r.n_leaves for r in trace if r.n_leaves > 1024] == [1500]
        assert_records_reread(forest, f, 2.0, [1025, 1100, 1337, 1500])

    # the cases keep the ids of their earlier, three-argument form
    @pytest.mark.parametrize("label, config", [
        # the sigma path, p = inf
        ("aniso-100", count_config(1024, p=math.inf, decision="lp-split")),
        ("mixed-saddle", count_config(1024, p=1.0)),  # an indefinite form
        ("expbump", count_config(16384, initial="unit-square")),  # past 1024
        ("disk", GreedyConfig(p=3.5, stop=StopRule("error-threshold", 1e-4))),
        ("aniso-10", count_config(3000)),
    ], ids=["aniso-100-config0-None", "mixed-saddle-config1-None", "expbump-config2-None",
            "disk-config3-None", "aniso-10-config4-record_at4"])
    def test_records_equal_the_column_formula(self, label, config):
        # every returned record equals, by repr, the one the leaf mask
        # (child < 0) | (child >= n), fancy-index gathers and the array methods
        # make from per-node columns
        f = get_field(label)
        forest, trace = greedy_run(f, config)
        verts = forest.nodes["verts"]
        e = edge_vectors_of(verts)
        diam2 = (e * e).sum(axis=2).max(axis=1)
        definite = label in ("aniso-100", "disk", "aniso-10")
        sigma = sigma_batch(f.form, verts) if definite else None
        for rec in trace:
            n = forest.n_roots + 2 * rec.step
            child = forest.nodes["child"][:n]
            leaves = np.flatnonzero((child < 0) | (child >= n))
            if sigma is not None:
                s = sigma[leaves]
                smean, smax = math.fsum(s) / len(s), float(s.max())
            else:
                smean = smax = math.nan
            want = engine.TraceRecord(rec.step, len(leaves),
                                      approx.lp_sum(forest.nodes["error"][leaves], config.p),
                                      float(np.sqrt(diam2[leaves].max())), smean, smax)
            assert repr(rec) == repr(want)
        assert {math.isnan(rec.sigma_mean) for rec in trace} == {not definite}

    def test_an_early_record_copies_no_column(self):
        # a record reads the first n = n_roots + 2 s rows of step s: a gathered
        # record's mask and gathers are O(n) bytes, an early one reads one row
        # of the step tables, while a copy of one forest column is 8 bytes per
        # node; the records of steps 0 ... 8 and a gathered one of step 1024
        # must stay far below that; the tables span the steps up to 1024
        # leaves only, not the forest
        f = get_field("aniso-10")
        forest, _ = greedy_run(f, count_config(16384))
        column = 8 * len(forest.nodes)

        def peak(make):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                make()
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        values = engine._LeafValues(forest, f, 2.0)
        # the sums of the powers and of sigma; the maxima of diam^2 and sigma
        assert (values.summed, values.maxed) == ([0, 2], [1, 2])
        early = 1024 - forest.n_roots + 1  # steps 0 ... 1023
        assert [len(sums) for sums, _ in values.sums] == [early] * 2
        assert values.tops.shape == (early, 2)
        engine._trace_record(values, [1024])  # past the tables: gathered
        assert peak(lambda: engine._trace_record(values, [1024])) < column // 4
        assert peak(lambda: engine._trace_record(values, range(9))) < column // 4

    def test_range_max_matches_brute_force(self):
        # seeded random intervals, some empty, some one step long and some
        # running to the last step, over values with ties, -0.0 and 0.0 and
        # inf: each step's maximum over the intervals holding it, bit for bit,
        # with 0.0 above -0.0 and -0.0 where no interval holds the step
        rng = np.random.default_rng(30)
        pool = np.array([0.0, -0.0, 5e-324, 0.5, 1.0, 1.0, 3.25, math.inf, 7.0])
        for size in (1, 2, 3, 5, 8, 64, 100, 1024):
            m = rng.integers(1, 2 * size + 2)
            start = rng.integers(0, size + 1, m)
            kind = rng.integers(0, 4, m)
            stop = np.select([kind == 0, kind == 1, kind == 2],
                             [start, np.minimum(start + 1, size), np.full(m, size)],
                             rng.integers(start, size + 1))
            values = rng.choice(pool, m)
            got = engine._range_max(values, start, stop, size)
            for s in range(size):
                held = [v for v, a, b in zip(values.tolist(), start, stop) if a <= s < b]
                want = max(held, key=lambda v: (v, math.copysign(1.0, v)), default=-0.0)
                assert got[s].tobytes() == np.float64(want).tobytes(), (size, s)

    @pytest.mark.parametrize("label", ["disk", "mixed-saddle"])  # definite, indefinite
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5, math.inf])
    def test_records_read_in_any_order(self, label, p):
        # a fresh read takes early and gathered records in shuffled order,
        # across the seam between 1024 and 1025 leaves, some of them twice
        f = get_field(label)
        forest, _ = greedy_run(f, count_config(1100, p=p, initial="unit-square"))
        rng = np.random.default_rng(30)
        counts = [2, 3, 4, 512, 1023, 1024, 1025, 1026, 1100, 4, 1025,
                  *rng.integers(2, 1101, 24).tolist()]
        rng.shuffle(counts)
        assert_records_reread(forest, f, p, counts)

    def test_records_of_more_than_1024_roots(self):
        # 2048 roots: step 0 is the only early step, and every other record
        # gathers its leaves
        f = get_field("aniso-10")
        roots = uniform_refine(RefinementForest(initial_mesh("unit-square")), f,
                               GreedyConfig(), 10).leaf_vertex_array()
        config = count_config(2100, initial=tuple(map(Triangle, roots)))
        forest, trace = checked_greedy_run(f, config)
        assert [r.n_leaves for r in trace] == [2048, 2100]
        assert len(engine._LeafValues(forest, f, 2.0).tops) == 1
        assert_records_reread(forest, f, 2.0, [2100, 2049, 2048, 2077, 2049])

    def test_trace_phase_stays_under_the_loop_peak(self, monkeypatch):
        # the last batch's arrays are gone when the records are read, so the
        # trace phase of a definite-form run (three rows per gathered record)
        # does not set the run's peak
        peaks = []

        def measured(forest, f, p):
            peaks.append(tracemalloc.get_traced_memory()[1])  # the loop's peak
            tracemalloc.reset_peak()
            return leaf_values(forest, f, p)

        leaf_values = engine._LeafValues
        monkeypatch.setattr(engine, "_LeafValues", measured)
        tracemalloc.start()
        try:
            greedy_run(get_field("aniso-10"), count_config(2 ** 16, initial="unit-square"))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[1] <= peaks[0]

    @pytest.mark.parametrize("label, config", [
        ("expbump", count_config(4096, initial="unit-square")),  # p = 2, no form
        ("aniso-100", count_config(4096, p=math.inf, decision="lp-split")),  # a definite form
    ], ids=["expbump-p2", "aniso-100-pinf"])
    def test_records_across_the_seam_match_full_remeasure(self, label, config):
        # the records up to 1024 leaves read the step tables, the later ones
        # gather their leaves; a fresh read of the finished forest reads the
        # records of any steps in any order, 1025 leaves (one step past the
        # tables) included, and twice
        f = get_field(label)
        forest, trace = checked_greedy_run(f, config)
        assert [r.n_leaves for r in trace if r.n_leaves >= 1024] == [1024, 2048, 4096]
        assert_records_reread(forest, f, config.p, [1500, 1025, 2, 3001, 1024, 1026, 1025])

    @pytest.mark.parametrize("label", ["disk", "mixed-saddle"])  # definite, indefinite
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
    def test_records_equal_the_rational_sums(self, label, p):
        # a record's error is the exact sum of numpy's powers of its leaves'
        # errors, rounded once, rooted by lp_root, and its sigma_mean the exact
        # sum of sigma, rounded once, over the leaf count: the records read
        # from the step tables and the gathered ones alike
        f = get_field(label)
        form = definite_form(f)
        forest, trace = greedy_run(f, count_config(1100, p=p, initial="unit-square"))
        values = engine._LeafValues(forest, f, p)
        for rec in trace[:150:7] + engine._trace_record(values, [n - forest.n_roots
                                                                 for n in (40, 1100)]):
            n = forest.n_roots + 2 * rec.step
            child = forest.nodes["child"][:n]
            leaves = np.flatnonzero((child < 0) | (child >= n))
            powers = (forest.nodes["error"][leaves] ** p).tolist()
            assert rec.global_error == approx.lp_root(float(sum(map(Fraction, powers))), p)
            if form is None:
                assert math.isnan(rec.sigma_mean)
                continue
            s = sigma_batch(form, forest.nodes["verts"][leaves]).tolist()
            assert rec.sigma_mean == float(sum(map(Fraction, s))) / len(s)

    @pytest.mark.parametrize("p, error", [(1.0, 1.5e308), (2.0, 1e200)])
    def test_an_overflowing_record_names_p(self, p, error):
        # 1026 roots, one of them bisected, whose errors' p-th powers sum past
        # the float range (at p = 2 each power alone overflows): the record of
        # step 0 reads the step tables, that of step 1, past 1024 leaves,
        # gathers its leaves, and both raise ValueError naming p, which the
        # CLI reports with exit code 1
        forest = RefinementForest(initial_mesh("unit-square") * 513)
        forest.bisect_node(np.array([0]), np.array([0]))
        forest.nodes["error"] = error
        for steps in ([0], [1], [1, 0]):  # the early one, the gathered one, both in one call
            values = engine._LeafValues(forest, get_field("expbump"), p)
            with pytest.raises(ValueError, match=f"global error overflows at p = {p:g}:"):
                engine._trace_record(values, steps)
        values = engine._LeafValues(forest, get_field("expbump"), math.inf)
        assert engine._trace_record(values, [1])[0].global_error == error

    def test_each_node_measured_once(self, monkeypatch):
        rows = collections.Counter()
        edges, sigmas = engine.edge_vectors_of, engine.sigma_batch
        monkeypatch.setattr(engine, "edge_vectors_of",
                            lambda verts: rows.update(diam2=len(verts)) or edges(verts))
        monkeypatch.setattr(engine, "sigma_batch", lambda form, verts:
                            rows.update(sigma=len(verts)) or sigmas(form, verts))
        forest, trace = greedy_run(get_field("aniso-10"),
                                   count_config(1100, initial="unit-square"))
        # records at 2..1024 leaves and at the final 1100
        assert [r.n_leaves for r in trace] == [*range(2, 1025), 1100]
        assert rows == {"diam2": len(forest.nodes), "sigma": len(forest.nodes)}

    def test_measuring_is_bounded(self, monkeypatch):
        rows = collections.defaultdict(list)
        edges, sigmas = engine.edge_vectors_of, engine.sigma_batch
        monkeypatch.setattr(engine, "edge_vectors_of",
                            lambda verts: rows["diam2"].append(len(verts)) or edges(verts))
        monkeypatch.setattr(engine, "sigma_batch", lambda form, verts:
                            rows["sigma"].append(len(verts)) or sigmas(form, verts))
        # the records at 2048 and 4096 leaves are thousands of steps apart,
        # yet no call measures more rows than one slice
        forest, trace = greedy_run(get_field("aniso-10"), count_config(5000))
        assert [r.n_leaves for r in trace if r.n_leaves > 1024] == [2048, 4096, 5000]
        for kind in ("diam2", "sigma"):
            assert max(rows[kind]) <= engine._MAX_BATCH
            assert sum(rows[kind]) == len(forest.nodes)


def column_sizes(monkeypatch):
    """The sizes the forests' columns are allocated to, past their roots, in
    call order."""
    sizes = []
    real = RefinementForest._resize
    monkeypatch.setattr(RefinementForest, "_resize",
                        lambda forest, size: sizes.append(size) or real(forest, size))
    return sizes


class TestColumnSizing:
    """Runs that know their final node count allocate the columns once."""

    def test_a_target_count_run(self, monkeypatch):
        sizes = column_sizes(monkeypatch)
        forest, _ = greedy_run(get_field("expbump"), count_config(3000, initial="unit-square"))
        assert sizes == [len(forest.nodes)] == [2 * 3000 - 2]

    def test_a_generation_levels_run(self, monkeypatch):
        sizes = column_sizes(monkeypatch)
        config = GreedyConfig(stop=StopRule("generation-levels", 9), initial="unit-square")
        forest, _ = greedy_run(get_field("aniso-10"), config)
        assert sizes == [len(forest.nodes)] == [2 * (2 ** 10 - 1)]

    def test_a_sigma_study(self, monkeypatch):
        # one root, three sweeps per level: 8 ** 3 leaves after three levels
        sizes = column_sizes(monkeypatch)
        stats = sigma_study(get_field("aniso-10"), levels=3)
        assert stats[-1].count == 8 ** 3
        assert sizes == [2 * 8 ** 3 - 1]

    def test_uniform_refine(self, monkeypatch):
        forest = RefinementForest(initial_mesh("unit-square"))
        sizes = column_sizes(monkeypatch)
        uniform_refine(forest, get_field("aniso-10"), GreedyConfig(), 7)
        assert sizes == [len(forest.nodes)] == [2 * (2 ** 8 - 1)]
        # columns already large enough are kept
        uniform_refine(forest, get_field("aniso-10"), GreedyConfig(), 0)
        assert len(sizes) == 1

    def test_a_loaded_mesh(self, monkeypatch):
        forest, _ = greedy_run(get_field("disk"), count_config(500))
        text = mesh_to_text(forest)
        sizes = column_sizes(monkeypatch)
        loaded = mesh_from_text(text)
        assert sizes == [len(loaded.nodes)] == [len(forest.nodes)]


class TestUniformRefine:
    @pytest.mark.parametrize("name, cfg", DECISION_CASES, ids=DECISION_IDS)
    def test_matches_per_leaf_reference(self, name, cfg):
        f = get_field(name)
        roots = [random_root(np.random.default_rng(s)) for s in (1, 2)]
        forest = uniform_refine(RefinementForest(roots), f, cfg, 4)
        ref = RefinementForest(roots)
        for _ in range(4):
            for i in ref.leaf_ids().tolist():
                ref.bisect_node(np.array([i]), [select_edge(ref.nodes["verts"][i], f, cfg)])
        assert column_bytes(forest) == column_bytes(ref)

    def test_one_call_per_sweep(self, monkeypatch):
        calls = collections.Counter()
        monkeypatch.setattr(engine, "select_edge",
                            counted(calls, "select_edge", engine.select_edge))
        monkeypatch.setattr(RefinementForest, "bisect_node",
                            counted(calls, "bisect_node", RefinementForest.bisect_node))
        uniform_refine(RefinementForest(initial_mesh("unit-square")), DISK,
                       GreedyConfig(), 5)
        assert calls == {"select_edge": 5, "bisect_node": 5}

    def test_node_cap_checked_up_front(self):
        # one leaf bisected 3 times adds 2 * (2**3 - 1) = 14 nodes
        forest = RefinementForest(initial_mesh("ref-triangle"))
        uniform_refine(forest, DISK, GreedyConfig(node_cap=15), 3)
        assert len(forest.nodes) == 15
        forest = RefinementForest(initial_mesh("ref-triangle"))
        with pytest.raises(RunawayRefinementError, match="node cap 14"):
            uniform_refine(forest, DISK, GreedyConfig(node_cap=14), 3)
        assert len(forest.nodes) == 1  # nothing was refined

    def test_zero_levels_noop(self):
        forest = RefinementForest(initial_mesh("ref-triangle"))
        text = mesh_to_text(forest)
        uniform_refine(forest, DISK, GreedyConfig(), 0)
        assert mesh_to_text(forest) == text

    def test_three_levels(self):
        forest = RefinementForest(initial_mesh("ref-triangle"))
        uniform_refine(forest, DISK, GreedyConfig(), 3)
        assert forest.n_leaves == 8
        for t in map(Triangle, forest.leaf_vertex_array()):
            assert t.area == pytest.approx(0.5 / 8, rel=1e-12)

    def test_three_level_disjunction_via_engine(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            q = random_pd_form(rng)
            root = random_triangle(rng)
            f = QuadraticField("s", q.a20, q.a11, q.a02)
            forest = RefinementForest([root])
            uniform_refine(forest, f, GreedyConfig(), 3)
            s0 = sigma(q, root)
            svals = [sigma(q, t) for t in map(Triangle, forest.leaf_vertex_array())]
            assert len(svals) == 8
            assert max(svals) <= s0 * (1 + 1e-9)
            assert min(svals) <= max(0.69 * s0, 5.0) * (1 + 1e-9)


class TestGlobalError:
    def test_single_leaf_equals_local(self):
        forest = RefinementForest(initial_mesh("ref-triangle"))
        got = global_error(forest, DISK, 1)
        assert got == pytest.approx(local_error(initial_mesh("ref-triangle")[0],
                                                DISK, 1), rel=1e-14)

    def test_affine_zero(self):
        forest, _ = greedy_run(AFFINE, count_config(8))
        assert global_error(forest, AFFINE, 2) <= 1e-12

    def test_monotone_decrease_for_convex_interpolation(self):
        # refinement removes D_T >= 0 from the L1 interpolation error
        f = get_field("expbump")
        _, trace = greedy_run(f, count_config(64, p=1.0))
        errs = [r.global_error for r in trace]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(errs, errs[1:]))

    def test_mismatched_cache_recomputes(self):
        forest, _ = greedy_run(DISK, count_config(16, p=2.0))
        direct = sum(local_error(t, DISK, 1) for t in map(Triangle, forest.leaf_vertex_array()))
        assert global_error(forest, DISK, 1) == pytest.approx(direct, rel=1e-12)

    def test_diameter_shrinks(self):
        f = get_field("disk")
        _, trace = greedy_run(f, count_config(512))
        diam = {r.n_leaves: r.max_diam for r in trace}
        assert diam[512] < diam[64]


class TestSerialization:
    def test_vertex_numbering_peak_per_node(self):
        """Peak traced memory of the writer up to its header, the numbering.

        A forest of ``N`` nodes has ``3 N`` vertex slots and ``V`` distinct
        vertices.  The numbering keeps the slots' coordinates (48 B/node),
        their ``lexsort`` order and the vertex numbers (24 B/node each) and
        the first-use flags (3 B/node), and per distinct vertex its first use,
        that use's rank and the rank's inverse (24 B/vertex).  While it
        numbers the slots it holds two more int64 arrays over them, the group
        counts and their gather: 48 B/node.  ``147 N + 24 V`` bytes, granted
        16 KiB for array headers and the generator.  Holding the two sorted
        coordinate-bit columns as well (48 B/node) does not fit.
        """
        forest, _ = greedy_run(get_field("expbump"), count_config(4096, initial="unit-square"))
        n = len(forest.nodes)
        v = mesh_to_text(forest).count("\nv ")  # numpy's first-call set-up is not timed
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            next(engine._mesh_text_slices(forest))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 147 * n + 24 * v + 16384

    def test_round_trip_bytes(self):
        forest, _ = greedy_run(DISK, count_config(33))
        text = mesh_to_text(forest)
        again = mesh_to_text(mesh_from_text(text))
        assert again == text

    def test_file_round_trip(self, tmp_path):
        forest, _ = greedy_run(get_field("aniso-10"), count_config(20))
        path = tmp_path / "mesh.txt"
        save_mesh(forest, path)
        loaded = load_mesh(path)
        assert loaded.n_leaves == forest.n_leaves
        assert mesh_to_text(loaded) == mesh_to_text(forest)
        for name in ("verts", "parent", "level"):
            assert np.array_equal(forest.nodes[name], loaded.nodes[name])

    def test_signed_zeros_round_trip(self):
        roots = [Triangle([(0, 0), (1, 0), (0, 1)]),
                 Triangle([(-0.0, 1), (-1, 1), (-0.0, 0)])]
        forest = uniform_refine(RefinementForest(roots), DISK, GreedyConfig(), 2)
        saved = forest.nodes["verts"]
        loaded = mesh_from_text(mesh_to_text(forest)).nodes["verts"]
        assert np.signbit(saved[1]).sum() == 3
        assert np.array_equal(loaded, saved)
        assert np.array_equal(np.signbit(loaded), np.signbit(saved))

    def test_seventeen_digit_vertices(self):
        t = Triangle([(0, 0), (1, 0), (0.1234567890123456789, 1)])
        text = mesh_to_text(RefinementForest([t]))
        assert "0.12345678901234568" in text

    def test_header_required(self):
        with pytest.raises(MeshFormatError, match="line 1"):
            mesh_from_text("not-a-mesh\nv 0 0\n")

    def test_bad_vertex_line(self):
        with pytest.raises(MeshFormatError, match="line 3"):
            mesh_from_text("aniso-mesh v1\nv 0 0\nv zero 1\n")

    def test_bad_vertex_index(self):
        text = "aniso-mesh v1\nv 0 0\nv 1 0\nv 0 1\nt 0 1 5 -1\nleaf 0\n"
        with pytest.raises(MeshFormatError, match="line 5"):
            mesh_from_text(text)

    def test_parent_must_precede(self):
        text = "aniso-mesh v1\nv 0 0\nv 1 0\nv 0 1\nt 0 1 2 7\nleaf 0\n"
        with pytest.raises(MeshFormatError, match="parent"):
            mesh_from_text(text)

    def test_leaf_markers_checked(self):
        text = "aniso-mesh v1\nv 0 0\nv 1 0\nv 0 1\nt 0 1 2 -1\nleaf 3\n"
        with pytest.raises(MeshFormatError, match="leaf markers"):
            mesh_from_text(text)

    def test_unknown_directive(self):
        with pytest.raises(MeshFormatError, match="line 2"):
            mesh_from_text("aniso-mesh v1\nq 1 2 3\n")

    def test_bisected_reference_text(self):
        forest = RefinementForest(initial_mesh("ref-triangle"))
        forest.bisect_node(np.array([0]), np.array([0]))
        assert mesh_to_text(forest) == BISECTED + "leaf 1\nleaf 2\n"
        assert mesh_to_text(mesh_from_text(BISECTED + "leaf 1\nleaf 2\n")) == \
            mesh_to_text(forest)

    def test_child_must_be_exact_bisection(self):
        # the midpoint one ulp off: both children differ from the replay
        text = BISECTED.replace("v 0.5 0.5", "v 0.5 0.50000000000000011")
        with pytest.raises(MeshFormatError, match="line 7: node 1 is not the bisection"):
            mesh_from_text(text + "leaf 1\nleaf 2\n")
        # the right triangle, but not in the vertex order bisection gives
        text = BISECTED.replace("t 0 3 2 0", "t 3 2 0 0")
        with pytest.raises(MeshFormatError, match="line 8: node 2 is not the bisection"):
            mesh_from_text(text + "leaf 1\nleaf 2\n")
        # -0 where the replay has 0: equal as floats, but another vertex
        text = BISECTED.replace("v 0.5 0.5\n", "v 0.5 0.5\nv -0 0\n").replace(
            "t 0 1 3 0", "t 4 1 3 0")
        with pytest.raises(MeshFormatError, match="line 8: node 1 is not the bisection"):
            mesh_from_text(text + "leaf 1\nleaf 2\n")

    def test_siblings_must_be_consecutive(self):
        text = ("aniso-mesh v1\nv 0 0\nv 1 0\nv 0 1\nv 0.5 0.5\nv 0.5 0\n"
                "t 0 1 2 -1\nt 0 1 3 0\nt 1 3 0 1\nt 0 3 2 0\nt 1 0 4 1\n"
                "leaf 2\nleaf 3\nleaf 4\n")
        with pytest.raises(MeshFormatError, match="line 8: the two children of node 0"):
            mesh_from_text(text)

    def test_roots_must_come_first(self):
        text = BISECTED + "t 0 1 2 -1\nt 0 1 2 -1\nleaf 1\nleaf 2\nleaf 3\nleaf 4\n"
        with pytest.raises(MeshFormatError, match="line 9: roots must come first"):
            mesh_from_text(text)

    def test_third_child_rejected(self):
        text = BISECTED + "t 0 1 3 0\nleaf 1\nleaf 2\nleaf 3\n"
        with pytest.raises(MeshFormatError, match="line 9: node 0 already has two"):
            mesh_from_text(text)

    @pytest.mark.parametrize("leaves, line, found", [
        ("leaf 1\nleaf 1\nleaf 2\n", 10, "expected 2, found 1"),
        ("leaf 1\n", 10, "expected 2, found end"),
        ("leaf 2\nleaf 1\n", 9, "expected 1, found 2"),
    ], ids=["duplicate", "missing", "descending"])
    def test_leaf_lines_list_every_leaf_once_ascending(self, leaves, line, found):
        with pytest.raises(MeshFormatError, match=f"line {line}: leaf markers .*{found}"):
            mesh_from_text(BISECTED + leaves)


def reference_mesh_from_text(text):
    """The loader as one one-row ``bisect_node`` replay per child pair."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != engine.MESH_HEADER:
        raise MeshFormatError(f"line 1: expected header {engine.MESH_HEADER!r}")
    verts, tris, leaves = [], [], []
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
        forest.bisect_node(np.array([parent]), np.array([edge]))
    bits = forest.nodes["verts"].view(np.uint64) != tri_verts.view(np.uint64)
    bad = np.flatnonzero(bits.any(axis=(1, 2)))
    if len(bad):
        ln, *_, parent = tris[bad[0]]
        raise MeshFormatError(
            f"line {ln}: node {bad[0]} is not the bisection of its parent {parent}")
    marks = leaves + [(len(lines) + 1, "end")]
    for (ln, got), want in zip(marks, forest.leaf_ids().tolist() + ["end"]):
        if got != want:
            raise MeshFormatError(f"line {ln}: leaf markers disagree with the "
                                  f"refinement tree: expected {want}, found {got}")
    return forest


@st.composite
def corrupted_mesh_text(draw):
    """The text of a random forest with one line deleted, duplicated or
    swapped, one vertex coordinate moved by one ulp, or one ``t`` or
    ``leaf`` field set to 2**64 or -5: (kind, text)."""
    _, forest = draw(refined_forest())
    lines = mesh_to_text(forest).splitlines()
    kind = draw(st.sampled_from(["delete", "duplicate", "swap", "ulp", "field"]))
    i = draw(st.integers(1, len(lines) - 1))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = draw(st.integers(1, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "ulp":
        i = draw(st.integers(1, sum(line.startswith("v ") for line in lines)))
        parts = lines[i].split()
        c = draw(st.integers(1, 2))
        parts[c] = repr(float(np.nextafter(float(parts[c]),
                                           draw(st.sampled_from([-np.inf, np.inf])))))
        lines[i] = " ".join(parts)
    else:
        i = draw(st.integers(len(lines) - len(forest.nodes) - forest.n_leaves,
                             len(lines) - 1))
        parts = lines[i].split()
        parts[draw(st.integers(1, len(parts) - 1))] = str(draw(st.sampled_from([2 ** 64, -5])))
        lines[i] = " ".join(parts)
    return kind, "\n".join(lines) + "\n"


# tokens that replace one field: each is outside the line grammar, or at its
# edge, in at least one directive
ODD_TOKENS = ["1_0", "+5", "-", "0x1", "1e999", "nan", "2**63", str(-2 ** 63), "9" * 18,
              "1" + "0" * 18, "-0", "007", "١", str(2 ** 63), "1" + "0" * 19]

# the writer's line grammar: a line in it holds values that `float` reads, for
# `v`, or ints below 10**18 in size, for `t` and `leaf`
LINE = re.compile(r"v( [0-9.e+-]+){2}|t( -?[0-9]+){4}|leaf -?[0-9]+")


def in_line_grammar(line):
    if not LINE.fullmatch(line):
        return False
    try:
        values = [float(s) if line[0] == "v" else int(s) for s in line.split(" ")[1:]]
    except ValueError:
        return False
    return line[0] == "v" or all(abs(x) < 10 ** 18 for x in values)


@st.composite
def token_mutated_mesh_text(draw):
    """The text of a random forest with one token or one separator changed,
    or one line moved among the others."""
    _, forest = draw(refined_forest())
    lines = mesh_to_text(forest).splitlines()
    kind = draw(st.sampled_from(["token", "plus", "underscore", "tab", "double space",
                                 "trailing space", "crlf", "crlf all", "blank", "move"]))
    i = draw(st.integers(0, len(lines) - 1))
    parts = lines[i].split(" ")
    j = draw(st.integers(1, len(parts) - 1))
    if kind == "token":
        parts[j] = draw(st.sampled_from(ODD_TOKENS))
    elif kind == "plus":  # the same value, unless the field is negative
        parts[j] = "+" + parts[j]
    elif kind == "underscore":  # the same value where the token has two digits in a row
        parts[j] = re.sub(r"(\d)(\d)", r"\1_\2", parts[j], count=1)
    elif kind in ("tab", "double space"):
        parts[j - 1] += "\t" if kind == "tab" else " "
    elif kind in ("trailing space", "crlf"):
        parts[-1] += " " if kind == "trailing space" else "\r"
    lines[i] = " ".join(parts)
    if kind == "blank":
        lines.insert(i, "")
    elif kind == "move":
        lines.insert(draw(st.integers(1, len(lines) - 1)), lines.pop(i))
    return ("\r\n" if kind == "crlf all" else "\n").join(lines) + "\n"


class TestLoader:
    @settings(max_examples=300, deadline=None)
    @given(token_mutated_mesh_text(), st.sampled_from([1, 2, 3, 7, engine._PIECE]))
    def test_token_changes_load_in_the_grammar_or_name_their_line(self, text, piece):
        # small pieces put piece edges next to the changed line
        with mock.patch.object(engine, "_PIECE", piece):
            try:
                got = column_bytes(mesh_from_text(text))
            except MeshFormatError as exc:
                got = str(exc)
        lines = text.splitlines()
        faults = [n for n, line in enumerate(lines[1:], start=2) if not in_line_grammar(line)]
        if faults and lines[0].strip() == engine.MESH_HEADER:
            assert isinstance(got, str) and got.startswith(f"line {faults[0]}: ")
            return
        try:
            want = column_bytes(reference_mesh_from_text(text))
        except MeshFormatError as exc:
            want = str(exc)
        assert got == want

    @settings(max_examples=60, deadline=None)
    @given(refined_forest())
    def test_matches_per_pair_reference(self, case):
        _, forest = case
        text = mesh_to_text(forest)
        assert column_bytes(mesh_from_text(text)) == \
            column_bytes(reference_mesh_from_text(text))

    @settings(max_examples=200, deadline=None)
    @given(corrupted_mesh_text())
    def test_corrupted_text_loads_the_same_or_names_a_line(self, case):
        _, text = case
        try:
            want = column_bytes(reference_mesh_from_text(text))
        except MeshFormatError as exc:
            want = str(exc)
        try:
            got = column_bytes(mesh_from_text(text))
        except MeshFormatError as exc:
            assert re.match(r"line \d+: ", str(exc))
            got = str(exc)
        if str(2 ** 64) in text:  # rejected where it is parsed, whatever the reference says
            assert isinstance(got, str) and isinstance(want, str)
        else:
            assert got == want

    def test_one_bisect_call_per_generation(self, monkeypatch):
        forest, _ = greedy_run(get_field("expbump"), count_config(200))
        text = mesh_to_text(forest)
        calls = collections.Counter()
        monkeypatch.setattr(engine, "bisect", counted(calls, "bisect", engine.bisect))
        monkeypatch.setattr(RefinementForest, "bisect_node",
                            counted(calls, "bisect_node", RefinementForest.bisect_node))
        mesh_from_text(text)
        assert calls["bisect_node"] == 0
        assert calls["bisect"] == forest.nodes["level"].max() == 10

    @pytest.mark.parametrize("row, line", [(5, "t 0 1 2 %d"), (6, "t 0 1 %d 0"),
                                           (9, "leaf %d")])
    def test_int_beyond_64_bits_names_its_line(self, row, line):
        lines = (BISECTED + "leaf 1\nleaf 2\n").splitlines()
        lines[row] = line % 2 ** 64
        with pytest.raises(MeshFormatError, match=f"line {row + 1}: "):
            mesh_from_text("\n".join(lines) + "\n")


def reference_mesh_to_text(forest):
    """The mesh writer as one f-string per line; vertices keyed by their bits."""
    number = {}
    node_lines = []
    for verts, parent in zip(forest.nodes["verts"].tolist(), forest.nodes["parent"].tolist()):
        i, j, k = (number.setdefault(struct.pack("<2d", x, y), len(number)) for x, y in verts)
        node_lines.append(f"t {i} {j} {k} {parent}")
    vert_lines = [f"v {format(x, '.17g')} {format(y, '.17g')}"
                  for x, y in (struct.unpack("<2d", b) for b in number)]
    leaf_lines = [f"leaf {i}" for i in forest.leaf_ids().tolist()]
    return "\n".join([engine.MESH_HEADER, *vert_lines, *node_lines, *leaf_lines]) + "\n"


class TestForestProperties:
    @settings(max_examples=40, deadline=None)
    @given(refined_forest())
    def test_mesh_text_matches_per_line_reference(self, case):
        _, forest = case
        assert mesh_to_text(forest) == reference_mesh_to_text(forest)

    @settings(max_examples=40, deadline=None)
    @given(refined_forest())
    def test_mesh_text_round_trip(self, case):
        _, forest = case
        text = mesh_to_text(forest)
        loaded = mesh_from_text(text)
        assert mesh_to_text(loaded) == text
        for name in ("verts", "parent", "level", "child"):
            assert np.array_equal(loaded.nodes[name], forest.nodes[name])

    @settings(max_examples=40, deadline=None)
    @given(refined_forest())
    def test_leaves_tile_the_roots(self, case):
        roots, forest = case
        leaves = list(map(Triangle, forest.leaf_vertex_array()))
        assert len(leaves) == forest.n_leaves
        assert sum(t.area for t in leaves) == \
            pytest.approx(sum(t.area for t in roots), rel=1e-12)
        assert np.array_equal(forest.leaf_vertex_array(),
                              forest.nodes["verts"][forest.leaf_ids()])

    @settings(max_examples=40, deadline=None)
    @given(refined_forest())
    def test_children_are_bisections(self, case):
        _, forest = case
        nodes = forest.nodes
        for i in np.flatnonzero(nodes["child"] >= 0):
            c = nodes["child"][i]
            pair = slice(c, c + 2)
            assert (nodes["parent"][pair] == i).all()
            assert (nodes["level"][pair] == nodes["level"][i] + 1).all()
            assert any(np.array_equal(np.stack(bisect(nodes["verts"][i], e)), nodes["verts"][pair])
                       for e in range(3))

