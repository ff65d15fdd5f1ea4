"""Refinement forest, greedy loop, stop rules and mesh serialization."""

import math

import numpy as np
import pytest

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
    max_leaf_diameter,
    mesh_from_text,
    mesh_to_text,
    save_mesh,
    select_edge,
    uniform_refine,
)
from anisomesh.fields import QuadraticField, ScalarField, get_field
from anisomesh.geometry import QuadForm, Triangle, q_longest_edge_index, sigma

from test_geometry import random_pd_form, random_triangle

DISK = QuadraticField("disk", 1.0, 0.0, 1.0)
AFFINE = ScalarField("plane", lambda x, y: 1.0 + 2.0 * x - 1.0 * y,
                     convexity="convex")


def count_config(n, **kw):
    return GreedyConfig(stop=StopRule("target-count", n), **kw)


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
        for node in forest.nodes:
            if node.children is not None:
                a = sum(forest.nodes[c].triangle.area for c in node.children)
                assert a == pytest.approx(node.triangle.area, rel=1e-10)

    def test_cache_coherence(self):
        cfg = count_config(50, p=2.0)
        forest, _ = greedy_run(DISK, cfg)
        for i in forest.leaf_ids():
            node = forest.nodes[i]
            recomputed = local_error(node.triangle, DISK, cfg.p, cfg.operator)
            assert abs(node.error - recomputed) <= 1e-12 * max(recomputed, 1e-300)

    def test_double_bisection_rejected(self):
        forest = RefinementForest(initial_mesh("ref-triangle"))
        forest.bisect_node(0, 0)
        with pytest.raises(ValueError):
            forest.bisect_node(0, 1)


class TestSelectTriangle:
    """The greedy loop bisects the maximal-error leaf, earliest id on ties."""

    def test_max_and_tie(self):
        # the two unit-square roots have equal errors under the disk field
        errs = [local_error(t, DISK, 2.0) for t in initial_mesh("unit-square")]
        assert errs[0] == errs[1]
        forest, _ = greedy_run(DISK, count_config(3, initial="unit-square"))
        assert forest.nodes[0].children == (2, 3)
        assert forest.nodes[1].children is None

    def test_matches_heap_selection(self):
        # brute-force max over the leaves of a 40-leaf run is the leaf the
        # heap bisects in step 40
        forest, _ = greedy_run(DISK, count_config(40))
        errs = {i: forest.nodes[i].error for i in forest.leaf_ids()}
        top = max(errs.values())
        best = min(i for i, e in errs.items() if e == top)
        nxt, _ = greedy_run(DISK, count_config(41))
        assert nxt.nodes[best].children == (len(forest.nodes), len(forest.nodes) + 1)


class TestSelectEdge:
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
            assert select_edge(t, f, cfg) == q_longest_edge_index(q, t)

    def test_affine_tie_rule(self):
        # integer-valued affine field: all gains are exactly zero
        flat = ScalarField("flat", lambda x, y: 2.0 * x + 4.0 * y,
                           convexity="convex")
        t = Triangle([(0, 0), (1, 0), (0, 1)])
        assert select_edge(t, flat, GreedyConfig()) == 0

    def test_lp_split_decision(self):
        cfg = GreedyConfig(decision="lp-split", p=2.0)
        assert select_edge(initial_mesh("ref-triangle")[0], DISK, cfg) == 0


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
            levels = {forest.nodes[i].level for i in forest.leaf_ids()}
            assert max(levels) - min(levels) <= 1
            assert max(levels) == k

    def test_error_threshold_stop(self):
        eta = 2e-4
        cfg = GreedyConfig(p=2.0, stop=StopRule("error-threshold", eta))
        forest, _ = greedy_run(DISK, cfg)
        for i in forest.leaf_ids():
            assert forest.nodes[i].error <= eta
        for node in forest.nodes:
            if node.children is not None:
                assert node.error > eta

    def test_generation_levels_matches_uniform(self):
        cfg = GreedyConfig(stop=StopRule("generation-levels", 3))
        forest, _ = greedy_run(DISK, cfg)
        assert forest.n_leaves == 8
        assert {forest.nodes[i].level for i in forest.leaf_ids()} == {3}
        uni = uniform_refine(RefinementForest(initial_mesh("ref-triangle")),
                             DISK, GreedyConfig(), 3)
        # same leaf set; creation order differs (error order vs id order)
        key = lambda t: t.vertices.tobytes()
        assert sorted(map(key, forest.leaf_triangles())) == \
            sorted(map(key, uni.leaf_triangles()))

    def test_target_below_roots_rejected(self):
        with pytest.raises(ValueError):
            greedy_run(DISK, count_config(1, initial="unit-square"))

    def test_node_cap(self):
        with pytest.raises(RunawayRefinementError):
            greedy_run(DISK, count_config(64, node_cap=16))

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


class TestUniformRefine:
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
        for t in forest.leaf_triangles():
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
            svals = [sigma(q, t) for t in forest.leaf_triangles()]
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
        direct = (sum(local_error(t, DISK, 1) for t in forest.leaf_triangles()))
        assert global_error(forest, DISK, 1) == pytest.approx(direct, rel=1e-12)

    def test_diameter_shrinks(self):
        f = get_field("disk")
        _, trace = greedy_run(f, count_config(512))
        diam = {r.n_leaves: r.max_diam for r in trace}
        assert diam[512] < diam[64]


class TestSerialization:
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
        for a, b in zip(forest.nodes, loaded.nodes):
            assert np.array_equal(a.triangle.vertices, b.triangle.vertices)
            assert a.parent == b.parent and a.level == b.level

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


def test_max_leaf_diameter():
    forest = RefinementForest(initial_mesh("unit-square"))
    assert max_leaf_diameter(forest) == pytest.approx(math.sqrt(2.0))
