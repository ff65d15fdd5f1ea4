"""The batched greedy loop against the one-leaf-per-iteration loop it replays."""

import collections
import heapq
import math
import os
import subprocess
import sys
import textwrap
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import anisomesh
from anisomesh import approx, engine
from anisomesh.analysis import random_triangle
from anisomesh.approx import local_error, local_errors
from anisomesh.engine import (
    GreedyConfig,
    RefinementForest,
    RunawayRefinementError,
    StopRule,
    greedy_run,
    initial_mesh,
    select_edge,
)
from anisomesh.fields import get_field
from anisomesh.geometry import Triangle, areas_of, edge_vectors_of

from test_engine import (column_bytes, column_sizes, counted, record_bytes,
                         reference_trace_record, traced_config)

FIELDS = ["disk", "aniso-10", "aniso-100", "mixed-saddle", "expbump"]


def reference_greedy_run(f, config):
    """The greedy loop before batching: one leaf per iteration, each child
    scored on its own, each record re-measuring the leaves of the forest.

    The up-front node-cap checks of ``greedy_run`` are left out; the cases
    here stay clear of them.
    """
    forest = RefinementForest(initial_mesh(config.initial))
    stop = config.stop
    form = getattr(f, "form", None)
    if form is not None and not form.is_positive_definite:
        form = None
    heap = []

    def push(node_id):
        err = local_error(Triangle(forest.nodes["verts"][node_id]), f, config.p,
                          config.operator)
        forest.nodes["error"][node_id] = err
        heapq.heappush(heap, (-err, node_id))

    for i in range(forest.n_roots):
        push(i)
    trace = [reference_trace_record(forest, config.p, form, 0)]
    step = 0
    traced_last = True
    while True:
        if stop.kind == "target-count":
            if forest.n_leaves >= int(stop.value):
                break
        elif stop.kind == "error-threshold":
            if -heap[0][0] <= stop.value:
                break
        else:
            while heap and forest.nodes["level"][heap[0][1]] >= int(stop.value):
                heapq.heappop(heap)
            if not heap:
                break
        if len(forest.nodes) + 2 > config.node_cap:
            raise RunawayRefinementError(
                f"node cap {config.node_cap} reached at {forest.n_leaves} leaves")
        _, node_id = heapq.heappop(heap)
        edge = select_edge(forest.nodes["verts"][node_id], f, config)
        for child in forest.bisect_node(np.array([node_id]), np.array([edge])):
            push(int(child[0]))
        step += 1
        n = forest.n_leaves
        traced_last = n <= 1024 or n & (n - 1) == 0
        if traced_last:
            trace.append(reference_trace_record(forest, config.p, form, step))
    if not traced_last:
        trace.append(reference_trace_record(forest, config.p, form, step))
    return forest, trace


def assert_same_run(f, config):
    """``greedy_run`` makes the reference's nodes and trace records, as bytes,
    or raises its RunawayRefinementError; returns the forest or None."""
    try:
        want_forest, want_trace = reference_greedy_run(f, config)
    except RunawayRefinementError as exc:
        with pytest.raises(RunawayRefinementError) as got:
            greedy_run(f, config)
        assert str(got.value) == str(exc)
        return None
    forest, trace = greedy_run(f, config)
    assert column_bytes(forest) == column_bytes(want_forest)
    assert [record_bytes(r) for r in trace] == [record_bytes(r) for r in want_trace]
    return forest


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.integers(1, 2 * (approx._POINTS // len(approx._ERROR_NODES)) + 5),
       st.sampled_from(FIELDS),
       st.sampled_from([1.0, 2.0, 3.5, math.inf]),
       st.sampled_from(approx.OPERATORS),
       st.sampled_from(engine.DECISIONS))
def test_batch_rows_equal_one_row_results(seed, n, label, p, op, decision):
    # the premise of the batched loop: a leaf's error and edge do not depend
    # on the batch it is computed in
    rng = np.random.default_rng(seed)
    verts = np.array([random_triangle(rng).vertices for _ in range(n)])
    f = get_field(label)
    errs = local_errors(verts, f, p, op)
    assert errs.tobytes() == np.array([local_error(v, f, p, op) for v in verts]).tobytes()
    # convex gains (expbump, disk, aniso), quadrature L1 (mixed-saddle), lp-split
    config = GreedyConfig(p=p, operator=op, decision=decision)
    assert select_edge(verts, f, config).tolist() == [select_edge(v, f, config) for v in verts]


def test_local_error_takes_one_triangle_or_a_batch():
    t = initial_mesh("ref-triangle")[0]
    f = get_field("disk")
    one = local_error(t, f, 2.0)
    assert type(one) is float and one == local_error(t.vertices, f, 2.0)
    batch = local_error(t.vertices[None], f, 2.0)
    assert isinstance(batch, np.ndarray) and batch.tolist() == [one]


@settings(max_examples=60, deadline=None)
@given(traced_config())
def test_matches_one_leaf_loop(case):
    # fields, p, operators, decisions, all three stop rules and node-cap
    # failures
    f, config = case
    assert_same_run(f, config)


def test_rollbacks_keep_the_order(monkeypatch):
    # some batch keeps fewer steps than it scored; only the kept ones are bisected
    batches = []  # [leaves scored, steps bisected] per batch of greedy_run
    real_select, real_bisect = engine.select_edge, RefinementForest.bisect_node

    def select_edge(verts, f, config):
        batches.append([len(verts), 0])
        return real_select(verts, f, config)

    def bisect_node(forest, ids, edges, **kw):
        batches[-1][1] = len(ids)
        return real_bisect(forest, ids, edges, **kw)

    f = get_field("expbump")
    config = GreedyConfig(stop=StopRule("target-count", 1024), initial="unit-square")
    with monkeypatch.context() as patch:
        patch.setattr(engine, "select_edge", select_edge)
        patch.setattr(RefinementForest, "bisect_node", bisect_node)
        forest, _ = greedy_run(f, config)
    assert any(bisected < scored for scored, bisected in batches)
    assert all(bisected >= 1 for _, bisected in batches)
    assert column_bytes(forest) == column_bytes(assert_same_run(f, config))


def test_steps_not_kept_reserve_no_rows(monkeypatch):
    # the run above has batches cut short: every row reserved after the roots
    # is a node of the finished forest
    reserved = []
    real = RefinementForest._reserve
    monkeypatch.setattr(RefinementForest, "_reserve",
                        lambda forest, count: reserved.append(count) or real(forest, count))
    config = GreedyConfig(stop=StopRule("target-count", 1024), initial="unit-square")
    forest, _ = greedy_run(get_field("expbump"), config)
    assert reserved[0] == forest.n_roots
    assert sum(reserved[1:]) == len(forest.nodes) - forest.n_roots


def test_an_error_threshold_run_grows_its_columns(monkeypatch):
    # its final node count is not known ahead: the columns double as it grows,
    # and the forest is still the one-leaf loop's
    f = get_field("disk")
    config = GreedyConfig(stop=StopRule("error-threshold", 2e-4), initial="unit-square")
    with monkeypatch.context() as patch:
        sizes = column_sizes(patch)
        forest, _ = greedy_run(f, config)
    assert len(sizes) > 3
    assert all(b == 2 * a for a, b in zip(sizes, sizes[1:]))
    assert sizes[-2] < len(forest.nodes) <= sizes[-1]
    assert column_bytes(forest) == column_bytes(assert_same_run(f, config))


@pytest.mark.parametrize("label", ["disk", "expbump"])
@pytest.mark.parametrize("node_cap", [1000, 1001])
def test_node_cap_reached_at_the_same_leaf_count(label, node_cap):
    # one root: n leaves take 2 n - 1 nodes
    config = GreedyConfig(stop=StopRule("error-threshold", 1e-12), node_cap=node_cap)
    with pytest.raises(RunawayRefinementError,
                       match=f"node cap {node_cap} reached at {(node_cap + 1) // 2} leaves"):
        greedy_run(get_field(label), config)
    assert_same_run(get_field(label), config)


def test_failure_on_a_leaf_the_one_leaf_loop_never_splits(monkeypatch):
    # at 31 leaves the last batch scores children that the one-leaf loop
    # never makes; were they to fail, the run must still end as that loop does
    f = get_field("expbump")
    config = GreedyConfig(stop=StopRule("target-count", 31), initial="unit-square")
    want, want_trace = reference_greedy_run(f, config)
    made = {v.tobytes() for v in want.nodes["verts"]}
    failed = collections.Counter()
    real = approx.local_error

    def fails_off_the_reference(t, *args):
        if any(v.tobytes() not in made for v in np.asarray(t).reshape(-1, 3, 2)):
            failed["batches"] += 1
            raise ValueError("not finite")
        return real(t, *args)

    monkeypatch.setattr(approx, "local_error", fails_off_the_reference)
    forest, trace = greedy_run(f, config)
    assert failed["batches"] >= 1
    assert column_bytes(forest) == column_bytes(want)
    assert [record_bytes(r) for r in trace] == [record_bytes(r) for r in want_trace]


@pytest.mark.parametrize("levels", [0, 6])
def test_leaves_at_the_generation_limit_never_enter_the_heap(monkeypatch, levels):
    # only leaves below the limit are selected: none at the limit has its edge
    # chosen or is bisected, not even in a step that is not kept
    chosen, picked = [], []
    real_select, real_bisect = engine.select_edge, RefinementForest.bisect_node

    def select_edge(verts, f, config):
        chosen.append(np.array(verts))
        return real_select(verts, f, config)

    def bisect_node(forest, ids, edges, **kw):
        # a prefix of the leaves whose edges were just chosen
        assert forest.nodes["verts"][ids].tobytes() == chosen[-1][:len(ids)].tobytes()
        picked.extend(forest.nodes["level"][ids].tolist())
        return real_bisect(forest, ids, edges, **kw)

    f = get_field("aniso-100")
    config = GreedyConfig(stop=StopRule("generation-levels", levels), initial="unit-square")
    with monkeypatch.context() as patch:
        patch.setattr(engine, "select_edge", select_edge)
        patch.setattr(RefinementForest, "bisect_node", bisect_node)
        forest, _ = greedy_run(f, config)
    assert forest.n_leaves == 2 * 2 ** levels
    assert len(picked) >= (len(forest.nodes) - forest.n_roots) // 2
    assert all(level < levels for level in picked)
    # a leaf of generation j from the unit square has area 2 ** -(j + 1), exactly
    assert all((areas_of(edge_vectors_of(v)) > 2.0 ** -(levels + 1)).all() for v in chosen)
    assert column_bytes(forest) == column_bytes(assert_same_run(f, config))


@pytest.mark.parametrize("max_batch", [2, 5])
@settings(max_examples=30, deadline=None)
@given(case=traced_config())
def test_matches_one_leaf_loop_with_small_batch_caps(max_batch, case):
    # a small floor lets runs of a few hundred leaves grow the cap past it and
    # roll back large batches
    f, config = case
    with mock.patch.object(engine, "_MAX_BATCH", max_batch):
        assert_same_run(f, config)


def test_ties_across_the_batch_boundary(monkeypatch):
    # disk on the unit square makes equal errors: some batches end inside a
    # group of tied leaves, whose earliest ids must be the ones taken
    straddled = []
    real = RefinementForest.bisect_node

    def bisect_node(forest, ids, edges, **kw):
        err = forest.nodes["error"]
        left = np.setdiff1d(forest.leaf_ids(), ids)
        tie = err[left] == err[ids[-1]]
        if tie.any():
            assert (left[tie] > ids[err[ids] == err[ids[-1]]].max()).all()
            straddled.append((np.count_nonzero(err[ids] == err[ids[-1]]), tie.sum()))
        return real(forest, ids, edges, **kw)

    f = get_field("disk")
    config = GreedyConfig(stop=StopRule("target-count", 300), initial="unit-square")
    with monkeypatch.context() as patch:
        patch.setattr(RefinementForest, "bisect_node", bisect_node)
        forest, trace = greedy_run(f, config)
    assert any(inside > 1 and outside > 1 for inside, outside in straddled)
    want_forest, want_trace = reference_greedy_run(f, config)
    assert column_bytes(forest) == column_bytes(want_forest)
    assert [record_bytes(r) for r in trace] == [record_bytes(r) for r in want_trace]


def test_few_batched_calls_per_run(monkeypatch):
    calls = collections.Counter()
    monkeypatch.setattr(engine, "select_edge",
                        counted(calls, "select_edge", engine.select_edge))
    monkeypatch.setattr(RefinementForest, "bisect_node",
                        counted(calls, "bisect_node", RefinementForest.bisect_node))
    monkeypatch.setattr(approx, "local_error", counted(calls, "local_error", local_error))
    config = GreedyConfig(stop=StopRule("target-count", 4096), initial="unit-square")
    forest, _ = greedy_run(get_field("expbump"), config)
    bisections = (len(forest.nodes) - forest.n_roots) // 2
    assert bisections == 4094
    assert calls["select_edge"] == calls["bisect_node"] <= bisections // 100
    # the roots in one call, then both children of each batch
    assert calls["local_error"] == 2 * calls["bisect_node"] + 1


def test_batch_cap_grows_with_the_mesh(monkeypatch):
    # each batch scans every node, so past 16 * 1024 leaves batches must grow
    # with the mesh; a fixed cap of 1024 reaches it after 10 doublings (1023
    # steps) and then bisects at most 1024 leaves per call
    sizes = []
    real = RefinementForest.bisect_node
    monkeypatch.setattr(RefinementForest, "bisect_node",
                        lambda forest, ids, edges, **kw: sizes.append(len(ids))
                        or real(forest, ids, edges, **kw))
    config = GreedyConfig(stop=StopRule("target-count", 2 ** 15))
    forest, _ = greedy_run(get_field("aniso-10"), config)
    bisections = (len(forest.nodes) - forest.n_roots) // 2
    assert max(sizes) > engine._MAX_BATCH
    assert len(sizes) < 10 + math.ceil((bisections - 1023) / engine._MAX_BATCH)


def test_run_and_mesh_round_trip_leave_numpy_ma_unloaded():
    # numpy.ma costs about 1.3 MB of resident memory once imported
    code = textwrap.dedent("""
        import sys
        from anisomesh import engine, fields
        config = engine.GreedyConfig(stop=engine.StopRule("target-count", 300),
                                     initial="unit-square")
        forest, _ = engine.greedy_run(fields.get_field("expbump"), config)
        engine.mesh_from_text(engine.mesh_to_text(forest))
        print("numpy.ma" in sys.modules)
    """)
    src = os.path.dirname(os.path.dirname(anisomesh.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
