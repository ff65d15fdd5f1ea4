"""The batched greedy loop against the one-leaf-per-iteration loop it replays."""

import collections
import heapq
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import anisomesh
from anisomesh import approx, engine
from anisomesh.analysis import random_triangle
from anisomesh.approx import _CHUNK, local_error, local_errors
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
from anisomesh.geometry import Triangle

from test_engine import counted, record_bytes, reference_trace_record, traced_config

FIELDS = ["disk", "aniso-10", "aniso-100", "mixed-saddle", "expbump"]


def reference_greedy_run(f, config, record_at=None):
    """The greedy loop before batching: one leaf per iteration, each child
    scored on its own, each record re-measuring the leaves of the forest.

    The up-front node-cap checks of ``greedy_run`` are left out; the cases
    here stay clear of them.
    """
    forest = RefinementForest(initial_mesh(config.initial))
    stop = config.stop
    record_at = frozenset(int(n) for n in record_at) if record_at else frozenset()
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
        for child in forest.bisect_node(node_id, edge):
            push(child)
        step += 1
        n = forest.n_leaves
        traced_last = n <= 1024 or n & (n - 1) == 0 or n in record_at
        if traced_last:
            trace.append(reference_trace_record(forest, config.p, form, step))
    if not traced_last:
        trace.append(reference_trace_record(forest, config.p, form, step))
    return forest, trace


def assert_same_run(f, config, record_at=None):
    """``greedy_run`` makes the reference's nodes and trace records, as bytes,
    or raises its RunawayRefinementError; returns the forest or None."""
    try:
        want_forest, want_trace = reference_greedy_run(f, config, record_at)
    except RunawayRefinementError as exc:
        with pytest.raises(RunawayRefinementError) as got:
            greedy_run(f, config, record_at)
        assert str(got.value) == str(exc)
        return None
    forest, trace = greedy_run(f, config, record_at)
    assert forest.nodes.tobytes() == want_forest.nodes.tobytes()
    assert [record_bytes(r) for r in trace] == [record_bytes(r) for r in want_trace]
    return forest


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.integers(1, 2 * _CHUNK + 5),
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
    # fields, p, operators, decisions, all three stop rules, record_at and
    # node-cap failures
    f, config, record_at = case
    assert_same_run(f, config, record_at)


def test_rollbacks_keep_the_order(monkeypatch):
    rollbacks = collections.Counter()
    monkeypatch.setattr(RefinementForest, "_truncate",
                        counted(rollbacks, "truncate", RefinementForest._truncate))
    config = GreedyConfig(stop=StopRule("target-count", 1024), initial="unit-square")
    assert assert_same_run(get_field("expbump"), config, record_at=[700]) is not None
    assert rollbacks["truncate"] >= 1


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
    assert forest.nodes.tobytes() == want.nodes.tobytes()
    assert [record_bytes(r) for r in trace] == [record_bytes(r) for r in want_trace]


class RecordingHeap:
    """Stand-in for ``engine.heapq`` that records the ids pushed."""

    def __init__(self):
        self.pushed = []

    def heappush(self, heap, entry):
        self.pushed.append(entry[1])
        heapq.heappush(heap, entry)

    def heappop(self, heap):
        return heapq.heappop(heap)


@pytest.mark.parametrize("levels", [0, 6])
def test_leaves_at_the_generation_limit_never_enter_the_heap(monkeypatch, levels):
    # roots and children are filtered where they are pushed: nothing is
    # popped only to be dropped
    recorder = RecordingHeap()
    monkeypatch.setattr(engine, "heapq", recorder)
    config = GreedyConfig(stop=StopRule("generation-levels", levels), initial="unit-square")
    forest = assert_same_run(get_field("aniso-100"), config)
    assert forest.n_leaves == 2 * 2 ** levels
    assert set(np.flatnonzero(forest.nodes["child"] >= 0).tolist()) <= set(recorder.pushed)
    assert (forest.nodes["level"][np.array(recorder.pushed, int)] < levels).all()


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
