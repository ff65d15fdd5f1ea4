"""The public surface: every exported name resolves, retired names stay gone."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import anisomesh

MODULES = ["geometry", "fields", "approx", "engine", "analysis", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"anisomesh.{name}")
    for attr in getattr(module, "__all__", []):
        assert hasattr(module, attr), f"anisomesh.{name}.{attr}"


def test_package_all_resolves():
    for attr in anisomesh.__all__:
        assert hasattr(anisomesh, attr), attr
    assert "local_errors" in anisomesh.__all__


@pytest.mark.parametrize("name, attr", [
    ("geometry", "q_eval"),
    ("geometry", "edges"),
    ("geometry", "rho_batch"),
    ("geometry", "cross2"),
    ("approx", "_NEXT"),
    ("approx", "_PREV"),
    ("approx", "EDGE_MIDPOINT_RULE"),
    ("approx", "decision_gain_convex"),
    ("approx", "_operator_node_values"),
    ("approx", "_projection_local"),
    ("approx", "_project"),
    ("approx", "_check_shape"),
    ("approx", "_NODE_CACHE"),
    ("approx", "_error_nodes"),
    ("approx", "decision_gain_quadrature"),
    ("approx", "local_error_quadratic_exact"),
    ("approx", "QuadratureRule"),
    ("approx", "DEFAULT_RULE"),
    ("approx", "_symmetric_rule"),
    ("approx", "_subdivided"),
    ("fields", "hessian_fd"),
    ("engine", "select_triangle"),
    ("engine", "leaf_error"),
    ("engine", "_global_error_from_caches"),
    ("engine", "ForestNode"),
    ("engine", "max_leaf_diameter"),
    ("analysis", "_uniform_background"),
    ("analysis", "hessian_oscillation"),
    ("analysis", "_FormRows"),
])
def test_retired_names_are_gone(name, attr):
    module = importlib.import_module(f"anisomesh.{name}")
    assert not hasattr(module, attr)
    assert not hasattr(anisomesh, attr)


def test_retired_attributes_are_gone():
    assert not hasattr(anisomesh.Triangle, "edge_endpoints")
    assert not hasattr(anisomesh.QuadForm, "compose_linear")
    forest = anisomesh.RefinementForest(anisomesh.engine.initial_mesh("ref-triangle"))
    assert not hasattr(forest, "error_config")
    assert not hasattr(forest, "is_leaf")
    assert not hasattr(forest, "roots")
    assert not hasattr(forest, "leaf_triangles")
    quadratics = [f for f in anisomesh.builtin_catalog()
                  if isinstance(f, anisomesh.QuadraticField)]
    assert quadratics
    assert not any(hasattr(f, "form_coeffs") for f in quadratics)
    assert not hasattr(anisomesh.SigmaStats, "threshold")


@pytest.mark.parametrize("name", ["local_errors", "local_error", "decision_l1",
                                  "decision_lp_split", "project_l2"])
def test_error_quadrature_is_not_an_option(name):
    params = inspect.signature(getattr(anisomesh.approx, name)).parameters
    assert "rule" not in params and "subdiv" not in params


def test_sigma_study_takes_no_config():
    assert "config" not in inspect.signature(anisomesh.sigma_study).parameters


def test_rate_study_inputs_take_no_options():
    # the study reads its checkpoints from the run's forest, and its target
    # integrates on a fixed background mesh of the roots
    assert list(inspect.signature(anisomesh.greedy_run).parameters) == ["f", "config"]
    assert list(inspect.signature(anisomesh.hessian_tau_norm).parameters) == \
        ["f", "roots", "tau"]


def benchmark_tracer():
    """The benchmark's tracer module, which lives outside the test paths."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_hooks_resolve():
    # the benchmark's tracer rebinds package functions by name and raises
    # KeyError when one is gone
    before = anisomesh.engine.select_edge
    with benchmark_tracer().Tracer().installed():
        assert anisomesh.engine.select_edge is not before
    assert anisomesh.engine.select_edge is before


def test_benchmark_trace_counts_hold_for_a_greedy_run():
    # the benchmark's traced run requires both children of every
    # ``bisect_node`` call to be scored through ``approx.local_error``
    tracer = benchmark_tracer().Tracer()
    config = anisomesh.GreedyConfig(stop=anisomesh.StopRule("target-count", 64),
                                    initial="unit-square")
    with tracer.installed(), tracer.root("op.refine"):
        forest, trace = anisomesh.greedy_run(anisomesh.get_field("expbump"), config)
    counts = tracer.root_counts["op.refine"]
    # ``engine.trace.records`` counts one ``_trace_record`` call per record
    assert counts["engine.trace.calls"] == len(trace)
    assert counts["engine.bisect_node.calls"] >= 1
    assert counts["approx.local_error.calls"] >= 2 * counts["engine.bisect_node.calls"]
    # every step of the run is one bisection in the forest
    assert (forest.nodes["child"] >= 0).sum() == 64 - forest.n_roots
