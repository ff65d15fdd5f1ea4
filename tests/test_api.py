"""The public surface: every exported name resolves, retired names stay gone."""

import importlib

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
    ("approx", "decision_gain_convex"),
    ("approx", "_operator_node_values"),
    ("approx", "_projection_local"),
    ("approx", "_check_shape"),
    ("engine", "select_triangle"),
    ("engine", "leaf_error"),
    ("engine", "_global_error_from_caches"),
])
def test_retired_names_are_gone(name, attr):
    module = importlib.import_module(f"anisomesh.{name}")
    assert not hasattr(module, attr)
    assert not hasattr(anisomesh, attr)


def test_retired_attributes_are_gone():
    assert not hasattr(anisomesh.Triangle, "edge_endpoints")
    forest = anisomesh.RefinementForest(anisomesh.engine.initial_mesh("ref-triangle"))
    assert not hasattr(forest, "error_config")
