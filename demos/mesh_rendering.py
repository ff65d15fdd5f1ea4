"""
Mesh serialization and SVG export, including the saddle-metric gallery.

Produces three figures under demos/output/: a metric-adapted mesh colored
by sigma_q, the same mesh colored by local error, and a mesh refined for
the mixed-sign saddle x^2 - y^2 (a geometry showcase: the optimal
triangles are anisotropic half-squares sheared along the null directions,
so the greedy mesh tiles the domain with them).
"""
import os

from anisomesh import GreedyConfig, StopRule, get_field, greedy_run, save_mesh
from anisomesh.approx import local_errors
from anisomesh.cli import mesh_to_svg
from anisomesh.engine import load_mesh
from anisomesh.geometry import sigma_batch

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)


def write(name, text):
    path = os.path.join(OUT, name)
    with open(path, "w") as fh:
        fh.write(text)
    print("wrote", path)


# --- an adapted mesh, round-tripped through the text format ---
f = get_field("aniso-10")
forest, _ = greedy_run(f, GreedyConfig(
    p=2.0, stop=StopRule("target-count", 512), initial="unit-square"))
mesh_path = os.path.join(OUT, "aniso10_mesh.txt")
save_mesh(forest, mesh_path)
forest = load_mesh(mesh_path)  # rendering works off the serialized form
print(f"mesh round trip: {forest.n_leaves} leaves, "
      f"{len(forest.nodes)} nodes, {forest.n_roots} roots")

sigmas = sigma_batch(f.form, forest.leaf_vertex_array())
print(f"sigma_q over leaves: min {sigmas.min():.3f} max {sigmas.max():.3f} "
      f"(1 = ideal aspect ratio)")
write("aniso10_sigma.svg", mesh_to_svg(forest, sigmas, legend="sigma_q"))

errors = local_errors(forest.leaf_vertex_array(), f, 2.0)
write("aniso10_error.svg", mesh_to_svg(forest, errors, legend="local L2 error"))

# --- the mixed-sign saddle: geometry showcase only ---
saddle = get_field("mixed-saddle")
sforest, _ = greedy_run(saddle, GreedyConfig(
    p=1.0, stop=StopRule("target-count", 512), initial="unit-square"))
write("saddle_mesh.svg", mesh_to_svg(sforest))
print("\nthe saddle mesh shows strongly sheared triangles hugging the")
print("null directions x = +-y; convergence suites exclude this field")
print("(its form is indefinite), but the decision function still works.")
