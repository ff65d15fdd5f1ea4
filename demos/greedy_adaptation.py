"""
Greedy refinement adapted to a strictly convex field.

Runs the greedy loop on f = exp(x^2 + 2 y^2) over the unit square: at each
step the leaf with the largest local L2 interpolation error is bisected
along the edge that maximizes the L1 error reduction.  The trace shows the
error falling like 1/N while the largest triangle diameter shrinks, and
the product N * error flattens out.  Writes the final mesh and an SVG
colored by local error next to this script.
"""
import os

from anisomesh import GreedyConfig, StopRule, get_field, greedy_run, save_mesh
from anisomesh.cli import mesh_to_svg
from anisomesh.approx import local_errors

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

f = get_field("expbump")
config = GreedyConfig(p=2.0, operator="interpolation", decision="l1-interp",
                      stop=StopRule("target-count", 2048), initial="unit-square")
forest, trace = greedy_run(f, config)

print(f"greedy refinement of {f.label!r} to {forest.n_leaves} triangles")
print(f"{'N':>6} {'global L2 error':>16} {'N * error':>10} {'max diam':>9}")
for rec in trace:
    if rec.n_leaves in (2, 8, 32, 128, 512, 2048):
        print(f"{rec.n_leaves:>6} {rec.global_error:>16.6e} "
              f"{rec.n_leaves * rec.global_error:>10.4f} {rec.max_diam:>9.4f}")

print("\nerror equidistribution: the greedy loop keeps all local errors")
errs = sorted(forest.nodes["error"][forest.leaf_ids()])
print(f"comparable; leaf error spread = {errs[-1] / errs[0]:.1f}x "
      f"(min {errs[0]:.2e}, max {errs[-1]:.2e})")

mesh_path = os.path.join(OUT, "expbump_mesh.txt")
save_mesh(forest, mesh_path)
values = local_errors(forest.leaf_vertex_array(), f, 2.0)
svg_path = os.path.join(OUT, "expbump_error.svg")
with open(svg_path, "w") as fh:
    fh.write(mesh_to_svg(forest, values, legend="local L2 error"))
print(f"\nwrote {mesh_path}")
print(f"wrote {svg_path} (triangles elongate along the level sets of f)")
