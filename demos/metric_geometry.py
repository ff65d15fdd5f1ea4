"""
Quadratic-form metrics on triangles and the bisection primitive.

Walks through the geometric toolkit: evaluating a form, the induced
metric, the shape measures rho_q and sigma_q, canonical coordinates, and
how repeated q-longest-edge bisection drives a badly shaped triangle
toward the ideal aspect ratio (sigma_q -> 1).
"""
import numpy as np

from anisomesh import (
    QuadForm,
    Triangle,
    bisect,
    canonical_transform,
    psi,
    q_abs,
    q_longest_edge_index,
    q_metric,
    reference_triangle,
    rho,
    sigma,
)

# --- A strongly anisotropic metric ---
q = QuadForm(1.0, 0.0, 25.0)  # q(x, y) = x^2 + 25 y^2
print("form:", q, "det:", q.det, "class:", q.classify())
print("euclidean unit vectors measured in the q-metric:")
print(f"  |(1,0)|_q = {q_metric(q, (1, 0)):.3f}   |(0,1)|_q = {q_metric(q, (0, 1)):.3f}")

L, eps = canonical_transform(q)
print("canonical transform L (maps the unit disk of q to the euclidean one):")
print(np.round(L, 4), "with L^T Q L = eps*I, eps =", eps)

# --- Shape measures: the same triangle under two metrics ---
t = reference_triangle()
print("\nreference triangle under the euclidean metric:",
      f"rho = {rho(QuadForm(1, 0, 1), t):.3f}, sigma = {sigma(QuadForm(1, 0, 1), t):.3f}")
print("reference triangle under q = x^2 + 25 y^2:     ",
      f"rho = {rho(q, t):.3f}, sigma = {sigma(q, t):.3f}")
print("(sigma = 1 is optimal; the q-metric sees this triangle as badly stretched)")

# --- Indefinite forms still measure non-degeneracy through |q| ---
saddle = QuadForm(1.0, 0.0, -1.0)
print("\nsaddle form x^2 - y^2: rho on the reference triangle =",
      f"{rho(saddle, t):.3f} (minimal value 2, attained by half-squares)")
print("|q| of the saddle:", q_abs(saddle))

# --- Bisection from an edge midpoint to the opposite vertex ---
big = Triangle([(0, 0), (2, 0), (0, 2)])
c1, c2 = map(Triangle, bisect(big.vertices, 0))
print("\nbisecting the hypotenuse of", big)
print("  children:", c1, "and", c2, "(equal areas:", c1.area, c2.area, ")")

# --- psi: keep the child holding the q-shortest edge; sigma decays ---
print("\nq-longest-edge bisection drives sigma_q down (psi iterates):")
tri = t
print(f"  start:  sigma_q = {sigma(q, tri):8.3f}  rho_q = {rho(q, tri):8.3f}")
for step in range(1, 9):
    tri = psi(q, tri)
    print(f"  psi^{step}:  sigma_q = {sigma(q, tri):8.3f}  rho_q = {rho(q, tri):8.3f}")
print("sigma_q settles near its minimum 1: the triangles are now")
print("near-equilateral in the q-metric even though they look thin.")

# --- The bisected edge is always the q-longest one ---
tri = reference_triangle()
idx = q_longest_edge_index(q, tri)
print(f"\nq-longest edge of the reference triangle: index {idx}, "
      f"edge vector {tri.edge_vector(idx)}")
