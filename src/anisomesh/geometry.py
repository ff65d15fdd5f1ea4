"""Triangles, quadratic forms and the metric-based shape measures.

A triangle with vertices ``(z0, z1, z2)`` carries the edge vectors

    a = z2 - z1,   b = z0 - z2,   c = z1 - z0,

so that ``a + b + c = 0``; edge ``i`` is the one opposite vertex ``z_i``.
A symmetric quadratic form ``q`` induces the metric ``|v|_q = sqrt(|q(v)|)``
and the two non-degeneracy measures ``rho_q`` and ``sigma_q`` that quantify
how far a triangle is from the ideal aspect ratio in that metric.  The
bisection primitive splits a triangle from an edge midpoint to the
opposite vertex; ``psi_q`` composes it with the q-longest-edge choice.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "Triangle",
    "QuadForm",
    "reference_triangle",
    "q_metric",
    "q_abs",
    "canonical_transform",
    "rho",
    "sigma",
    "bisect",
    "psi",
    "delta",
    "q_longest_edge_index",
    "q_sorted_edge_indices",
    "edge_vectors_of",
    "areas_of",
    "sigma_batch",
]

# Relative tolerance for "equal q-length" ties in edge selection.
TIE_RTOL = 1e-12
# |det q| up to DEGENERATE_RTOL * scale**2 is treated as degenerate.
DEGENERATE_RTOL = 1e-14

# The edge labels: edge i runs from vertex NEXT[i] = i+1 to PREV[i] = i+2.
NEXT, PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def edge_vectors_of(verts) -> np.ndarray:
    """Edge vectors of one vertex array (3, 2) or of a batch (..., 3, 2).

    Row ``i`` of each triangle is edge ``i`` of the a, b, c convention.
    """
    verts = np.asarray(verts, dtype=float)
    return verts.take(PREV, axis=-2) - verts.take(NEXT, axis=-2)


def areas_of(e: np.ndarray) -> np.ndarray:
    """Signed areas ``c x (-b) / 2`` from edge_vectors_of (..., 3, 2); > 0 if CCW."""
    return 0.5 * (e[..., 2, 1] * e[..., 1, 0] - e[..., 2, 0] * e[..., 1, 1])


class Triangle:
    """Immutable counter-clockwise triangle.

    Parameters
    ----------
    vertices : array_like, shape (3, 2)
        The vertices ``(z0, z1, z2)``.  Must be finite, with finite edge
        vectors and area, and in counter-clockwise order (strictly
        positive signed area).
    """

    __slots__ = ("_v", "_area")

    def __init__(self, vertices):
        v = np.array(vertices, dtype=float)
        if v.shape != (3, 2):
            raise ValueError(f"expected 3 vertices in the plane, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("triangle vertices must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            e = edge_vectors_of(v)
            area = areas_of(e)
        if not (np.isfinite(e).all() and np.isfinite(area)):
            raise ValueError("triangle edge vectors and area must be finite")
        if area <= 0.0:
            raise ValueError(f"triangle must have strictly positive signed area, got {area}")
        v.setflags(write=False)
        self._v = v
        self._area = float(area)

    @property
    def vertices(self) -> np.ndarray:
        """Vertex array of shape (3, 2), read-only."""
        return self._v

    @property
    def area(self) -> float:
        return self._area

    @property
    def diameter(self) -> float:
        """Length of the longest (euclidean) edge."""
        e = edge_vectors_of(self._v)
        return float(np.sqrt((e * e).sum(axis=1).max()))

    @property
    def centroid(self) -> np.ndarray:
        return self._v.mean(axis=0)

    def edge_vector(self, i: int) -> np.ndarray:
        """Edge vector ``i`` (opposite vertex ``z_i``)."""
        return edge_vectors_of(self._v)[i]

    def __repr__(self):
        pts = ", ".join(f"({x:g}, {y:g})" for x, y in self._v)
        return f"Triangle({pts})"

    def __eq__(self, other):
        return isinstance(other, Triangle) and np.array_equal(self._v, other._v)

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which __eq__ treats as equal
        return hash((self._v + 0.0).tobytes())


def reference_triangle() -> Triangle:
    """The unit right triangle ((0,0), (1,0), (0,1))."""
    return Triangle([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])


class QuadForm:
    """Symmetric quadratic form ``q(x, y) = a20 x^2 + 2 a11 x y + a02 y^2``."""

    __slots__ = ("a20", "a11", "a02")

    def __init__(self, a20: float, a11: float, a02: float):
        self.a20 = float(a20)
        self.a11 = float(a11)
        self.a02 = float(a02)
        if not all(np.isfinite([self.a20, self.a11, self.a02])):
            raise ValueError("form coefficients must be finite")

    @classmethod
    def from_matrix(cls, m) -> "QuadForm":
        m = np.asarray(m, dtype=float)
        if m.shape != (2, 2) or abs(m[0, 1] - m[1, 0]) > 1e-12 * (1 + abs(m).max()):
            raise ValueError("expected a symmetric 2x2 matrix")
        return cls(m[0, 0], 0.5 * (m[0, 1] + m[1, 0]), m[1, 1])

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a20, self.a11], [self.a11, self.a02]])

    @property
    def det(self) -> float:
        return self.a20 * self.a02 - self.a11 * self.a11

    @property
    def scale(self) -> float:
        """Magnitude of the largest coefficient; 0 only for the zero form."""
        return max(abs(self.a20), abs(self.a11), abs(self.a02))

    def __call__(self, v):
        """Evaluate the form on one vector or an array of shape (..., 2)."""
        v = np.asarray(v, dtype=float)
        x, y = v[..., 0], v[..., 1]
        out = self.a20 * x * x + 2.0 * self.a11 * x * y + self.a02 * y * y
        return float(out) if out.ndim == 0 else out

    def classify(self) -> str:
        """One of 'positive-definite', 'negative-definite', 'mixed', 'degenerate'."""
        s = self.scale
        if self.det <= DEGENERATE_RTOL * s * s or s == 0.0:
            if self.det < -DEGENERATE_RTOL * s * s:
                return "mixed"
            return "degenerate"
        return "positive-definite" if self.a20 + self.a02 > 0 else "negative-definite"

    @property
    def is_definite(self) -> bool:
        return self.classify() in ("positive-definite", "negative-definite")

    @property
    def is_positive_definite(self) -> bool:
        return self.classify() == "positive-definite"

    def __repr__(self):
        return f"QuadForm(a20={self.a20:g}, a11={self.a11:g}, a02={self.a02:g})"


def _require_nondegenerate(q: QuadForm, what: str) -> None:
    if q.classify() == "degenerate":
        raise ValueError(f"{what} undefined for a (near-)degenerate form: det={q.det}")


def _require_positive_definite(q: QuadForm, what: str) -> None:
    if q.classify() != "positive-definite":
        raise ValueError(f"{what} requires a positive-definite form, got {q.classify()}")


def q_metric(q: QuadForm, v) -> float:
    """Metric length ``|v|_q = sqrt(|q(v)|)`` for a definite form."""
    if not q.is_definite:
        raise ValueError("metric undefined for indefinite form")
    out = np.sqrt(np.abs(q(v)))
    return float(out) if np.ndim(out) == 0 else out

def q_abs(q: QuadForm) -> QuadForm:
    """The positive form with the same eigenvectors and |eigenvalues|."""
    w, r = np.linalg.eigh(q.matrix)
    return QuadForm.from_matrix((r * np.abs(w)) @ r.T)


def canonical_transform(q: QuadForm) -> tuple[np.ndarray, int]:
    """Linear change of coordinates L normalizing the form.

    Returns ``(L, eps)`` with ``L^T Q L = eps * I`` when ``det q > 0``
    (``eps`` is +1 or -1), and ``L^T Q L = diag(1, -1)``, ``eps = 0``,
    when ``det q < 0``.  Rejects (near-)degenerate forms.
    """
    _require_nondegenerate(q, "canonical transform")
    w, r = np.linalg.eigh(q.matrix)  # ascending eigenvalues
    if q.det > 0:
        eps = 1 if w[0] > 0 else -1
        L = r / np.sqrt(np.abs(w))
        return L, eps
    # mixed sign: order columns (positive, negative) to reach diag(1, -1)
    r = r[:, ::-1]
    w = w[::-1]
    L = r / np.sqrt(np.abs(w))
    return L, 0


def rho(q: QuadForm, t: Triangle) -> float:
    """Non-degeneracy measure max|q(edge)| / (|T| sqrt|det q|)."""
    _require_nondegenerate(q, "rho")
    e = edge_vectors_of(t.vertices)
    return float(np.abs(q(e)).max() / (t.area * np.sqrt(abs(q.det))))


def sigma(q: QuadForm, t: Triangle) -> float:
    """Shape measure from the two q-shortest edges; minimum value 1.

    ``(q(b') + q(c')) / (4 |T| sqrt(det q))`` where b', c' are the two
    q-shortest edges.  Positive-definite forms only.
    """
    return float(sigma_batch(q, t.vertices[None])[0])


def sigma_batch(q: QuadForm, verts: np.ndarray) -> np.ndarray:
    """Vectorized ``sigma`` over a batch of vertex arrays (n, 3, 2)."""
    _require_positive_definite(q, "sigma")
    e = edge_vectors_of(verts)
    vals = q(e)
    return (vals.sum(axis=1) - vals.max(axis=1)) / (4.0 * areas_of(e) * np.sqrt(q.det))


def q_sorted_edge_indices(q: QuadForm, t: Triangle) -> list[int]:
    """Edge indices sorted by decreasing |q(edge)|, stably.

    Ties within TIE_RTOL (relative to the largest value) keep the lower
    index first, so the result realizes the labeling |a|_q >= |b|_q >= |c|_q
    with a deterministic convention.
    """
    vals = np.abs(q(edge_vectors_of(t.vertices)))
    top = float(vals.max())
    order = sorted(range(3), key=lambda i: (-vals[i], i))
    # cluster values within TIE_RTOL of each other so sub-tolerance noise
    # cannot reorder edges; within a cluster the lower index wins
    snapped = {}
    head = None
    for i in order:
        if head is None or head - vals[i] > TIE_RTOL * top:
            head = vals[i]
        snapped[i] = head
    return sorted(range(3), key=lambda i: (-snapped[i], i))


def q_longest_edge_index(q: QuadForm, t: Triangle) -> int:
    """Index of the q-longest edge; ties pick the lower index."""
    return q_sorted_edge_indices(q, t)[0]


_CYCLE = np.column_stack([np.arange(3), NEXT, PREV])  # row i: vertices i, i+1, i+2


def bisect(verts, edge_index):
    """Split from the midpoint of edge ``edge_index`` to the opposite vertex.

    ``verts`` is one vertex array (3, 2) with one edge index, or a batch
    (n, 3, 2) with one edge index per triangle.  Returns the vertex arrays
    of the two equal-area counter-clockwise children; child 0 keeps the
    full edge following the bisected one in cyclic order, child 1 the
    preceding one.
    """
    v = np.asarray(verts, dtype=float)
    e = np.asarray(edge_index)
    if (e.shape != v.shape[:-2] or e.dtype.kind not in "iu"
            or not ((e >= 0) & (e <= 2)).all()):
        raise ValueError(f"edge index must be 0, 1 or 2 per triangle, got {edge_index}")
    order = _CYCLE[e]
    w = v[np.arange(len(v))[:, None], order] if v.ndim == 3 else v[order]
    m = 0.5 * (w[..., 1, :] + w[..., 2, :])
    child0 = w.copy()
    child0[..., 2, :] = m
    w[..., 1, :] = m
    return child0, w


def psi(q: QuadForm, t: Triangle) -> Triangle:
    """Bisect the q-longest edge and keep the child holding the q-shortest edge.

    With the stable labeling |a|_q >= |b|_q >= |c|_q, returns the child of
    the a-bisection that contains the edge labeled c.
    """
    _require_positive_definite(q, "psi")
    ia, _, ic = q_sorted_edge_indices(q, t)
    child_a, child_b = bisect(t.vertices, ia)
    # child_a keeps full edge PREV[ia], child_b keeps full edge NEXT[ia]
    return Triangle(child_a if ic == PREV[ia] else child_b)


def delta(q: QuadForm, t1: Triangle, t2: Triangle) -> float:
    """Triangle distance: max difference of rank-sorted squared q-lengths."""
    _require_positive_definite(q, "delta")
    v1 = np.sort(q(edge_vectors_of(t1.vertices)))
    v2 = np.sort(q(edge_vectors_of(t2.vertices)))
    return float(np.abs(v1 - v2).max())
