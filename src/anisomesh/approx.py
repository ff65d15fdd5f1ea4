"""Local piecewise-linear approximation operators and bisection decisions.

Two linear operators map a function to an affine polynomial on a triangle:
vertex interpolation and L2 projection.  Both reproduce affine functions
and commute with affine changes of variables, so the local Lp error
scales as ``|det L|^(1/p)`` under a map with linear part L.

``local_errors`` is the one implementation of the local error: it scores a
batch of triangles, and every other error consumer (``local_error``, the
quadrature decisions, global errors, error colouring) calls it.

The edge-decision functions score the three possible bisections of one
triangle (3, 2) or of each triangle of a batch (n, 3, 2), returning shape
(3,) or (n, 3).  For convex integrands the L1-interpolation error
reduction has the closed form ``|T|/3 * (midpoint convexity gap)``, which
the refinement engine uses whenever the field is convexity-tagged;
otherwise decisions fall back to quadrature over the children.

Areas, edge vectors, edge midpoints and the edge labels come from
``geometry`` (``edge_vectors_of``, ``areas_of``, ``NEXT``/``PREV``).
"""
from __future__ import annotations

import math

import numpy as np

from .geometry import NEXT, PREV, Triangle, areas_of, bisect, edge_vectors_of

__all__ = [
    "AffinePoly",
    "QuadratureRule",
    "DEFAULT_RULE",
    "OPERATORS",
    "interpolate",
    "project_l2",
    "local_errors",
    "local_error",
    "lp_sum",
    "decision_l1",
    "decision_gains_convex",
    "decision_lp_split",
]

OPERATORS = ("interpolation", "l2-projection")

# Triangles flatter than this (area relative to diam^2) make the operators
# numerically meaningless; bisection of valid parents never produces them.
FLAT_RTOL = 1e-14


class AffinePoly:
    """Affine polynomial ``c0 + c1 x + c2 y``."""

    __slots__ = ("c0", "c1", "c2")

    def __init__(self, c0: float, c1: float, c2: float):
        self.c0, self.c1, self.c2 = float(c0), float(c1), float(c2)
        if not all(map(math.isfinite, (self.c0, self.c1, self.c2))):
            raise ValueError("affine coefficients must be finite")

    @property
    def coefficients(self) -> tuple[float, float, float]:
        return self.c0, self.c1, self.c2

    def __call__(self, x, y):
        out = self.c0 + self.c1 * np.asarray(x, dtype=float) + self.c2 * np.asarray(y, dtype=float)
        return float(out) if np.ndim(out) == 0 else out

    def __repr__(self):
        return f"AffinePoly({self.c0:g}, {self.c1:g}, {self.c2:g})"


class QuadratureRule:
    """Quadrature nodes in barycentric coordinates with weights summing to 1.

    ``integrate(g) over T ~= area(T) * sum_k w_k g(x_k)``.  The rule is
    exact for polynomials up to ``degree`` on any triangle.
    """

    __slots__ = ("nodes", "weights", "degree")

    def __init__(self, nodes, weights, degree: int):
        nodes = np.array(nodes, dtype=float)
        weights = np.array(weights, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != 3 or len(weights) != len(nodes):
            raise ValueError("nodes must be (n, 3) barycentric with matching weights")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        self.nodes = nodes
        self.weights = weights
        self.degree = int(degree)


def _symmetric_rule(groups, degree):
    import itertools

    nodes, weights = [], []
    for w, bary in groups:
        for pm in sorted(set(itertools.permutations(bary))):
            nodes.append(pm)
            weights.append(w)
    return QuadratureRule(nodes, weights, degree)


# 16-point symmetric rule, exact to total degree 8 (Lyness-Jespersen family).
DEFAULT_RULE = _symmetric_rule(
    [
        (0.1443156076777871682510911104890646, (1 / 3, 1 / 3, 1 / 3)),
        (0.0950916342672846247938961043885843, (0.4592925882927231560288155144941693,
                                                0.4592925882927231560288155144941693,
                                                0.0814148234145536879423689710116614)),
        (0.1032173705347182502817915502921290, (0.1705693077517602066222935014914645,
                                                0.1705693077517602066222935014914645,
                                                0.6588613844964795867554129970170710)),
        (0.0324584976231980803109259283417806, (0.0505472283170309754584235505965989,
                                                0.0505472283170309754584235505965989,
                                                0.8989055433659380490831528988068022)),
        (0.0272303141744349942648446900739089, (0.2631128296346381134217857862846436,
                                                0.0083947774099576053372138345392944,
                                                0.7284923929554042812409993791760620)),
    ],
    degree=8,
)

def _subdivided(rule: QuadratureRule, subdiv: int):
    """Barycentric nodes/weights of `rule` on 4**subdiv congruent subtriangles."""
    corners = [np.eye(3)]
    for _ in range(subdiv):
        refined = []
        for s in corners:
            m01, m12, m20 = 0.5 * (s[0] + s[1]), 0.5 * (s[1] + s[2]), 0.5 * (s[2] + s[0])
            refined += [
                np.array([s[0], m01, m20]),
                np.array([m01, s[1], m12]),
                np.array([m20, m12, s[2]]),
                np.array([m01, m12, m20]),
            ]
        corners = refined
    n_sub = len(corners)
    bary = np.vstack([rule.nodes @ s for s in corners])
    return bary, np.tile(rule.weights / n_sub, n_sub)


# The error quadrature: DEFAULT_RULE on the four subtriangles of one
# subdivision, because the |f - I_T f| integrand is only piecewise smooth
# (a curve of kinks for sign-changing residuals).
_BARY, _WEIGHTS = _subdivided(DEFAULT_RULE, 1)
# Barycentric nodes of the local error: the quadrature nodes, for p = inf
# also the lattice of order 16, and last the three vertices, which give the
# interpolation its vertex values.
_LATTICE = [(i / 16, j / 16, (16 - i - j) / 16) for i in range(17) for j in range(17 - i)]
_ERROR_NODES = np.vstack([_BARY, np.eye(3)])
_ERROR_NODES_INF = np.vstack([_BARY, _LATTICE, np.eye(3)])
for _a in (_BARY, _WEIGHTS, _ERROR_NODES, _ERROR_NODES_INF):
    _a.setflags(write=False)
# Points per evaluation chunk in local_errors: 64 triangles at p = inf, 210
# at finite p.  It bounds the (chunk, nodes) temporaries, so memory stays flat
# however many triangles are scored, and gives every numpy call as much work.
_POINTS = 64 * len(_ERROR_NODES_INF)


def _chunking(p: float):
    """The error nodes at `p` and the triangles per chunk they allow."""
    nodes = _ERROR_NODES_INF if math.isinf(p) else _ERROR_NODES
    return nodes, _POINTS // len(nodes)


def _points(nodes: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The barycentric `nodes` (m, 3) on each triangle of `v` (n, 3, 2), as
    contiguous x and y planes (2, n, m), on which fields evaluate fastest."""
    pts = np.empty((2, len(v), len(nodes)))
    np.matmul(nodes, v, out=np.moveaxis(pts, 0, -1))
    return pts


def _check_shapes(v: np.ndarray, what: str):
    """Areas and squared diameters of a vertex batch (n, 3, 2); rejects flat ones."""
    e = edge_vectors_of(v)
    area = areas_of(e)
    ee = e * e
    diam2 = (ee[..., 0] + ee[..., 1]).max(axis=1)
    flat = area < FLAT_RTOL * diam2
    if flat.any():
        i = int(flat.argmax())
        raise ValueError(f"{what}: triangle too flat (area {area[i]}, "
                         f"diam {math.sqrt(diam2[i])})")
    return area, diam2


def interpolate(t: Triangle, f) -> AffinePoly:
    """The affine function matching ``f`` at the three vertices."""
    _check_shapes(t.vertices[None], "interpolate")
    v = t.vertices
    a = np.column_stack([np.ones(3), v[:, 0], v[:, 1]])
    coeff = np.linalg.solve(a, np.asarray(f(v[:, 0], v[:, 1]), dtype=float))
    return AffinePoly(*coeff)


def _project(v: np.ndarray, h: np.ndarray, pts: np.ndarray, fx: np.ndarray,
             w: np.ndarray) -> np.ndarray:
    """L2 projection per triangle in the local basis {1, (x-cx)/h, (y-cy)/h}.

    ``h`` (n, 1) holds the diameters; the centred, scaled basis keeps the
    Gram matrix well conditioned on thin triangles.  Fits the values fx at
    the first len(w) points of the planes ``pts`` (2, n, m), the quadrature
    nodes, and returns the (n, 3) coefficients.  ``pts`` becomes the offsets
    of the points from the centroids, in place.
    """
    k = len(w)
    pts -= v.mean(axis=1).T[..., None]
    phi = np.empty((len(v), k, 3))
    phi[..., 0] = 1.0
    np.divide(pts[0, :, :k], h, out=phi[..., 1])
    np.divide(pts[1, :, :k], h, out=phi[..., 2])
    phi_w = (phi * w[:, None]).transpose(0, 2, 1)
    try:
        return np.linalg.solve(phi_w @ phi, phi_w @ fx[:, :k, None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise ValueError("project_l2: singular Gram matrix") from exc


def project_l2(t: Triangle, f) -> AffinePoly:
    """L2(T)-orthogonal projection of ``f`` onto affine functions.

    The Gram matrix and the load integrals use the error quadrature.
    """
    v = t.vertices[None]
    h = np.sqrt(_check_shapes(v, "project_l2")[1])[:, None]
    pts = _points(_BARY, v)
    alpha = _project(v, h, pts, np.asarray(f(pts[0], pts[1]), dtype=float), _WEIGHTS)[0]
    (cx, cy), h = t.centroid, float(h[0, 0])
    return AffinePoly(alpha[0] - alpha[1] * cx / h - alpha[2] * cy / h,
                      alpha[1] / h, alpha[2] / h)


def _chunk_errors(v, f, p: float, op: str, nodes: np.ndarray) -> np.ndarray:
    """``local_errors`` of one chunk of at most _POINTS // len(nodes) triangles."""
    area, diam2 = _check_shapes(v, "local_error")
    pts = _points(nodes, v)
    fx = np.asarray(f(pts[0], pts[1]), dtype=float)
    if op == "interpolation":
        del pts  # freed first, so the residual can take its place on the heap
        # the last three nodes are the vertices; one matrix-vector product
        # per triangle keeps the values bit-identical to nodes @ f(vertices)
        res = np.matmul(nodes, fx[:, -3:, None])[..., 0]
        np.subtract(fx, res, out=res)
    else:
        # fx - (a0 + a1 d0 / h + a2 d1 / h) in the offsets' planes, in that
        # order; a0 and a1 change sides, and IEEE + and * commute exactly on
        # numbers (a NaN raises below)
        h = np.sqrt(diam2)[:, None]
        a = _project(v, h, pts, fx, _WEIGHTS)
        res, term = pts
        res *= a[:, 1:2]
        res /= h
        res += a[:, :1]
        term *= a[:, 2:3]
        term /= h
        res += term
        np.subtract(fx, res, out=res)
    # in place: few large blocks are alive at once, so the allocator does not
    # give the heap top back and fault it in again on every chunk
    np.abs(res, out=res)
    if math.isinf(p):
        errs = res.max(axis=1)
    else:
        w = res[:, :len(_WEIGHTS)] ** p
        w *= _WEIGHTS
        errs = w.sum(axis=1)
        errs *= area
    # NaN and inf field values propagate into the errors
    bad = ~np.isfinite(errs)
    if bad.any():
        raise ValueError(f"local error of field {getattr(f, 'label', f)!r} is not "
                         f"finite on triangle {v[bad.argmax()].tolist()}")
    if math.isinf(p):
        return errs
    # the root is taken per scalar: numpy's array power can differ in the last bit
    return np.array([s ** (1.0 / p) for s in errs.tolist()])


def local_errors(verts, f, p, op: str = "interpolation") -> np.ndarray:
    """Local Lp errors ``||f - A_T f||_{Lp(T)}`` of a batch of triangles.

    ``verts`` has shape (n, 3, 2); returns the n errors.  Finite p uses
    DEFAULT_RULE on 4 congruent subtriangles; p = inf takes the maximum
    over those nodes, a barycentric lattice of order 16 and the vertices.
    Raises ValueError on flat triangles and on non-finite field values.
    """
    if op not in OPERATORS:
        raise ValueError(f"unknown operator {op!r}; expected one of {OPERATORS}")
    p = float(p)
    if not p >= 1.0:
        raise ValueError(f"Lp exponent must satisfy p >= 1, got {p}")
    verts = np.asarray(verts, dtype=float)
    if verts.ndim != 3 or verts.shape[1:] != (3, 2):
        raise ValueError(f"expected vertices of shape (n, 3, 2), got {verts.shape}")
    nodes, chunk = _chunking(p)
    if len(verts) <= chunk:
        return _chunk_errors(verts, f, p, op, nodes)
    return np.concatenate([_chunk_errors(verts[s:s + chunk], f, p, op, nodes)
                           for s in range(0, len(verts), chunk)])


def local_error(t, f, p, op: str = "interpolation"):
    """Local Lp error ``||f - A_T f||_{Lp(T)}`` (see local_errors).

    A float for one triangle (a Triangle or its (3, 2) vertices), the
    ``local_errors`` array for a batch (n, 3, 2).
    """
    v = np.asarray(t.vertices if isinstance(t, Triangle) else t, dtype=float)
    if v.ndim == 2:
        return float(local_errors(v[None], f, p, op)[0])
    return local_errors(v, f, p, op)


def lp_sum(errs, p) -> float:
    """Global Lp error from local errors: their l^p norm, the max for p = inf."""
    errs = np.asarray(errs, dtype=float)
    if math.isinf(p):
        return float(errs.max())
    return float((errs ** p).sum() ** (1.0 / p))


def _children_mass(verts, f, p: float, op: str) -> np.ndarray:
    """Child errors of each bisection to the p-th power, summed (max for p = inf).

    Takes as many parents at a time as one error chunk holds triangles, so
    the repeated parents and their children stay a bounded temporary however
    large the batch.
    """
    v = np.asarray(verts, dtype=float)
    flat = v.reshape(-1, 3, 2)
    chunk = _chunking(p)[1]
    edges = np.tile(np.arange(3), chunk)
    mass = np.empty((len(flat), 3))
    for s in range(0, len(flat), chunk):
        parents = np.repeat(flat[s:s + chunk], 3, axis=0)
        children = np.stack(bisect(parents, edges[:len(parents)]), axis=1)
        errs = local_errors(children.reshape(-1, 3, 2), f, p, op)
        if math.isinf(p):
            mass[s:s + chunk] = errs.reshape(-1, 3, 2).max(axis=2)
        else:
            # the power is taken per scalar: numpy's array power can differ in the last bit
            powers = np.array([e ** p for e in errs.tolist()])
            mass[s:s + chunk] = powers.reshape(-1, 3, 2).sum(axis=2)
    return mass.reshape(v.shape[:-2] + (3,))


def decision_l1(verts, f) -> np.ndarray:
    """L1 interpolation error summed over the two children of each bisection.

    ``decision_lp_split`` at p = 1 with the interpolation operator.
    """
    return _children_mass(verts, f, 1.0, "interpolation")


def decision_gains_convex(verts, f) -> np.ndarray:
    """Reductions of the L1 interpolation error when bisecting each edge.

    Valid for convex ``f`` (caller-asserted): entry ``e`` is ``|T|/3`` times
    the midpoint convexity gap of edge ``e``; for a quadratic this is
    ``|T| q(e) / 12``.
    """
    v = np.asarray(verts, dtype=float)
    mids = 0.5 * (v.take(NEXT, axis=-2) + v.take(PREV, axis=-2))  # midpoint of edge i
    xs = np.concatenate([v[..., 0], mids[..., 0]], axis=-1)
    ys = np.concatenate([v[..., 1], mids[..., 1]], axis=-1)
    vals = np.asarray(f(xs, ys), dtype=float)
    gaps = 0.5 * (vals.take(NEXT, axis=-1) + vals.take(PREV, axis=-1)) - vals[..., 3:]
    return (areas_of(edge_vectors_of(v)) / 3.0)[..., None] * gaps


def decision_lp_split(verts, f, p, op: str = "interpolation") -> np.ndarray:
    """Error mass after bisection: sum of child errors to the p-th power.

    For p = inf, the maximum of the two child errors.
    """
    return _children_mass(verts, f, float(p), op)
