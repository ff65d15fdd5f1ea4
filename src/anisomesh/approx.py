"""Local piecewise-linear approximation operators and bisection decisions.

Two linear operators map a function to an affine polynomial on a triangle:
vertex interpolation and L2 projection.  Both reproduce affine functions
and commute with affine changes of variables, so the local Lp error
scales as ``|det L|^(1/p)`` under a map with linear part L.  Each is given
by its values at the three vertices: the field's own, or for the
projection one constant table ``_PROJ`` applied to the field's values at
the quadrature nodes, because in the hat-function (barycentric) basis the
Gram matrix is ``|T| (1 + d_ab) / 12`` on every triangle.

``local_errors`` is the one implementation of the local error: it scores a
batch of triangles, and every other error consumer (``local_error``, the
quadrature decisions, global errors, error colouring) calls it.  For a
QuadraticField it takes the interpolation error from the form on the edge
vectors, without evaluating the field: exactly, in closed form, at p = 2
and p = inf (where any other field's maximum is a sampled one), and by the
error quadrature at any other p.

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

import itertools
import math

import numpy as np

from .fields import QuadraticField
from .geometry import NEXT, PREV, Triangle, areas_of, bisect, edge_vectors_of

__all__ = [
    "AffinePoly",
    "RULE_NODES",
    "RULE_WEIGHTS",
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

# Triangles whose area is at most this times diam^2, three coincident vertices
# too, are rejected: their hat functions, and so both operators, are
# numerically meaningless, and the vertex solve is singular or nearly so.
# Bisection of valid parents never produces them.
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


# 16-point symmetric rule, exact to total degree 8 (Lyness-Jespersen family):
# one weight and one barycentric point per orbit, expanded over the point's
# distinct permutations in sorted order.  Weights sum to 1, so
# ``integrate(g) over T ~= area(T) * sum_k w_k g(x_k)``.
_ORBITS = [
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
]
RULE_NODES = np.array([pm for _, b in _ORBITS for pm in sorted(set(itertools.permutations(b)))])
RULE_WEIGHTS = np.array([w for w, b in _ORBITS for _ in set(itertools.permutations(b))])

# The error quadrature: the rule on the four quarter-triangles of one midpoint
# subdivision, because the |f - I_T f| integrand is only piecewise smooth
# (a curve of kinks for sign-changing residuals).  Rows 0-2 of _CORNERS are
# the vertices, rows 3-5 the midpoints of edges 0-2.
_CORNERS = np.vstack([np.eye(3), 0.5 * (np.eye(3)[NEXT] + np.eye(3)[PREV])])
_BARY = np.vstack([RULE_NODES @ _CORNERS[q] for q in
                   ([0, 5, 4], [5, 1, 3], [4, 3, 2], [5, 3, 4])])
_WEIGHTS = np.tile(RULE_WEIGHTS / 4, 4)
# Barycentric nodes of the local error: the quadrature nodes, for p = inf
# also the lattice of order 16, and last the three vertices, which give the
# interpolation its vertex values.
_LATTICE = [(i / 16, j / 16, (16 - i - j) / 16) for i in range(17) for j in range(17 - i)]
_ERROR_NODES = np.vstack([_BARY, np.eye(3)])
_ERROR_NODES_INF = np.vstack([_BARY, _LATTICE, np.eye(3)])
# The rows ``l1 l2, l2 l0, l0 l1`` (3, m) of the finite-p error nodes: row k
# multiplies the form on edge k, the edge opposite vertex k.
_BUBBLES = np.ascontiguousarray((_ERROR_NODES[:, NEXT] * _ERROR_NODES[:, PREV]).T)
# The L2 projection in the hat basis l0, l1, l2: on every triangle its Gram
# matrix is |T| (1 + d_ab) / 12, which the quadrature integrates exactly, and
# its inverse is (12 I - 3) / |T|.  So _PROJ (64, 3) takes a field's values at
# the quadrature nodes to its projection's values at the three vertices.
_PROJ = (_BARY * _WEIGHTS[:, None]) @ (12.0 * np.eye(3) - 3.0)
for _a in (RULE_NODES, RULE_WEIGHTS, _CORNERS, _BARY, _WEIGHTS, _ERROR_NODES,
           _ERROR_NODES_INF, _BUBBLES, _PROJ):
    _a.setflags(write=False)
# Triangles per chunk in local_errors.  On the error nodes, 64 at p = inf and
# 210 at finite p: it bounds the (chunk, nodes) temporaries, so memory stays
# flat however many triangles are scored, and gives every numpy call as much
# work.  The closed forms hold a few floats per triangle and take 1536, the
# six children of 256 parents: a chunk peaks lower than one on the nodes.
_POINTS = 64 * len(_ERROR_NODES_INF)
_CLOSED = 1536
_TINY = np.finfo(float).tiny  # the smallest normal float


def _chunking(f, p: float, op: str):
    """How local_errors scores `f` at `p` under `op`: the QuadForm of a
    quadratic field whose interpolation error is read from its form (else
    None), the error nodes (None for the closed forms at p = 2 and p = inf)
    and the triangles per chunk."""
    form = f.form if op == "interpolation" and isinstance(f, QuadraticField) else None
    if form is not None and (p == 2.0 or math.isinf(p)):
        return form, None, _CLOSED
    nodes = _ERROR_NODES_INF if math.isinf(p) else _ERROR_NODES
    return form, nodes, _POINTS // len(nodes)


def _points(nodes: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The barycentric `nodes` (m, 3) on each triangle of `v` (n, 3, 2), as
    contiguous x and y planes (2, n, m), on which fields evaluate fastest."""
    pts = np.empty((2, len(v), len(nodes)))
    np.matmul(nodes, v, out=np.moveaxis(pts, 0, -1))
    return pts


def _check_shapes(v: np.ndarray, what: str):
    """Areas and edge vectors of a vertex batch (n, 3, 2); rejects flat ones,
    and those whose vertices coincide."""
    e = edge_vectors_of(v)
    area = areas_of(e)
    ee = e * e
    diam2 = (ee[..., 0] + ee[..., 1]).max(axis=1)
    flat = area <= FLAT_RTOL * diam2
    if flat.any():
        i = int(flat.argmax())
        raise ValueError(f"{what}: triangle too flat (area {area[i]}, "
                         f"diam {math.sqrt(diam2[i])})")
    return area, e


def _affine(v: np.ndarray, vals: np.ndarray) -> AffinePoly:
    """The affine function taking the values `vals` at the vertices `v` (3, 2)."""
    a = np.column_stack([np.ones(3), v[:, 0], v[:, 1]])
    return AffinePoly(*np.linalg.solve(a, vals))


def interpolate(t: Triangle, f) -> AffinePoly:
    """The affine function matching ``f`` at the three vertices."""
    v = t.vertices
    _check_shapes(v[None], "interpolate")
    return _affine(v, np.asarray(f(v[:, 0], v[:, 1]), dtype=float))


def project_l2(t: Triangle, f) -> AffinePoly:
    """L2(T)-orthogonal projection of ``f`` onto affine functions.

    Its vertex values are ``_PROJ`` on the field's values at the error
    quadrature's nodes, which integrate the load exactly for f of degree 7.
    """
    v = t.vertices
    _check_shapes(v[None], "project_l2")
    x, y = (_BARY @ v).T
    return _affine(v, np.asarray(f(x, y), dtype=float) @ _PROJ)


def _pow(x: np.ndarray, e: float) -> np.ndarray:
    """``x ** e`` taken per scalar, by libm's pow: numpy's array power can
    differ from it in the last bit.  At e = 1 it is x, which ``x ** 1.0`` is."""
    if e == 1.0:
        return x
    return np.array([s ** e for s in x.tolist()])


def _form_residual(e: np.ndarray, form) -> np.ndarray:
    """``I_T f - f`` at the finite-p error nodes of each triangle, given its
    edge vectors `e` (n, 3, 2), for a quadratic f with QuadForm `form`.

    The affine part of f is interpolated exactly, and the form leaves
    ``l1 l2 q(e0) + l2 l0 q(e1) + l0 l1 q(e2)`` at the barycentric point l,
    with ``e_k`` the edge opposite vertex k: the form on the edge vectors
    times the `_BUBBLES` rows, added in that order.  Each value comes
    from its triangle's own numbers in one order, whatever the batch (a
    matrix product would not promise that).  einsum forms each product
    into the term buffer without the iteration buffers of a broadcasting
    multiply.
    """
    qe = form(e).T  # (3, n): the form on edge k of each triangle
    res = np.einsum("i,j->ij", qe[0], _BUBBLES[0])
    term = np.empty_like(res)
    for k in (1, 2):
        res += np.einsum("i,j->ij", qe[k], _BUBBLES[k], out=term)
    return res


def _form_norms(q: np.ndarray, e: np.ndarray, area: np.ndarray, form, p: float) -> np.ndarray:
    """The interpolation error of a quadratic field with QuadForm `form` in
    closed form, from the form `q` (n, 3) on the edge vectors `e` (n, 3, 2):
    the integral of its square at p = 2, its maximum at p = inf.

    The residual ``r = sum_k q_k l_(k+1) l_(k+2)`` squared integrates to
    ``|T| (sum q_k^2 + (sum q_k)^2) / 180``; on edge k it peaks at ``q_k / 4``.
    Inside T it is stationary at ``l_k ~ q_k s_k``, ``s_k = -2 B(e_(k+1),
    e_(k+2))`` with B the bilinear form, where it is ``q0 q1 q2 / D``, ``D =
    16 det(Q) |T|^2``: taken so, neither cancels on needles.  Only for a
    definite form, whose q_k share the sign of a20, is that point an
    extremum, and it lies in T where every s_k has that sign too; an
    indefinite form's is a saddle, and one of rank 1 has none.  Every value
    is elementwise in its own triangle's numbers, whatever the batch.
    """
    q0, q1, q2 = q.T
    # a NaN or an overflow is reported by the caller's checks
    with np.errstate(over="ignore", invalid="ignore"):
        if p == 2.0:
            t = q0 + q1 + q2
            return (q0 * q0 + q1 * q1 + q2 * q2 + t * t) * area / 180.0
        peak = np.abs(q).max(axis=1) * 0.25
        if not form.det > 0.0:
            return peak
        x, y = e[..., 0], e[..., 1]  # B(e_(k+1), e_(k+2)), the second through Q e
        b = x.take(NEXT, axis=1) * (form.a20 * x + form.a11 * y).take(PREV, axis=1)
        b += y.take(NEXT, axis=1) * (form.a11 * x + form.a02 * y).take(PREV, axis=1)
        inside = (b < 0.0 if form.a20 > 0.0 else b > 0.0).all(axis=1)
        top = q0 / area * (q1 / area) * q2 / (16.0 * form.det)
        return np.maximum(peak, np.abs(top, out=top), out=peak, where=inside)


def _chunk_errors(v, f, p: float, op: str, form, nodes) -> np.ndarray:
    """``local_errors`` of one chunk of triangles, at most as many as
    ``_chunking`` allows; `form` and `nodes` are its other two values."""
    area, e = _check_shapes(v, "local_error")
    if nodes is None:
        res = form(e)  # (n, 3): the residual is zero, or finite, where these are
        errs = _form_norms(res, e, area, form, p)
    elif form is not None:
        res = _form_residual(e, form)
    else:
        pts = _points(nodes, v)
        fx = np.asarray(f(pts[0], pts[1]), dtype=float)
        del pts  # freed first, so the residual can take its place on the heap
        # the vertex values: the field's at the last three nodes, the vertices,
        # or the projection's; one product per triangle keeps the residual
        # bit-identical to nodes @ vals, whatever the batch
        if op == "interpolation":
            vals = fx[:, -3:]
        else:
            vals = np.matmul(fx[:, None, :len(_WEIGHTS)], _PROJ)[:, 0]
        res = np.matmul(nodes, vals[..., None])[..., 0]
        np.subtract(fx, res, out=res)
    # in place: few large blocks are alive at once, so the allocator does not
    # give the heap top back and fault it in again on every chunk
    np.abs(res, out=res)
    if nodes is not None and math.isinf(p):
        errs = res.max(axis=1)
    elif nodes is not None:
        res = res[:, :len(_WEIGHTS)]  # the nodes of the sum
        with np.errstate(over="ignore"):  # an overflow is reported below
            w = res ** p
            w *= _WEIGHTS
            errs = w.sum(axis=1)
            errs *= area
    # NaN and inf field values propagate into the errors; at finite p the sum
    # of powers must also stay in the normal range, or the residual is lost
    ok = np.isfinite(errs) if math.isinf(p) else (errs >= _TINY) & (errs < math.inf)
    if not ok.all():
        bad = ~ok & res.any(axis=1)  # a residual of zeros sums to zero
        if bad.any():
            i = int(bad.argmax())
            what = ("is not finite" if not np.isfinite(res[i]).all() else
                    f"{'underflows' if errs[i] < _TINY else 'overflows'} at p = {p:g}")
            raise ValueError(f"local error of field {getattr(f, 'label', f)!r} {what} "
                             f"on triangle {v[i].tolist()}")
    return errs if math.isinf(p) else _pow(errs, 1.0 / p)


def local_errors(verts, f, p, op: str = "interpolation") -> np.ndarray:
    """Local Lp errors ``||f - A_T f||_{Lp(T)}`` of a batch of triangles.

    ``verts`` has shape (n, 3, 2); returns the n errors.  Finite p uses
    the 16-point rule on 4 congruent subtriangles; p = inf takes the maximum
    over those nodes, a barycentric lattice of order 16 and the vertices, a
    sampled maximum.  The interpolation error of a QuadraticField is read
    from its ``form`` on the edge vectors, without evaluating the field: at
    p = 2 and p = inf in closed form, the exact integral and the exact
    maximum; at any other p as the residual at the same nodes.
    Raises ValueError on flat triangles, on non-finite field values, and
    when at finite p the sum of the p-th powers of a finite residual that is
    not all zero underflows below the normal floats or overflows.
    """
    if op not in OPERATORS:
        raise ValueError(f"unknown operator {op!r}; expected one of {OPERATORS}")
    p = float(p)
    if not p >= 1.0:
        raise ValueError(f"Lp exponent must satisfy p >= 1, got {p}")
    verts = np.asarray(verts, dtype=float)
    if verts.ndim != 3 or verts.shape[1:] != (3, 2):
        raise ValueError(f"expected vertices of shape (n, 3, 2), got {verts.shape}")
    form, nodes, chunk = _chunking(f, p, op)
    if len(verts) <= chunk:
        return _chunk_errors(verts, f, p, op, form, nodes)
    return np.concatenate([_chunk_errors(verts[s:s + chunk], f, p, op, form, nodes)
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

    Takes as many parents at a time as one error chunk holds triangles (a
    closed-form chunk, all six children of each), so the repeated parents
    and their children stay a bounded temporary however large the batch.
    """
    v = np.asarray(verts, dtype=float)
    flat = v.reshape(-1, 3, 2)
    nodes, chunk = _chunking(f, p, op)[1:]
    if nodes is None:
        chunk //= 6
    edges = np.tile(np.arange(3), chunk)
    mass = np.empty((len(flat), 3))
    for s in range(0, len(flat), chunk):
        parents = np.repeat(flat[s:s + chunk], 3, axis=0)
        children = np.stack(bisect(parents, edges[:len(parents)]), axis=1)
        errs = local_errors(children.reshape(-1, 3, 2), f, p, op)
        if math.isinf(p):
            mass[s:s + chunk] = errs.reshape(-1, 3, 2).max(axis=2)
            continue
        try:
            errs = _pow(errs, p)
        except OverflowError:  # the largest power, of a child of parent k // 6
            k = int(errs.argmax())
            raise ValueError(f"the child errors of triangle {flat[s + k // 6].tolist()} "
                             f"overflow at p = {p:g}") from None
        mass[s:s + chunk] = errs.reshape(-1, 3, 2).sum(axis=2)
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
