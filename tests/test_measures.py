"""Every triangle measure against its formula written out longhand.

``geometry`` owns the edge labels (``NEXT``/``PREV``), ``edge_vectors_of``,
``areas_of`` and ``sigma_batch``; ``Triangle``, ``sigma``, ``approx`` and
``analysis`` call them.  The references below spell each formula out
without those helpers, and the property requires the same float64 bytes.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from anisomesh.approx import FLAT_RTOL, _check_shapes, decision_gains_convex
from anisomesh.fields import QuadraticField
from anisomesh.geometry import (QuadForm, Triangle, areas_of, edge_vectors_of, sigma,
                                sigma_batch)


def ref_edges(v):
    # edge i runs from vertex i+1 to vertex i+2
    return np.stack([v[..., (i + 2) % 3, :] - v[..., (i + 1) % 3, :] for i in range(3)],
                    axis=-2)


def ref_area(v):
    # half the cross product of z1 - z0 and z2 - z0
    u, w = v[..., 1, :] - v[..., 0, :], v[..., 2, :] - v[..., 0, :]
    return 0.5 * (u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0])


def ref_check_shapes(v):
    e = ref_edges(v)
    return ref_area(v), (e * e).sum(axis=-1).max(axis=-1)


def ref_sigma(q, v):
    vals = q(ref_edges(v))
    return (vals.sum(axis=-1) - vals.max(axis=-1)) / (4.0 * ref_area(v) * np.sqrt(q.det))


def ref_gains(v, f):
    mids = [0.5 * (v[..., (i + 1) % 3, :] + v[..., (i + 2) % 3, :]) for i in range(3)]
    pts = np.stack([v[..., 0, :], v[..., 1, :], v[..., 2, :]] + mids, axis=-2)
    vals = np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float)
    gaps = np.stack([0.5 * (vals[..., (i + 1) % 3] + vals[..., (i + 2) % 3]) - vals[..., 3 + i]
                     for i in range(3)], axis=-1)
    return (ref_area(v) / 3.0)[..., None] * gaps


def same_bytes(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def unsigned_zero(a):
    # an exact zero area may come out as 0.0 or -0.0 depending on which two
    # edges the cross product takes; every consumer rejects such triangles
    return np.asarray(a, dtype=float) + 0.0


coords = st.one_of(st.floats(-4.0, 4.0),
                   st.sampled_from([0.0, -0.0, 1.0, -1.0]))


@st.composite
def vertex_arrays(draw):
    """Vertices of shape (3, 2), (n, 3, 2) or (n, 3, 3, 2), either orientation."""
    n = draw(st.integers(1, 4))
    lead = draw(st.sampled_from([(), (n,), (n, 3)]))
    size = 6 * math.prod(lead)
    return np.array(draw(st.lists(coords, min_size=size, max_size=size))).reshape(lead + (3, 2))


@st.composite
def pd_forms(draw):
    a20, a02 = draw(st.floats(0.01, 100.0)), draw(st.floats(0.01, 100.0))
    return QuadForm(a20, draw(st.floats(-0.9, 0.9)) * math.sqrt(a20 * a02), a02)


@settings(max_examples=300, deadline=None)
@given(vertex_arrays(), pd_forms())
# a sliver whose sigma's denominator underflows to zero: both sides are inf
@example(np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 5e-324]]), QuadForm(0.01, 0.0, 0.01))
def test_measures_match_longhand_formulas(v, q):
    e = edge_vectors_of(v)
    assert same_bytes(e, ref_edges(v))
    assert same_bytes(unsigned_zero(areas_of(e)), unsigned_zero(ref_area(v)))
    qf = QuadraticField("q", q.a20, q.a11, q.a02)
    assert same_bytes(unsigned_zero(decision_gains_convex(v, qf)),
                      unsigned_zero(ref_gains(v, qf)))

    rows = v.reshape(-1, 3, 2)
    live = ref_area(rows) != 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        assert same_bytes(sigma_batch(q, rows)[live], ref_sigma(q, rows)[live])

    # counter-clockwise copies of the non-degenerate rows
    ccw = rows[live].copy()
    cw = ref_area(ccw) < 0
    ccw[cw] = ccw[cw][:, [0, 2, 1]]
    if len(ccw) == 0:
        return
    area, diam2 = ref_check_shapes(ccw)
    if (area < FLAT_RTOL * diam2).any():
        with pytest.raises(ValueError, match="too flat"):
            _check_shapes(ccw, "test")
    else:
        got = _check_shapes(ccw, "test")
        assert same_bytes(got[0], area) and same_bytes(got[1], diam2)
        assert same_bytes(got[2], ref_edges(ccw))
    for w in ccw:
        t = Triangle(w)
        assert same_bytes(t.area, ref_area(w))
        assert all(same_bytes(t.edge_vector(i), ref_edges(w)[i]) for i in range(3))
        with np.errstate(over="ignore", divide="ignore"):
            assert same_bytes(sigma(q, t), ref_sigma(q, w))
